#include "security/monte_carlo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

namespace
{

/** 97.5% normal quantile: two-sided 95% confidence intervals. */
constexpr double kZ95 = 1.959963984540054;

/** Importance-sampling proposal: epoch count ~ Geometric(kProposalP). */
constexpr double kProposalP = 0.5;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Derive the presented statistics from the folded exact sums. */
void
finalize(double epochSec, MonteCarloResult &out)
{
    if (out.iterations == 0)
        return;
    const double n = static_cast<double>(out.iterations);
    out.pBreak = out.sumPBreak / n;
    double pHalf = 0.0;
    if (out.iterations >= 2) {
        const double varP = std::max(
            0.0, (out.sumSqPBreak - n * out.pBreak * out.pBreak) /
                     (n - 1.0));
        pHalf = kZ95 * std::sqrt(varP / n);
    }
    out.pBreakCiLo = std::max(0.0, out.pBreak - pHalf);
    out.pBreakCiHi = std::min(1.0, out.pBreak + pHalf);

    const std::uint64_t kept = out.iterations - out.censored;
    if (kept > 0) {
        const double m = static_cast<double>(kept);
        out.meanTimeSec = out.sumTimeSec / m;
        out.meanEpochs = out.meanTimeSec / epochSec;
        double tHalf = 0.0;
        if (kept >= 2) {
            const double var = std::max(
                0.0, (out.sumSqTimeSec -
                      m * out.meanTimeSec * out.meanTimeSec) /
                         (m - 1.0));
            out.stddevTimeSec = std::sqrt(var);
            tHalf = kZ95 * out.stddevTimeSec / std::sqrt(m);
        }
        out.timeCiLoSec = std::max(0.0, out.meanTimeSec - tHalf);
        out.timeCiHiSec = out.meanTimeSec + tHalf;
    }
    // More than 5% censored trials bias the truncated time mean too
    // far to trust the estimate.
    out.reliable = kept > 0 && out.censored * 20 <= out.iterations;
}

/** The k == 0 campaign is deterministic: every trial breaks in the
 *  first epoch.  Fill the sums exactly, no sampling. */
MonteCarloResult
instantResult(double epochSec, std::uint64_t iterations)
{
    MonteCarloResult out;
    out.feasible = true;
    out.iterations = iterations;
    if (iterations == 0)
        return out;
    const double n = static_cast<double>(iterations);
    out.meanEpochs = 1.0;
    out.meanTimeSec = epochSec;
    out.timeCiLoSec = epochSec;
    out.timeCiHiSec = epochSec;
    out.pBreak = 1.0;
    out.pBreakCiLo = 1.0;
    out.pBreakCiHi = 1.0;
    out.sumTimeSec = n * epochSec;
    out.sumSqTimeSec = n * epochSec * epochSec;
    out.sumPBreak = n;
    out.sumSqPBreak = n;
    out.reliable = true;
    return out;
}

} // namespace

MonteCarloAttack::MonteCarloAttack(const AttackParams &params,
                                   std::uint64_t seed)
    : params_(params), model_(params), seed_(seed)
{
}

void
MonteCarloAttack::setEpochValve(std::uint64_t maxEpochs)
{
    valveOverride_ = maxEpochs;
}

MonteCarloResult
MonteCarloAttack::run(const AttackResult &analytic,
                      std::uint64_t iterations,
                      std::uint64_t epochLoopLimit)
{
    StratifiedCampaign campaign(params_, analytic, seed_, iterations,
                                epochLoopLimit, valveOverride_);
    for (std::size_t s = 0; s < campaign.strata(); ++s)
        campaign.runStratum(s);
    return campaign.result();
}

MonteCarloResult
MonteCarloAttack::runRrs(std::uint64_t rounds, std::uint64_t iterations,
                         std::uint64_t epochLoopLimit)
{
    return run(model_.evaluateRrs(rounds), iterations, epochLoopLimit);
}

MonteCarloResult
MonteCarloAttack::runSrs(std::uint64_t iterations)
{
    return run(model_.evaluateSrs(), iterations, 100000);
}

StratifiedCampaign::StratifiedCampaign(const AttackParams &params,
                                       const AttackResult &analytic,
                                       std::uint64_t seed,
                                       std::uint64_t iterations,
                                       std::uint64_t epochLoopLimit,
                                       std::uint64_t valve)
    : spec_(makeCampaign(params, analytic, epochLoopLimit, valve)),
      seed_(seed), iterations_(iterations)
{
    // Infeasible and instant campaigns are exact without sampling.
    if (spec_.feasible && !spec_.instant)
        parts_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
            iterations, MonteCarloAttack::kStrata)));
}

StratifiedCampaign::Spec
StratifiedCampaign::makeCampaign(const AttackParams &params,
                                 const AttackResult &analytic,
                                 std::uint64_t epochLoopLimit,
                                 std::uint64_t valve)
{
    Spec c;
    // An infeasible analytic result is infeasible regardless of its
    // k — k == 0 there means "no budget for even one guess", not
    // "breaks for free".
    if (!analytic.feasible)
        return c;
    c.feasible = true;
    c.epochSec = params.epochSec;
    if (analytic.k == 0) {
        // Latent activations alone break the row in the first epoch.
        c.instant = true;
        c.pEpoch = 1.0;
        return c;
    }
    const double pRow = 1.0 / static_cast<double>(params.rowsPerBank);
    const auto g = static_cast<std::uint64_t>(analytic.guesses);
    // Per-epoch success probability (exact upper tail).
    c.pEpoch = binomialSf(g, analytic.k, pRow);
    if (c.pEpoch <= 0.0) {
        c.feasible = false;
        return c;
    }
    c.k = analytic.k;
    c.landings = BinomialSampler(g, pRow);
    c.iterate =
        c.pEpoch > 1.0 / static_cast<double>(epochLoopLimit);
    c.valve = valve != 0 ? valve : 100ULL * epochLoopLimit;
    return c;
}

void
StratifiedCampaign::runStratum(std::size_t s)
{
    const Spec &c = spec_;
    const std::uint64_t strata = parts_.size();
    const std::uint64_t trials =
        iterations_ / strata + (s < iterations_ % strata ? 1 : 0);
    // Accumulate locally and store once: neighbouring slots share
    // cache lines, and strata run concurrently.
    StratumStats st;
    st.n = trials;
    Rng rng(shardSeed(seed_, s));
    for (std::uint64_t j = 0; j < trials; ++j) {
        if (c.iterate) {
            // Event-driven: draw guess landings epoch by epoch, for
            // at most valve epochs (0: censored).  The first epoch
            // doubles as a naive sample of pEpoch.
            const std::uint64_t epochs =
                c.landings.firstAtLeast(c.k, c.valve, rng);
            const double pv = epochs == 1 ? 1.0 : 0.0;
            st.sumP += pv;
            st.sumSqP += pv * pv;
            if (epochs == 0) {
                ++st.censored;
            } else {
                const double t =
                    static_cast<double>(epochs) * c.epochSec;
                st.sumT += t;
                st.sumSqT += t * t;
            }
        } else {
            // Deep tail.  Time: stratified inverse-CDF geometric —
            // trial j of n maps u = (j + xi) / n through the
            // geometric quantile, unbiased for any n.
            const double u = (static_cast<double>(j) +
                              rng.nextDouble()) /
                             static_cast<double>(trials);
            const double denom = std::log1p(-c.pEpoch);
            double epochs =
                denom < 0.0 ? std::ceil(std::log1p(-u) / denom) : 1.0;
            if (!(epochs >= 1.0))
                epochs = 1.0;
            const double t = epochs * c.epochSec;
            st.sumT += t;
            st.sumSqT += t * t;
            // pEpoch: importance sampling.  Draw the epoch count
            // from the Geometric(kProposalP) proposal; the
            // likelihood-weighted first-epoch indicator
            // w(1) * 1{E == 1} with w(1) = pEpoch / kProposalP has
            // mean pEpoch and relative stddev ~1 per trial at any
            // pEpoch, so 10^-9 probabilities resolve in O(1/eps^2)
            // trials instead of O(1/p).
            const std::uint64_t proposal =
                rng.nextGeometric(kProposalP);
            const double w =
                proposal == 1 ? c.pEpoch / kProposalP : 0.0;
            st.sumP += w;
            st.sumSqP += w * w;
        }
    }
    parts_[s] = st;
}

MonteCarloResult
StratifiedCampaign::result() const
{
    MonteCarloResult out;
    if (!spec_.feasible) {
        out.iterations = iterations_;
        return out;
    }
    if (spec_.instant)
        return instantResult(spec_.epochSec, iterations_);
    out.feasible = true;
    out.strata = parts_.size();
    // Strict stratum order: double addition is not associative, and
    // the bitwise serial == parallel contract hangs on this fold.
    for (const StratumStats &st : parts_) {
        out.iterations += st.n;
        out.censored += st.censored;
        out.sumTimeSec += st.sumT;
        out.sumSqTimeSec += st.sumSqT;
        out.sumPBreak += st.sumP;
        out.sumSqPBreak += st.sumSqP;
    }
    finalize(spec_.epochSec, out);
    return out;
}

std::uint64_t
StratifiedCampaign::shardSeed(std::uint64_t base, std::size_t shard)
{
    if (shard == 0)
        return base;
    return splitmix64(base ^ splitmix64(shard));
}

} // namespace srs
