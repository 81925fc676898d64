/**
 * @file
 * Event-driven Monte-Carlo validation of the analytical attack model
 * (the "bins and buckets" simulation of the paper's artifact,
 * validating Figure 6), at production confidence.
 *
 * Each trial simulates refresh epochs: per epoch the attacker makes
 * G random guesses and the number landing on the aggressor's original
 * location is drawn from Binomial(G, 1/R); the attack succeeds in the
 * first epoch with >= k landings.  The campaign settles that
 * distribution once, in a BinomialSampler (common/rng.hh): with
 * R = 131072 rows nearly every epoch lands no guess, and such an epoch
 * costs one Rng::next() and one integer compare.  The sampler draws
 * exactly what Rng::nextBinomial(G, 1/R) would, raw value for raw
 * value.  Trials still unbroken after the epoch safety valve's
 * epochs are *censored*: they are counted
 * (MonteCarloResult::censored) and excluded from the time statistics
 * instead of being booked as a break at the cap, and a censored
 * fraction above 5% marks the estimate unreliable.
 *
 * For success probabilities too small to iterate epoch-by-epoch two
 * estimators take over: the trial's epoch count is drawn from the
 * exact geometric distribution by stratified inverse-CDF sampling
 * (trial j of n maps u = (j + xi) / n through the geometric
 * quantile function — unbiased for any n, with strongly reduced
 * variance), and the per-epoch break probability is estimated by
 * importance sampling with a Geometric(1/2) proposal and likelihood
 * weighting, so p_break values in the 10^-6..10^-9 range carry a
 * ~1/sqrt(N) *relative* error instead of needing ~1/p trials.
 *
 * Determinism contract: a campaign of N trials is always split into
 * S = min(N, 16) fixed *strata*; stratum s runs its share on an Rng
 * seeded with StratifiedCampaign::shardSeed(seed, s), and the exact
 * per-stratum sums are folded in stratum order.  The result is a
 * pure function of (params, seed, iterations, epochLoopLimit,
 * valve).  StratifiedCampaign is the one place that splits, samples
 * and folds; MonteCarloAttack runs its strata in a loop, and
 * SecuritySweep (security/security_sweep.hh) hands each stratum to a
 * ThreadPool as its own job, so its results are bit-identical to the
 * serial MonteCarloAttack at *any* thread count.
 */

#ifndef SRS_SECURITY_MONTE_CARLO_HH
#define SRS_SECURITY_MONTE_CARLO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "security/attack_model.hh"

namespace srs
{

/** Aggregate outcome of a Monte-Carlo campaign. */
struct MonteCarloResult
{
    /** Total independent trials, censored ones included. */
    std::uint64_t iterations = 0;
    /** Trials cut off by the epoch safety valve (not broken). */
    std::uint64_t censored = 0;
    /** Mean refresh epochs until the first successful epoch. */
    double meanEpochs = 0.0;
    /** Mean attack time over the *uncensored* trials. */
    double meanTimeSec = 0.0;
    /** Unbiased (n-1) sample stddev of the per-trial attack time. */
    double stddevTimeSec = 0.0;
    /** 95% confidence interval on meanTimeSec. */
    double timeCiLoSec = 0.0;
    double timeCiHiSec = 0.0;
    /** Estimated per-epoch break probability (importance-sampled in
     *  the deep tail, first-epoch indicator otherwise). */
    double pBreak = 0.0;
    /** 95% confidence interval on pBreak, clamped to [0, 1]. */
    double pBreakCiLo = 0.0;
    double pBreakCiHi = 0.0;
    /** Exact running sums behind the statistics — carried so the
     *  strata fold losslessly instead of reconstructing them from
     *  rounded means. */
    double sumTimeSec = 0.0;   ///< sum of t over uncensored trials
    double sumSqTimeSec = 0.0; ///< sum of t^2 over uncensored trials
    double sumPBreak = 0.0;    ///< sum of per-trial p estimates
    double sumSqPBreak = 0.0;  ///< sum of their squares
    /** Strata actually sampled: min(iterations, 16), or 0 when the
     *  result is exact without sampling (infeasible, or k == 0). */
    std::uint64_t strata = 0;
    /** False when the analytic model says the attack cannot land. */
    bool feasible = false;
    /** False when no uncensored trial exists or more than 5% of the
     *  trials were censored — the time estimate is then biased. */
    bool reliable = false;
};

/** Single-threaded Monte-Carlo attack simulator. */
class MonteCarloAttack
{
  public:
    /** Strata per campaign: S = min(iterations, kStrata). */
    static constexpr std::size_t kStrata = 16;

    /**
     * @param params attack/system parameters (also fed to the
     *               analytical JuggernautModel that derives G and k)
     * @param seed   RNG seed; equal seeds replay equal campaigns
     *               (runs do not perturb each other — every run
     *               re-derives its stratum Rngs from the seed)
     */
    MonteCarloAttack(const AttackParams &params, std::uint64_t seed);

    /**
     * Override the epoch safety valve: a trial still unbroken after
     * this many epochs is recorded as censored.  0 (the default)
     * derives the valve as 100 * epochLoopLimit.
     */
    void setEpochValve(std::uint64_t maxEpochs);

    /**
     * Simulate the Juggernaut attack on RRS with N biasing rounds.
     * @param rounds biasing rounds N (see JuggernautModel)
     * @param iterations number of independent trials
     * @param epochLoopLimit trials iterate epoch-by-epoch while the
     *        per-epoch success probability exceeds 1/epochLoopLimit
     * @return aggregate statistics over the trials
     */
    MonteCarloResult runRrs(std::uint64_t rounds,
                            std::uint64_t iterations,
                            std::uint64_t epochLoopLimit = 100000);

    /**
     * Simulate the random-guess attack on SRS (no latent rounds).
     * @param iterations number of independent trials
     * @return aggregate statistics over the trials
     */
    MonteCarloResult runSrs(std::uint64_t iterations);

    /**
     * Run a campaign against a precomputed analytic evaluation —
     * the workhorse behind runRrs/runSrs, public so bestRrs-style
     * callers reuse one code path.  An infeasible @p analytic
     * returns an infeasible result regardless of its k.
     */
    MonteCarloResult run(const AttackResult &analytic,
                         std::uint64_t iterations,
                         std::uint64_t epochLoopLimit);

  private:
    AttackParams params_;
    JuggernautModel model_;
    std::uint64_t seed_;
    std::uint64_t valveOverride_ = 0;
};

/**
 * One Monte-Carlo campaign cut into its fixed strata — the unit of
 * work a thread pool schedules.
 *
 * Built once from the analytic evaluation, it reports how many
 * strata need sampling, samples stratum s on shardSeed(seed, s)
 * with N / S trials (one more for the first N % S strata), and
 * folds the exact per-stratum sums in stratum order, so the result
 * never depends on which thread ran which stratum, or when.
 * Distinct strata may run concurrently — each writes only its own
 * slot — and result() must follow every runStratum().
 */
class StratifiedCampaign
{
  public:
    /**
     * @param params         attack/system parameters
     * @param analytic       the evaluation to sample (its G and k)
     * @param seed           campaign seed; stratum 0 uses it as is
     * @param iterations     total trials N across all strata
     * @param epochLoopLimit as MonteCarloAttack::runRrs
     * @param valve          as MonteCarloAttack::setEpochValve
     *                       (0 derives 100 * epochLoopLimit)
     */
    StratifiedCampaign(const AttackParams &params,
                       const AttackResult &analytic,
                       std::uint64_t seed, std::uint64_t iterations,
                       std::uint64_t epochLoopLimit,
                       std::uint64_t valve = 0);

    /** Pool jobs hold the campaign by reference while strata run. */
    StratifiedCampaign(const StratifiedCampaign &) = delete;
    StratifiedCampaign &operator=(const StratifiedCampaign &) = delete;

    /** Strata to sample: min(N, kStrata), or 0 when the result is
     *  exact without sampling (infeasible, k == 0, or N == 0). */
    std::size_t strata() const { return parts_.size(); }

    /** Sample stratum @p s < strata() into its slot. */
    void runStratum(std::size_t s);

    /** The campaign's statistics: its strata folded in order. */
    MonteCarloResult result() const;

    /**
     * Seed of stratum @p shard: the base seed itself for stratum 0
     * (so a one-stratum campaign replays a plain serial Rng stream
     * bit-for-bit), splitmix64-derived for the rest.
     */
    static std::uint64_t shardSeed(std::uint64_t base,
                                   std::size_t shard);

  private:
    /** Everything a stratum needs, precomputed once per campaign. */
    struct Spec
    {
        bool feasible = false;
        bool instant = false; ///< k == 0: latent acts break epoch 1
        double epochSec = 0.0;
        double pEpoch = 0.0;  ///< exact per-epoch success probability
        std::uint64_t k = 0;  ///< required correct guesses
        /** Correct guesses per epoch: Binomial(G, 1/R). */
        BinomialSampler landings;
        bool iterate = false; ///< epoch-by-epoch vs geometric sampling
        std::uint64_t valve = 0; ///< censoring threshold in epochs
    };

    /** Exact per-stratum sums; folded in stratum order. */
    struct StratumStats
    {
        std::uint64_t n = 0;
        std::uint64_t censored = 0;
        double sumT = 0.0;
        double sumSqT = 0.0;
        double sumP = 0.0;
        double sumSqP = 0.0;
    };

    static Spec makeCampaign(const AttackParams &params,
                             const AttackResult &analytic,
                             std::uint64_t epochLoopLimit,
                             std::uint64_t valve);

    Spec spec_;
    std::uint64_t seed_;
    std::uint64_t iterations_;
    std::vector<StratumStats> parts_;
};

} // namespace srs

#endif // SRS_SECURITY_MONTE_CARLO_HH
