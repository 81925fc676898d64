#include "security/attack_model.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

JuggernautModel::JuggernautModel(const AttackParams &params)
    : params_(params)
{
    if (params_.swapRate < 2)
        fatal("swap rate must be at least 2");
    if (params_.ts() == 0)
        fatal("T_S rounds to zero");
}

AttackResult
JuggernautModel::evaluate(std::uint64_t rounds, double latentPerRound,
                          double timeShare) const
{
    const double ts = params_.ts();
    const double tRc = params_.tRcSec * params_.actTimeFactor;
    AttackResult r;
    r.rounds = rounds;

    // Eq. 1 / Eq. 11: 2*T_S - 1 direct activations plus one latent
    // from the initial swap, plus L per unswap-swap round.
    r.actAggr = 2.0 * ts + latentPerRound * static_cast<double>(rounds);

    // Eq. 2 / Eq. 12.
    r.actLeft = static_cast<double>(params_.trh) - r.actAggr;

    // Eq. 3.
    r.k = r.actLeft <= 0.0
        ? 0
        : static_cast<std::uint64_t>(std::ceil(r.actLeft / ts));

    // Eq. 4: time usable by the attacker within one epoch.
    r.tActualSec = (params_.epochSec -
                    params_.tRfcSec *
                        static_cast<double>(params_.refreshOpsPerEpoch)) *
                   timeShare;

    // Eq. 5: biasing-round time.
    r.tAggrSec = ((ts - 1.0) * tRc + params_.tReswapSec) *
                 static_cast<double>(rounds);

    // Eq. 6: time left for random guessing.
    r.tLeftSec = r.tActualSec - r.tAggrSec -
                 (tRc * (2.0 * ts - 1.0) + params_.tSwapSec);

    if (r.tLeftSec <= 0.0)
        return r; // infeasible: rounds exceed the epoch

    // Eq. 7.
    r.guesses = r.tLeftSec / (tRc * (ts - 1.0) + params_.tSwapSec);

    // Eq. 8: the probability that exactly k of G uniform guesses land
    // on the aggressor's original location.
    const double pRow = 1.0 / static_cast<double>(params_.rowsPerBank);
    const auto g = static_cast<std::uint64_t>(r.guesses);
    if (r.k == 0) {
        r.pSuccess = 1.0; // latent activations alone cross T_RH
    } else if (r.k > g) {
        r.pSuccess = 0.0;
    } else {
        r.pSuccess = binomialPmf(g, r.k, pRow);
    }

    if (r.pSuccess <= 0.0)
        return r;

    // Eq. 9-10.
    r.expectedEpochs = 1.0 / r.pSuccess;
    r.timeToBreakSec = params_.epochSec * r.expectedEpochs;
    r.feasible = true;
    return r;
}

AttackResult
JuggernautModel::evaluateRrs(std::uint64_t rounds) const
{
    return evaluate(rounds, params_.latentPerRound, 1.0);
}

AttackResult
JuggernautModel::evaluateSrs() const
{
    // Swap-only indirection: unswap-swap rounds deposit nothing, so
    // the attacker skips phase one entirely (Section IV-E).
    return evaluate(0, 0.0, 1.0);
}

AttackResult
JuggernautModel::bestRrs(std::uint64_t maxRounds) const
{
    AttackResult best;
    best.timeToBreakSec = std::numeric_limits<double>::infinity();
    for (std::uint64_t n = 0; n <= maxRounds; n += 1) {
        const AttackResult r = evaluateRrs(n);
        if (r.feasible && r.timeToBreakSec < best.timeToBreakSec)
            best = r;
    }
    return best;
}

AttackResult
JuggernautModel::evaluateRrsMultiBank(std::uint32_t banks,
                                      std::uint64_t maxRounds) const
{
    SRS_ASSERT(banks >= 1, "need at least one bank");
    AttackResult best;
    best.timeToBreakSec = std::numeric_limits<double>::infinity();
    for (std::uint64_t n = 0; n <= maxRounds; ++n) {
        // Each bank only gets 1/banks of the attacker's time.
        AttackResult r =
            evaluate(n, params_.latentPerRound,
                     1.0 / static_cast<double>(banks));
        if (!r.feasible)
            continue;
        // Success when any of the `banks` independent targets breaks.
        const double pAny =
            1.0 - std::pow(1.0 - r.pSuccess, static_cast<double>(banks));
        if (pAny <= 0.0)
            continue;
        r.pSuccess = pAny;
        r.expectedEpochs = 1.0 / pAny;
        r.timeToBreakSec = params_.epochSec * r.expectedEpochs;
        if (r.timeToBreakSec < best.timeToBreakSec)
            best = r;
    }
    return best;
}

AttackParams
attackParamsFromAxes(const SystemAxes &axes, std::uint32_t trh,
                     std::uint32_t rate)
{
    axes.validate();
    const DramTimingNs eff = axes.effectiveTimingNs();
    const DramTimingNs ddr4 = DramTimingNs::preset(DramPreset::Ddr4);
    // The paper's DDR4 anchor: tREFI 7800 ns <=> a 64 ms refresh
    // epoch holding 8192 refresh commands.  Halving tREFI (DDR5)
    // halves both; a relaxed @trefi override stretches both.
    const double refiRatio = eff.tREFI / ddr4.tREFI;
    AttackParams p;
    p.trh = trh;
    p.swapRate = rate;
    // Rows-per-bank is not a swept axis (see SystemAxes): every org
    // keeps the Table III row count, same as the performance cells.
    p.rowsPerBank = DramOrg{}.rowsPerBank;
    p.epochSec *= refiRatio;
    p.refreshOpsPerEpoch = static_cast<std::uint64_t>(
        static_cast<double>(p.refreshOpsPerEpoch) * refiRatio);
    p.tRcSec = eff.tRC * 1e-9;
    p.tRfcSec = eff.tRFC * 1e-9;
    if (axes.pagePolicy == PagePolicy::Open)
        p.actTimeFactor = kOpenPageActFactor;
    return p;
}

} // namespace srs
