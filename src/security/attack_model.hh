/**
 * @file
 * Analytical model of the Juggernaut attack pattern — a direct
 * implementation of paper Section III-B (Equations 1-10) and the SRS
 * security analysis of Section IV-E (Equations 11-12).
 *
 * The same machinery covers:
 *  - Figure 1(a): the random-guess-only attack on RRS (N = 0);
 *  - Figure 6:    time-to-break RRS vs. attack rounds N;
 *  - Figure 7:    required correct guesses k vs. N;
 *  - Figure 10:   SRS vs. RRS across swap rates (RRS at optimal N);
 *  - Section III-C: the multi-bank attack degradation;
 *  - Section VIII-3/5: open-page and DDR5 (2x refresh) variants.
 */

#ifndef SRS_SECURITY_ATTACK_MODEL_HH
#define SRS_SECURITY_ATTACK_MODEL_HH

#include <cstdint>

#include "sim/workload_spec.hh"

namespace srs
{

/**
 * Open-page per-activation time factor, calibrated so the
 * Section VIII-3 anchor holds: Juggernaut vs RRS at T_RH 4800 and
 * swap rate 6 takes ~4 hours closed-page and ~10 days open-page.
 * (The interleaved second row is itself a useful aggressor, so the
 * effective cost is well below a full 2x tRC.)
 */
constexpr double kOpenPageActFactor = 1.35;

/** Parameters of Table II plus environment knobs. */
struct AttackParams
{
    std::uint32_t trh = 4800;         ///< Row Hammer threshold
    std::uint32_t swapRate = 6;       ///< T_RH / T_S
    std::uint64_t rowsPerBank = 131072;

    double tRcSec = 45e-9;            ///< row cycle time
    double tRfcSec = 350e-9;          ///< refresh command time
    std::uint64_t refreshOpsPerEpoch = 8192;
    double epochSec = 64e-3;          ///< refresh interval

    double tSwapSec = 2.7e-6;         ///< swap latency
    double tReswapSec = 5.4e-6;       ///< unswap-swap latency
    double latentPerRound = 1.5;      ///< L (paper footnote 2)

    /**
     * Per-activation time multiplier.  1.0 = closed page; under an
     * open-page controller the attacker must interleave a second
     * row to force each activation (Section VIII-3), costing extra
     * time per target ACT.  kOpenPageActFactor reproduces the
     * paper's anchor (4 hours -> ~10 days at T_RH 4800, rate 6).
     */
    double actTimeFactor = 1.0;

    std::uint32_t ts() const { return trh / swapRate; }
};

/**
 * Derive AttackParams from a performance-sweep SystemAxes identity.
 *
 * The security and performance figures share one definition of the
 * environment: the axes' effective DRAM timings (preset + overrides)
 * give the refresh epoch and the per-epoch refresh budget, scaled
 * from the paper's DDR4 anchors (tREFI 7800 ns -> 64 ms epochs with
 * 8192 refresh commands), tRC/tRFC give the activation and refresh
 * command times, and an open page policy applies
 * kOpenPageActFactor.  On the default ddr4 axes this returns exactly
 * the paper-default AttackParams; on `@ddr5` it reproduces the
 * Section VIII-5 environment (32 ms epochs, 4096 refresh ops).
 *
 * @param axes performance-cell axes (validated; overrides applied)
 * @param trh  Row Hammer threshold
 * @param rate swap rate (T_RH / T_S)
 */
AttackParams attackParamsFromAxes(const SystemAxes &axes,
                                  std::uint32_t trh,
                                  std::uint32_t rate);

/** Everything Equations 1-10 produce for one choice of N. */
struct AttackResult
{
    std::uint64_t rounds = 0;        ///< N
    double actAggr = 0.0;            ///< Eq. 1 (or Eq. 11 for SRS)
    double actLeft = 0.0;            ///< Eq. 2 / Eq. 12
    std::uint64_t k = 0;             ///< Eq. 3: required correct guesses
    double tActualSec = 0.0;         ///< Eq. 4
    double tAggrSec = 0.0;           ///< Eq. 5
    double tLeftSec = 0.0;           ///< Eq. 6
    double guesses = 0.0;            ///< Eq. 7: G
    double pSuccess = 0.0;           ///< Eq. 8 at k
    double expectedEpochs = 0.0;     ///< Eq. 9
    double timeToBreakSec = 0.0;     ///< Eq. 10
    bool feasible = false;           ///< N fits in the epoch, p > 0
};

/** The analytical attack model. */
class JuggernautModel
{
  public:
    explicit JuggernautModel(const AttackParams &params);

    /** Attack RRS with N biasing rounds (Eq. 1-10). */
    AttackResult evaluateRrs(std::uint64_t rounds) const;

    /**
     * Attack SRS: latent activations do not accumulate (Eq. 11-12),
     * so the optimal strategy is pure random guessing (N = 0).
     */
    AttackResult evaluateSrs() const;

    /** RRS at the attacker-optimal N in [0, maxRounds]. */
    AttackResult bestRrs(std::uint64_t maxRounds = 2000) const;

    /**
     * Multi-bank attack (Section III-C): hammering B banks serializes
     * biasing rounds and guesses across the shared command/data path,
     * dividing the per-bank time budget by B; success requires any
     * bank's target to break.
     */
    AttackResult evaluateRrsMultiBank(std::uint32_t banks,
                                      std::uint64_t maxRounds
                                      = 2000) const;

    const AttackParams &params() const { return params_; }

  private:
    AttackResult evaluate(std::uint64_t rounds, double latentPerRound,
                          double timeShare) const;

    AttackParams params_;
};

} // namespace srs

#endif // SRS_SECURITY_ATTACK_MODEL_HH
