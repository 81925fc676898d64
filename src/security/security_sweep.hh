/**
 * @file
 * Security-figure sweep engine: the analytic/Monte-Carlo attack
 * models on the same (axes, trh, rate) grid as the performance
 * sweeps.
 *
 * Each SecurityCell names a machine variant (SystemAxes — page
 * policy, DRAM preset, organization, timing overrides), a defense
 * (SRS or RRS), a Row Hammer threshold, a swap rate and — for RRS —
 * a biasing-round count N (or "best", the attacker-optimal N).  The
 * cell's AttackParams are derived from the axes via
 * attackParamsFromAxes(), so the security figures and the
 * performance figures share one definition of what e.g. "DDR5"
 * means; no bench hand-rolls epochSec any more.
 *
 * Results go into the shared schema-v6 sweep CSV (25 columns,
 * docs/sweep-format.md): the identity prefix carries the attack
 * label (`attack:srs`, `attack:rrs@n=800`, `attack:rrs@best`) in the
 * workload_spec column, `-` as the tracker, and the payload columns
 * are reinterpreted — ipc = Monte-Carlo mean time-to-break (s),
 * baseline_ipc = analytic time-to-break (s), normalized = their
 * ratio, swaps = k, unswap_swaps = G, place_backs = N; the v6
 * columns carry the campaign's iteration/censored counts and the
 * p_break estimate with its 95% confidence interval.
 *
 * Scheduling: one pool job per cell evaluates the analytic model
 * and builds the cell's StratifiedCampaign; then every (cell,
 * stratum) pair runs as its own pool job, so a grid whose cost sits
 * in fewer cells than there are threads (Fig. 6's rounds axis)
 * still uses every worker.
 *
 * Determinism: per-cell seeds are SweepRunner::cellSeed over a
 * canonical cell key, each campaign's fixed strata write
 * pre-assigned slots and are folded in stratum order, and cells
 * land in pre-assigned slots, so every result equals the serial
 * MonteCarloAttack of its cell bit for bit and CSV output is
 * byte-identical at any thread count.
 */

#ifndef SRS_SECURITY_SECURITY_SWEEP_HH
#define SRS_SECURITY_SECURITY_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "security/attack_model.hh"
#include "security/monte_carlo.hh"
#include "sim/workload_spec.hh"

namespace srs
{

/** Which mitigation the modeled attack runs against. */
enum class SecurityDefense
{
    Srs, ///< (Scale-)SRS: random guessing only (evaluateSrs)
    Rrs, ///< RRS under Juggernaut biasing (evaluateRrs/bestRrs)
};

/** @return printable defense name ("srs" / "rrs"). */
const char *securityDefenseName(SecurityDefense defense);

/** Inverse of securityDefenseName(); fatal() on anything else. */
SecurityDefense securityDefenseFromName(const std::string &name);

/** One security experiment point. */
struct SecurityCell
{
    SystemAxes axes;
    SecurityDefense defense = SecurityDefense::Srs;
    std::uint32_t trh = 4800;
    std::uint32_t swapRate = 6;
    /** RRS biasing rounds N; ignored for SRS. */
    std::uint64_t rounds = 0;
    /** True: use the attacker-optimal N (bestRrs) instead. */
    bool bestRounds = false;

    /**
     * Attack label for the CSV workload_spec column:
     * `attack:srs`, `attack:rrs@n=<N>` or `attack:rrs@best`.
     */
    std::string label() const;
};

/**
 * Cross-product security-sweep description.  expand() enumerates
 * cells with the system axes outermost (the same policy -> preset ->
 * org -> timing-knob order as SweepGrid), then defenses, trhs,
 * swapRates, and the RRS rounds axis innermost (SRS cells ignore it
 * and appear once per (axes, trh, rate)).  Invalid combinations
 * (swap rate < 2, T_S rounding to zero) are fatal() at expansion,
 * before any campaign starts.
 */
struct SecurityGrid
{
    /** Attacker-optimal rounds sentinel for the rounds axis. */
    static constexpr std::uint64_t kBestRounds = ~0ULL;

    std::vector<PagePolicy> pagePolicies = {PagePolicy::Closed};
    std::vector<DramPreset> presets = {DramPreset::Ddr4};
    std::vector<std::string> orgs = {"2x1x16"};
    std::vector<std::uint32_t> tRcOverrides = {0};
    std::vector<std::uint32_t> tRcdOverrides = {0};
    std::vector<std::uint32_t> tRpOverrides = {0};
    std::vector<std::uint32_t> tRefiOverrides = {0};
    std::vector<std::uint32_t> tRfcOverrides = {0};
    std::vector<SecurityDefense> defenses;
    std::vector<std::uint32_t> trhs;
    std::vector<std::uint32_t> swapRates;
    /** RRS rounds axis (kBestRounds = attacker-optimal N). */
    std::vector<std::uint64_t> rounds = {kBestRounds};

    /** The system-axes axis, exactly as SweepGrid::axes(). */
    std::vector<SystemAxes> axes() const;

    std::vector<SecurityCell> expand() const;
};

/** Result of one security cell, in input order. */
struct SecurityResult
{
    SecurityCell cell;
    /** Campaign seed actually used (SecuritySweep::cellSeed). */
    std::uint64_t seed = 0;
    /** Analytic evaluation at the cell's (resolved) rounds. */
    AttackResult analytic;
    /** Monte-Carlo campaign; iterations == 0 when analytic-only. */
    MonteCarloResult mc;
};

/** Thread-pool-backed security-sweep executor. */
class SecuritySweep
{
  public:
    /**
     * @param baseSeed campaign base seed; per-cell seeds derive
     *                 from it via cellSeed()
     * @param threads  worker count; 0 picks hardware concurrency.
     *                 Changing it never changes results.
     */
    explicit SecuritySweep(std::uint64_t baseSeed,
                           std::size_t threads = 0);

    /** Monte-Carlo trials per cell; 0 (default) = analytic only. */
    void setIterations(std::uint64_t iterations);

    /** As MonteCarloAttack::runRrs epochLoopLimit (default 1e5). */
    void setEpochLoopLimit(std::uint64_t limit);

    /** Run every cell; results in cell order. */
    std::vector<SecurityResult>
    run(const std::vector<SecurityCell> &cells);

    /** Convenience: expand + run. */
    std::vector<SecurityResult> run(const SecurityGrid &grid);

    std::size_t threadCount() const;

    /**
     * Campaign seed for one cell: SweepRunner::cellSeed over the
     * canonical key `<label>,<trh>,<rate>,<axes field>` — a pure
     * function of the cell identity, independent of grid position.
     */
    static std::uint64_t cellSeed(std::uint64_t base,
                                  const SecurityCell &cell);

    /**
     * One schema-v6 CSV data row (no trailing newline) for result
     * @p r at cell index @p index — same 25-column shape as
     * SweepRunner::formatRow (see the file comment for the payload
     * reinterpretation).
     */
    static std::string formatRow(std::size_t index,
                                 const SecurityResult &r);

    /** Shared v6 header + one line per result (stable formatting). */
    static void writeCsv(std::ostream &os,
                         const std::vector<SecurityResult> &results);

  private:
    std::uint64_t seed_;
    std::uint64_t iterations_ = 0;
    std::uint64_t epochLoopLimit_ = 100000;
    ThreadPool pool_;
};

} // namespace srs

#endif // SRS_SECURITY_SECURITY_SWEEP_HH
