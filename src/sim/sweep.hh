/**
 * @file
 * Multi-threaded experiment-sweep engine.
 *
 * The multi-configuration experiments all share one shape: run a
 * grid of independent single-threaded simulation cells and normalize
 * each against the unprotected baseline of the same workload, system
 * axes and trace seed.  SweepRunner fans that grid across a
 * ThreadPool:
 *
 *  - one baseline run per distinct (workload, system-axes) pair
 *    (phase 1), then one run per cell (phase 2), all pool-parallel;
 *  - deterministic per-cell RNG seeding: the trace seed is a pure
 *    function of (base seed, workload label), so a cell's result
 *    does not depend on thread count or completion order, and
 *    protected runs replay the exact trace of their baseline;
 *  - results land in pre-assigned slots and are reported in cell
 *    order, so CSV output is byte-identical for threads=1 and
 *    threads=N;
 *  - a cell's WorkloadSpec selects what drives the cores: a
 *    synthetic rate-mode profile, a per-core MIX profile list
 *    (runWorkloadMix), recorded USIMM trace file(s)
 *    (runWorkloadTrace) — each distinct trace file is parsed once
 *    and shared across every cell and core that replays it — or a
 *    generator-backed Zipf/hotspot/blend spec
 *    (runWorkloadGenerator);
 *  - a cell's SystemAxes select which machine variant it runs on
 *    (page policy, DRAM timing overrides), applied to the protected
 *    run and its baseline alike;
 *  - completed cells are appended (one flushed line each) to an
 *    optional sidecar journal — opened with a schema/grid-identity
 *    header comment (journalHeader()) so supervisors can match a
 *    journal to its producer — and a previous journal or truncated
 *    CSV can be fed back via setResume() to skip already-computed
 *    cells — the resumed output is byte-identical to an
 *    uninterrupted run (docs/sweep-format.md has the file formats,
 *    schema v8, whose CSV columns are v6's — the
 *    `p50_lat,p99_lat,p999_lat` tail-latency
 *    columns landed with the generator workloads, `lat_samples`
 *    with the DRAM-organization axis, and the
 *    `iterations,censored,p_break,ci_lo,ci_hi` Monte-Carlo
 *    confidence columns with the security sweep; performance cells
 *    write zeros there, security cells (security/security_sweep.hh)
 *    fill them in).
 */

#ifndef SRS_SIM_SWEEP_HH
#define SRS_SIM_SWEEP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/workload_spec.hh"

namespace srs
{

/**
 * One experiment point of a sweep: which workload (WorkloadSpec),
 * on which machine variant (SystemAxes), under which defense
 * configuration.  Cells with the same workload label must carry the
 * same spec — the label keys the cell's trace seed and its shared
 * baseline.
 */
struct SweepCell
{
    WorkloadSpec workload;
    SystemAxes axes;
    MitigationKind mitigation = MitigationKind::ScaleSrs;
    std::uint32_t trh = 1200;
    std::uint32_t swapRate = 3;
    TrackerKind tracker = TrackerKind::MisraGries;
};

/**
 * Cross-product sweep description.  expand() enumerates cells in
 * row-major order: workloads outermost, then the system axes (in
 * SystemAxesGrid::axes() order), then mitigations, then trhs, then
 * swapRates innermost.  The workloads are the one outer axis: a MIX
 * point is the workload spec `mix<N>` like any other, so a shard is
 * a contiguous slice of this list.
 */
struct SweepGrid : SystemAxesGrid
{
    std::vector<WorkloadSpec> workloads;
    std::vector<MitigationKind> mitigations;
    std::vector<std::uint32_t> trhs;
    std::vector<std::uint32_t> swapRates;
    TrackerKind tracker = TrackerKind::MisraGries;

    /** Cells per workload: axes x mitigations x trhs x swapRates. */
    std::size_t innerCells() const;

    std::vector<SweepCell> expand() const;
};

/** Result of one sweep cell, in input order. */
struct SweepResult
{
    SweepCell cell;
    /** Trace seed actually used (derived, see SweepRunner::cellSeed). */
    std::uint64_t seed = 0;
    RunResult run;
    /** Unprotected IPC of the same workload, axes and seed. */
    double baselineIpc = 0.0;
    /** run.aggregateIpc / baselineIpc (1.0 when baseline is zero). */
    double normalized = 1.0;
    /**
     * Verbatim CSV row recovered from a resume file; when non-empty
     * the cell was not re-simulated and writeCsv() re-emits this
     * exact line (guaranteeing byte-identity).  The numeric fields
     * above are parsed back from it best-effort.
     */
    std::string resumedRow;
};

/** Thread-pool-backed sweep executor. */
class SweepRunner
{
  public:
    /**
     * @param exp      shared experiment knobs (cycles, epoch, cores,
     *                 base seed); per-cell seeds are derived from
     *                 exp.seed.
     * @param threads  worker count; 0 picks hardware concurrency.
     */
    SweepRunner(const ExperimentConfig &exp, std::size_t threads);

    /**
     * Append each completed cell's CSV row to @p path, one flushed
     * line per cell in completion order.  The file is truncated at
     * the start of run() (resumed cells are re-recorded first, so
     * the journal is always a self-contained checkpoint).  An empty
     * path disables journaling.
     */
    void setJournal(const std::string &path);

    /**
     * Before running, load completed rows from @p path — a sweep
     * CSV (possibly truncated mid-file) or a journal — and skip
     * re-simulating those cells.  Every complete line must pass
     * checkLine() (a `#` line: checkJournalHeader()), and every row
     * must match its cell's identity (workload spec, mitigation,
     * tracker, trh, rate, axes, seed); anything else is fatal().  A
     * torn final line is ignored and its cell recomputed.  An empty
     * path disables resuming.
     */
    void setResume(const std::string &path);

    /**
     * Run every cell (plus one baseline per distinct
     * (workload, axes) pair that still has pending cells) and
     * return results in cell order.  fatal()s on unknown workload
     * names, unreadable trace files, inconsistent labels, or a
     * mismatched resume file before any simulation starts.
     */
    std::vector<SweepResult> run(const std::vector<SweepCell> &cells);

    /** Convenience: expand + run. */
    std::vector<SweepResult> run(const SweepGrid &grid);

    std::size_t threadCount() const;

    /**
     * Trace seed for one cell: splitmix64 over the base seed and an
     * FNV-1a hash of the workload label.  Keyed by workload only on
     * purpose — every mitigation and every system-axes variant
     * replays the identical trace, keeping normalization an
     * apples-to-apples comparison.
     */
    static std::uint64_t cellSeed(std::uint64_t base,
                                  const std::string &workloadLabel);

    /** Write header + one line per result (stable formatting). */
    static void writeCsv(std::ostream &os,
                         const std::vector<SweepResult> &results);

    /**
     * One CSV data row (no trailing newline) for result @p r at cell
     * index @p index — the exact bytes writeCsv() and the journal
     * emit.
     */
    static std::string formatRow(std::size_t index,
                                 const SweepResult &r);

    /**
     * The first eight columns of a row ("index,workload_spec,
     * mitigation,tracker,trh,rate,axes,seed," — comma-terminated):
     * the cell identity a resume row or a shard row must reproduce
     * byte for byte.  Resume validation and the shard-merge tool
     * (sim/orchestrator.hh) both compare against these exact bytes.
     */
    static std::string identityPrefix(std::size_t index,
                                      const SweepCell &cell,
                                      std::uint64_t seed);

    /**
     * The same eight columns from their parts: the one place they
     * are spelled.  The cell overload above and the security sweep's
     * rows (attack label, defense, `-` tracker) both call it.
     */
    static std::string identityPrefix(std::size_t index,
                                      const std::string &label,
                                      const std::string &mitigation,
                                      const std::string &tracker,
                                      std::uint32_t trh,
                                      std::uint32_t rate,
                                      const SystemAxes &axes,
                                      std::uint64_t seed);

    /** The CSV header line writeCsv() emits (no trailing newline). */
    static const char *csvHeader();

    /** Total fields of one schema-v6 CSV data row. */
    static constexpr std::size_t kRowColumns = 25;

    /**
     * The schema version this build writes and reads: of the sweep
     * CSV, the journal header and the shard manifest alike.  Versions
     * 7 and 8 changed only the manifest, so their CSV header and rows
     * are v6's and a v6 or v7 CSV still resumes and merges.
     */
    static constexpr std::uint64_t kSchemaVersion = 8;

    /**
     * The schema rule for one complete, non-comment line of a sweep
     * CSV, journal or shard CSV: it is csvHeader(), or a row of
     * kRowColumns non-empty fields whose first is a decimal index.
     * @return "" when it is, else "expected sweep CSV schema v8,
     *         found: <line>".
     */
    static std::string checkLine(const std::string &line);

    /**
     * The resume rule for one row (a complete line other than a `#`
     * comment or csvHeader()) of a journal, sweep CSV or shard CSV
     * of the grid @p cells under @p baseSeed: checkLine(), an index
     * inside the grid, and the identity prefix of the cell at that
     * index.  Resume, the shard merge and the journal scan of
     * `srs_sim monitor` all hold their rows to it.
     * @return "" when the row passes (@p index then names its cell),
     *         else the reason, quoting the row.
     */
    static std::string checkRow(const std::string &line,
                                const std::vector<SweepCell> &cells,
                                std::uint64_t baseSeed,
                                std::size_t &index);

    /**
     * The schema rule for a `#` comment line of a journal whose
     * reader expects the header @p expected (journalHeader() of its
     * grid).  Comments without the journal-header tag pass; a tagged
     * line must equal @p expected, so its schema, cell count, grid
     * digest and seed all match.
     * @return "" when the line passes, else the schema message of
     *         checkLine() (another schema, or a mangled header) or a
     *         "different grid" message quoting both headers.
     */
    static std::string checkJournalHeader(const std::string &line,
                                          const std::string &expected);

    /**
     * FNV-1a digest over every cell's identity prefix — a compact
     * fingerprint of "this exact grid under this base seed".  Any
     * change that would alter any row's identity bytes (workload
     * list, axes, mitigation/trh/rate lists, base seed, cell order)
     * changes the digest, and a shard slice digests differently from
     * the full grid (the prefix embeds the slice-local index), so a
     * journal can be matched to its exact producer by name.
     */
    static std::uint64_t gridDigest(const std::vector<SweepCell> &cells,
                                    std::uint64_t baseSeed);

    /**
     * The comment line a checkpoint journal starts with:
     * `# srs_sim sweep journal schema=8 cells=<N> grid=0x<digest>
     * seed=0x<seed>` (no trailing newline; digest = gridDigest()).
     * Resume and the fleet monitor hold it to checkJournalHeader();
     * headerless journals stay accepted (docs/sweep-format.md).
     */
    static std::string
    journalHeader(const std::vector<SweepCell> &cells,
                  std::uint64_t baseSeed);

  private:
    void loadResume(const std::vector<SweepCell> &cells,
                    std::vector<SweepResult> &results,
                    std::vector<char> &done) const;

    ExperimentConfig exp_;
    std::size_t threads_;
    std::string journalPath_;
    std::string resumePath_;
};

/**
 * Read the grid keys — `workloads`, `mitigations`, the eight
 * system-axes lists (SystemAxesGrid::readLists), `trh`, `rates`,
 * `tracker`, `cycles`, `epoch` and `seed` — from @p opts into the
 * default-constructed @p grid and @p exp: the `sweep` flags and the
 * shard manifest's keys alike.  A key not given takes the `sweep`
 * default (gcc, scale-srs, 1200, 3, misra-gries, 1500000 cycles, an
 * epoch of half the cycles, exp's seed).  fatal() on a malformed
 * value, naming the key as @p opts names it (Options::name()).
 */
void readGridKeys(const Options &opts, SweepGrid &grid,
                  ExperimentConfig &exp);

/**
 * Every grid key and its spelling for @p grid and @p exp, in the
 * order readGridKeys() lists them: what it reads back.  The shard
 * manifest writes them as `key=value` lines and a shard's command
 * line as `--key=value` flags.
 */
std::vector<std::pair<std::string, std::string>>
spellGridKeys(const SweepGrid &grid, const ExperimentConfig &exp);

/** Canonical spellings of @p specs (joinList of labels). */
std::string joinSpecList(const std::vector<WorkloadSpec> &specs);

/**
 * Parse a comma-separated list of workload-spec spellings (see
 * WorkloadSpec::parse); an empty string yields no specs.
 */
std::vector<WorkloadSpec> splitSpecList(const std::string &value,
                                        std::uint32_t cores);

/** Parse a mitigation name (same spellings the CLI accepts). */
MitigationKind mitigationKindFromName(const std::string &name);

/** Parse a tracker name; fatal() when unknown. */
TrackerKind trackerKindFromName(const std::string &name);

/** @return printable tracker name (round-trips with FromName). */
const char *trackerKindName(TrackerKind kind);

} // namespace srs

#endif // SRS_SIM_SWEEP_HH
