/**
 * @file
 * Multi-process sweep orchestration: shard planning, the shard
 * manifest, byte-exact CSV stitching, and the local orchestrator.
 *
 * SweepRunner (sim/sweep.hh) scales a grid across the threads of one
 * process; this layer scales it across *processes* — on one machine
 * (`srs_sim orchestrate`) or many (`srs_sim sweep` per shard plus
 * `srs_sim merge`) — without giving up the engine's byte-identity
 * guarantee.  The pieces:
 *
 *  - planShards() splits a SweepGrid's workload list into balanced,
 *    contiguous slices, one shard grid each.  A MIX point is the
 *    workload spec `mix<N>` like any other, so paper-scale MIX
 *    campaigns shard too.
 *  - ShardManifest is the on-disk contract between the splitter, the
 *    shard runs, and the merge: the full grid and the experiment
 *    knobs (cycles/epoch/seed) under the `sweep` flags' names
 *    (readGridKeys/spellGridKeys in sim/sweep.hh), and each shard's
 *    workload slice and CSV path; the slices fix each shard's global
 *    index offset and cell count.  Every shard row's identity prefix
 *    is recomputable from it, which is what lets the merge reject
 *    foreign or torn shards byte-exactly (docs/sweep-format.md specs
 *    the file format).
 *  - mergeShards() validates every shard CSV against the manifest
 *    (header, row count, newline termination, per-row identity
 *    prefix) and stitches them into one global CSV, renumbering the
 *    per-shard indices — the output is byte-identical to a
 *    single-process `srs_sim sweep` of the full grid.
 *  - Orchestrator, the one shard supervisor, runs the shards as
 *    child processes on this machine, at most `jobs` at a time.  It
 *    restarts crashed or killed shards from their checkpoint
 *    journals (the engine's --resume machinery) and merges on
 *    completion; `srs_sim monitor` reports their progress from the
 *    same journals (sim/progress.hh).  Re-running a killed
 *    orchestration resumes every partial shard instead of starting
 *    over.  Shards for other machines come from its plan
 *    (writePlan()): any scheduler runs the printed commands, and
 *    mergeShards() stitches what they wrote.
 */

#ifndef SRS_SIM_ORCHESTRATOR_HH
#define SRS_SIM_ORCHESTRATOR_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace srs
{

/** One shard of an orchestrated sweep: a contiguous grid slice. */
struct ShardSpec
{
    /**
     * The shard's own sweep grid: a contiguous slice of the full
     * grid's workloads crossed with the same inner axes.  Running it
     * with `srs_sim sweep` reproduces the full grid's rows for those
     * workloads exactly — per-cell seeds depend only on the workload
     * label, never on the surrounding grid.
     */
    SweepGrid grid;
    /** Global cell index of this shard's first cell (derived). */
    std::size_t offset = 0;
    /** Expanded cell count of this shard's grid (derived). */
    std::size_t cells = 0;
    /**
     * Shard CSV file name, relative to the manifest's directory (so
     * a manifest plus collected shard files relocate together).
     * The shard's checkpoint journal is always `<csv>.journal`.
     */
    std::string csv;
};

/**
 * Everything the merge (or a remote shard runner) needs to know
 * about one orchestrated sweep.  Serialized as `key=value` lines
 * (version SweepRunner::kSchemaVersion, the version of the sweep CSV
 * its shards emit), its grid keys the `sweep` flags — see
 * docs/sweep-format.md for the schema.  A manifest of any other
 * version is rejected, never misread.
 */
struct ShardManifest
{
    /** The full grid, exactly as a single-process sweep would run it. */
    SweepGrid grid;
    /**
     * Shared experiment knobs (cycles, epoch, seed); exp.seed keys
     * every cell seed.
     */
    ExperimentConfig exp;
    /** Shard slices, in global cell order (offsets ascending). */
    std::vector<ShardSpec> shards;

    /** Total cells across all shards (== grid.expand().size()). */
    std::size_t totalCells() const;
};

/**
 * Per-shard supervision accounting, kept by Orchestrator::run and
 * printed by writeShardSummary().
 */
struct ShardRunState
{
    /** Child launches performed (first run plus retries). */
    std::size_t launches = 0;
    /** Relaunches after a crash or kill. */
    std::size_t restarts = 0;
    /** The shard's CSV validated complete. */
    bool done = false;
    /** Last failure reason; empty when the shard never failed. */
    std::string lastError;
};

/**
 * Split @p grid into at most @p shardCount balanced contiguous
 * slices of its workload list.  The effective shard count is clamped
 * to the number of workloads; requesting 0 shards is fatal().  Shard
 * CSV names default to "shard<K>.csv".
 *
 * @param grid       full sweep grid (must expand to >= 1 cell)
 * @param exp        experiment knobs recorded in the manifest
 * @param shardCount requested number of shards
 */
ShardManifest planShards(const SweepGrid &grid,
                         const ExperimentConfig &exp,
                         std::size_t shardCount);

/**
 * The manifest's on-disk text: `key=value` lines (with a comment
 * header) parseable by Options::fromFile — see docs/sweep-format.md
 * for the schema.  Deterministic: equal manifests serialize to
 * equal bytes, which is how an orchestrator detects that a shard
 * directory belongs to a different orchestration.
 */
std::string serializeManifest(const ShardManifest &manifest);

/** Serialize @p manifest to @p path (fatal() on I/O error). */
void writeManifest(const ShardManifest &manifest,
                   const std::string &path);

/**
 * Parse a manifest written by writeManifest().  Unknown keys,
 * missing shards, a version other than SweepRunner::kSchemaVersion
 * ("expected version 8, found: version=<N>"), an empty shard, or
 * shard workload lists that do not join, in order, into the full
 * grid's are fatal(), the message naming @p path; a grid key left
 * out takes the `sweep` default (readGridKeys()), and each shard's
 * offset and cell count are derived from the slices.
 */
ShardManifest loadManifest(const std::string &path);

/**
 * Validate one shard's CSV against the manifest expectations.
 *
 * Checks, in order: the file exists and ends with a newline (a
 * torn final line means the writer died mid-row), the first line is
 * the header (a stale one fails SweepRunner::checkLine() with the one
 * schema message, quoting it), data row k passes
 * SweepRunner::checkRow() for the shard's grid — index local to the
 * shard, seed derived from @p exp — and holds cell k, and there is
 * one data row per cell.
 *
 * @return empty string when valid, else a human-readable reason.
 */
std::string validateShardCsv(const ShardSpec &shard,
                             const ExperimentConfig &exp,
                             const std::string &path);

/**
 * Stitch the manifest's shard CSVs into one global CSV on @p out.
 *
 * Every shard is validated with validateShardCsv() first — any
 * mismatched identity prefix, wrong row count, or torn file is
 * fatal(); results are never silently mixed.  Rows are re-emitted
 * with their shard-local index rewritten to the global cell index;
 * all other bytes pass through untouched, so the merged CSV is
 * byte-identical to a single-process sweep of the full grid.
 *
 * @param manifest the orchestration description
 * @param dir      directory shard CSV names are resolved against
 *                 (normally the manifest file's directory)
 * @param out      destination stream for the merged CSV
 */
void mergeShards(const ShardManifest &manifest, const std::string &dir,
                 std::ostream &out);

/**
 * Create @p dir and write its manifest, or verify byte-equality
 * with the manifest already there — reusing a directory that
 * belongs to a *different* orchestration is fatal(), never a silent
 * mix of incompatible checkpoints.
 */
void prepareShardDir(const ShardManifest &manifest,
                     const std::string &dir);

/**
 * Last non-empty line of @p path with the indented lines that
 * continue it (a multi-line fatal's `  found:`/`  expected:` lines),
 * trailing \r/whitespace stripped ("" when unreadable or empty).
 * Supervisors use it to surface a dead child's fatal message instead
 * of pointing at a log file.
 */
std::string lastLogLine(const std::string &path);

/**
 * @p s as one POSIX shell word, for the plan: unchanged when it
 * is non-empty and every byte is in `[A-Za-z0-9_@%+=:,./-]`, else
 * single-quoted with each `'` spelled `'\''`.
 */
std::string shellQuote(const std::string &s);

/**
 * End-of-run per-shard summary table: cells, launches, restarts,
 * final status, log path, and any last error — one row per shard.
 * @p states must parallel @p manifest.shards.
 */
void writeShardSummary(std::ostream &out,
                       const ShardManifest &manifest,
                       const std::vector<ShardRunState> &states,
                       const std::string &dir);

/**
 * Runs one orchestrated sweep on this machine: launches, supervises
 * and relaunches the shard processes, then merges their CSVs.
 * POSIX-only: the common/subprocess.hh helpers it launches and polls
 * through are fatal() elsewhere.
 */
class Orchestrator
{
  public:
    /** Process-level knobs (the grid lives in the manifest). */
    struct Config
    {
        /** Path of the srs_sim binary to exec for each shard. */
        std::string simPath;
        /** Directory for shard CSVs, journals, and logs. */
        std::string dir;
        /** Max concurrent shard processes; 0 = hardware threads. */
        std::size_t jobs = 0;
        /** --threads passed to each shard process. */
        std::size_t shardThreads = 1;
        /** Relaunch attempts per shard after a crash or kill. */
        std::size_t retries = 2;
    };

    Orchestrator(ShardManifest manifest, Config config);

    /**
     * Run the orchestration to completion: write the manifest into
     * the shard directory, skip the shards whose CSVs already
     * validate, launch the rest (resuming from a checkpoint when one
     * exists) with at most `jobs` children in flight, relaunch failed
     * shards up to `retries` times, and finally merge all shard CSVs
     * onto @p mergedOut.  A shard that still fails after its retries
     * (with the other children torn down first; the message quotes
     * its last log line), or a shard directory holding a *different*
     * orchestration's manifest, is fatal().
     */
    void run(std::ostream &mergedOut);

    /**
     * Plan-only mode: create the shard directory, write the
     * manifest, and print each shard's `srs_sim sweep` command line
     * to @p out — launch nothing.  The commands are exactly what
     * run() would exec, ready to be dispatched to other machines
     * and stitched back with `srs_sim merge`; each line is
     * shell-safe (shellQuote() on every argument).
     */
    void writePlan(std::ostream &out);

    /** Shards whose CSVs already validated and were not relaunched. */
    std::size_t skippedShards() const { return skipped_; }
    /** Child launches performed (first runs plus retries). */
    std::size_t launches() const { return launches_; }
    /** Per-shard accounting of the last run() (summary table data). */
    const std::vector<ShardRunState> &shardStates() const
    {
        return states_;
    }

  private:
    /**
     * The exact `srs_sim sweep` argv for shard @p index (argv[0] =
     * simPath): the shard grid's keys as flags (spellGridKeys()),
     * then --threads, --out and --journal, and `--resume=` the
     * shard's journal, or else its CSV, when one exists in the shard
     * directory.
     */
    std::vector<std::string> shardCommand(std::size_t index) const;

    ShardManifest manifest_;
    Config config_;
    std::size_t skipped_ = 0;
    std::size_t launches_ = 0;
    std::vector<ShardRunState> states_;
};

} // namespace srs

#endif // SRS_SIM_ORCHESTRATOR_HH
