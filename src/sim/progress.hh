/**
 * @file
 * Journal-based shard progress: what `srs_sim monitor` reports.
 *
 * Every shard sweep already streams one flushed journal line per
 * completed cell (sim/sweep.hh) — so per-shard progress, rows/sec,
 * and ETA are computable by *reading files*, with zero
 * instrumentation in the simulator hot path and no channel to the
 * orchestrator.  The pieces:
 *
 *  - scanShardJournal() counts a journal's complete data rows,
 *    holding its header comment and each row to the rules `--resume`
 *    applies, so a stale, foreign or malformed journal is rejected
 *    by name;
 *  - snapshotFromJournals() builds a fleet snapshot from a shard
 *    directory alone, while the shards run or after they died;
 *  - ProgressClock turns successive (rows, time) samples into
 *    rows/sec and ETA estimates;
 *  - writeStatusJson()/writeStatusTable() render a fleet snapshot
 *    as JSON lines (one "shard" object per shard plus one "fleet"
 *    totals object — docs/sweep-format.md has the schema) or as a
 *    human --watch table.
 */

#ifndef SRS_SIM_PROGRESS_HH
#define SRS_SIM_PROGRESS_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/orchestrator.hh"

namespace srs
{

/** What one shard's checkpoint journal says about its progress. */
struct JournalScan
{
    /** The journal file exists. */
    bool exists = false;
    /** Complete ('\n'-terminated) rows, each a row of this shard. */
    std::size_t rows = 0;
    /**
     * Non-empty when the journal must be rejected: its header names
     * a different schema or grid than this shard's, or a row fails
     * SweepRunner::checkRow() (malformed, or another grid's).  Torn
     * final lines are not an error — they are simply not counted.
     */
    std::string error;
};

/**
 * Scan one shard journal at @p path as `--resume` would read it for
 * the shard grid @p cells under base seed @p baseSeed: a `#` line
 * must pass SweepRunner::checkJournalHeader() against the shard's
 * journalHeader(), and every other complete line, the CSV header
 * aside, SweepRunner::checkRow(); the first that fails fills
 * JournalScan::error.  Headerless journals (pre-header builds) scan
 * fine; rows are clamped to the shard's cell count.
 */
JournalScan scanShardJournal(const std::string &path,
                             const std::vector<SweepCell> &cells,
                             std::uint64_t baseSeed);

/** Lifecycle of one shard as its journal shows it. */
enum class ShardState
{
    Pending,  ///< no journal yet
    Running,  ///< journal present, cells still missing
    Done,     ///< every cell journaled
};

/** Lowercase state name for status output. */
const char *shardStateName(ShardState state);

/** One row of a fleet status snapshot. */
struct ShardStatus
{
    std::size_t index = 0;
    ShardState state = ShardState::Pending;
    /** Cells completed (journal rows). */
    std::size_t rows = 0;
    /** Cells total. */
    std::size_t cells = 0;
    /** Completion rate; < 0 when unknown (needs two samples). */
    double rowsPerSec = -1.0;
    /** Remaining-time estimate in seconds; < 0 when unknown. */
    double etaSec = -1.0;
};

/**
 * Rows/sec and ETA from successive journal samples.  Rates are
 * measured between the first and the latest sample that advanced a
 * shard's row count, so one snapshot yields "unknown" (-1) and a
 * stalled shard's rate goes stale rather than inventing progress.
 * Deterministic given the sample sequence — tests feed synthetic
 * clocks.
 */
class ProgressClock
{
  public:
    explicit ProgressClock(std::size_t shardCount);

    /** Record that @p shard had @p rows rows at time @p nowSec. */
    void sample(std::size_t shard, std::size_t rows, double nowSec);

    /** Rows/sec for @p shard; < 0 while unknown. */
    double rowsPerSec(std::size_t shard) const;

    /**
     * Seconds until @p shard reaches @p cells rows at its measured
     * rate; < 0 while the rate is unknown, 0 when already there.
     */
    double etaSec(std::size_t shard, std::size_t cells) const;

  private:
    struct Track
    {
        bool seeded = false;
        std::size_t firstRows = 0;
        double firstSec = 0.0;
        std::size_t lastRows = 0;
        double lastSec = 0.0;
    };
    std::vector<Track> tracks_;
};

/**
 * JSON-lines snapshot: one `{"type":"shard",…}` object per entry of
 * @p shards, then one `{"type":"fleet",…}` totals object.  Fixed
 * field order and formatting (docs/sweep-format.md), `-1` for
 * unknown rates/ETAs — parseable line by line with any JSON reader.
 */
void writeStatusJson(std::ostream &os,
                     const std::vector<ShardStatus> &shards);

/** Human --watch rendering of the same snapshot. */
void writeStatusTable(std::ostream &os,
                      const std::vector<ShardStatus> &shards);

/** @return true when every shard is Done. */
bool fleetDone(const std::vector<ShardStatus> &shards);

/**
 * Build a fleet snapshot for @p manifest by reading the shard
 * journals under @p dir — nothing else; works while an orchestrate
 * run is live on the same directory or after it died.  A journal
 * that scanShardJournal() rejects is fatal() (reject by name, never
 * misread).  Rates are unknown (-1) and a done shard's ETA is 0; the
 * caller fills them in from a ProgressClock it samples.
 */
std::vector<ShardStatus>
snapshotFromJournals(const ShardManifest &manifest,
                     const std::string &dir);

} // namespace srs

#endif // SRS_SIM_PROGRESS_HH
