/**
 * @file
 * The shard supervisor behind `srs_sim farm` and `srs_sim
 * orchestrate`.
 *
 * FarmDispatcher takes a planned orchestration (the shard manifest)
 * and a fleet (the hostfile) and runs the shards to completion
 * across the fleet's job slots.  Orchestrator (sim/orchestrator.hh)
 * runs it on a fleet of one `local` host with `--jobs` slots, so it
 * is the only code that launches, polls and relaunches shard
 * processes:
 *
 *  - shards are assigned to free slots in order; a fleet with more
 *    slots than shards just leaves slots idle;
 *  - each launch goes through the host's Transport with the exact
 *    shardCommandLine() argv — resume checkpoints are pushed ahead
 *    of the launch, so a restarted shard never recomputes finished
 *    cells;
 *  - supervision is journal-based: every poll pulls each running
 *    shard's checkpoint journal and samples its row count.  The
 *    wait between polls ends as soon as a running shard's process
 *    exits, so a finished slot is refilled at once.  A shard
 *    whose journal stops advancing for --stale-sec (straggler, dead
 *    host, wedged ssh) is killed and requeued; requeued shards take
 *    the *next free slot on any live host*, which is what rebalances
 *    work away from dead hosts.  Crashes requeue the same way, up to
 *    --retries relaunches per shard;
 *  - after every poll a status snapshot (farm/progress.hh JSON
 *    lines) is written atomically to the status file, so `srs_sim
 *    monitor` and external tooling can watch the fleet live;
 *  - when every shard's CSV validates, the existing mergeShards()
 *    stitches the merged CSV — byte-identical to a single-process
 *    sweep, whatever hosts, transports, kills, or restarts the run
 *    saw.  Transport is never part of cell identity.
 *
 * POSIX-only: the common/subprocess.hh helpers it launches and
 * polls through are fatal() elsewhere.
 */

#ifndef SRS_FARM_DISPATCHER_HH
#define SRS_FARM_DISPATCHER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "farm/hostfile.hh"
#include "sim/orchestrator.hh"

namespace srs
{

/** Fleet-level knobs (the grid lives in the manifest). */
struct FarmConfig
{
    /** Local shard directory (the manifest's directory). */
    std::string dir;
    /** The fleet (loadHostfile order; slots expand host-major). */
    std::vector<HostSpec> hosts;
    /** Default srs_sim path for hosts without their own sim=. */
    std::string simPath;
    /** --threads passed to each shard process. */
    std::size_t shardThreads = 1;
    /** Relaunches per shard after a crash, kill, or stall. */
    std::size_t retries = 2;
    /**
     * Longest wait between polls of journals and children, in
     * milliseconds; a running shard's exit ends the wait early.
     */
    std::uint64_t pollMs = 200;
    /**
     * Straggler timeout: a running shard whose journal has not
     * grown for this many seconds is killed and requeued onto the
     * next free slot.  0 disables staleness detection.
     */
    double staleSec = 0.0;
    /** Status-snapshot path; empty writes <dir>/farm.status. */
    std::string statusFile;
};

/** Runs one manifest's shards across a fleet (see file comment). */
class FarmDispatcher
{
  public:
    FarmDispatcher(ShardManifest manifest, FarmConfig config);

    /**
     * Dispatch, supervise, and merge: returns after writing the
     * merged CSV to @p mergedOut and the final status snapshot.  A
     * shard that exhausts its retries is fatal() — with the fleet
     * torn down, the per-shard summary printed, and the dead
     * shard's last log line in the message.
     */
    void run(std::ostream &mergedOut);

    /** Child launches performed (first runs plus retries). */
    std::size_t launches() const { return launches_; }
    /** Relaunches after a crash, kill, or staleness timeout. */
    std::size_t restarts() const { return restarts_; }
    /** Shards whose CSVs already validated and never launched. */
    std::size_t skippedShards() const { return skipped_; }
    /** Per-shard accounting of the last run() (summary data). */
    const std::vector<ShardRunState> &shardStates() const
    {
        return states_;
    }

  private:
    ShardManifest manifest_;
    FarmConfig config_;
    std::size_t launches_ = 0;
    std::size_t restarts_ = 0;
    std::size_t skipped_ = 0;
    std::vector<ShardRunState> states_;
};

} // namespace srs

#endif // SRS_FARM_DISPATCHER_HH
