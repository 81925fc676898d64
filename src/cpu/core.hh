/**
 * @file
 * Trace-driven core model (USIMM-equivalent; paper Table III).
 *
 * Each core owns a 192-entry reorder buffer, fetches and retires up
 * to 4 instructions per cycle, and pulls work from a TraceSource.
 * Non-memory instructions complete after a fixed pipeline depth;
 * memory reads complete when the memory hierarchy answers; writes are
 * posted through a store buffer and retire immediately after issue.
 */

#ifndef SRS_CPU_CORE_HH
#define SRS_CPU_CORE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace srs
{

/** One unit of trace: a run of non-memory work then one memory op. */
struct TraceRecord
{
    std::uint32_t nonMemGap = 0;  ///< non-memory instructions first
    Addr addr = kInvalidAddr;     ///< then one access to this address
    bool isWrite = false;
};

/** Pull-based instruction stream; implementations are deterministic. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Produce the next record (sources are infinite / rate mode). */
    virtual TraceRecord next() = 0;
};

/** Memory hierarchy seen by a core. */
class CoreMemoryInterface
{
  public:
    /** What happened to an access issued this cycle. */
    enum class Outcome
    {
        Hit,       ///< satisfied now; latency returned
        Pending,   ///< miss in flight; complete(token) will be called
        Reject,    ///< queues full; Core::wake() when a retry may pass
    };

    virtual ~CoreMemoryInterface() = default;

    /**
     * Issue one access.
     * @param token  opaque tag the hierarchy echoes on completion
     * @param latencyOut  filled with the hit latency on Outcome::Hit
     */
    virtual Outcome access(Addr addr, bool isWrite, CoreId core,
                           std::uint64_t token, Cycle now,
                           Cycle &latencyOut) = 0;
};

/** Core configuration (defaults: paper Table III). */
struct CoreConfig
{
    std::uint32_t robSize = 192;
    std::uint32_t fetchWidth = 4;
    std::uint32_t retireWidth = 4;
    Cycle pipelineDepth = 5;   ///< completion latency of non-mem instrs
};

/** A single out-of-order core fed by a trace. */
class Core
{
  public:
    Core(CoreId id, const CoreConfig &cfg, TraceSource &trace,
         CoreMemoryInterface &mem);

    /** Advance one CPU cycle (retire then fetch). */
    void tick(Cycle now);

    /** Complete the in-flight read tagged @p token. */
    void complete(std::uint64_t token, Cycle now);

    /**
     * Tick the core at @p at at the latest: the memory hierarchy may
     * now accept the access it refused.
     */
    void wake(Cycle at) { wakeAt_ = std::min(wakeAt_, at); }

    /**
     * Earliest cycle at which ticking this core is not provably a
     * no-op; maintained by tick(), complete() and wake().  When a
     * tick retires and fetches nothing — the ROB is full, or the
     * memory refused the access at the fetch point — the core sleeps
     * until its head entry's completion cycle: kNoCycle when the head
     * is a pending read (complete() re-arms the wake) or the ROB is
     * empty.  A refused core's retry can also pass once a queue slot
     * frees; the memory hierarchy reports that through wake().  The
     * event-driven run loop uses this so stalled cores cost zero
     * ticks; ticking a sleeping core anyway is always safe (the tick
     * is a no-op).
     */
    Cycle nextEventAt() const { return wakeAt_; }

    CoreId id() const { return id_; }
    std::uint64_t retiredInstrs() const { return retired_; }
    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }

    /** Retired instructions per cycle over the core's lifetime. */
    double ipc(Cycle elapsed) const;

  private:
    struct RobEntry
    {
        std::uint64_t token = 0;  ///< nonzero for pending memory reads
        Cycle doneAt = kNoCycle;  ///< completion cycle once known
    };

    /** Fetch a single instruction; @return false when stalled. */
    bool fetchOne(Cycle now);

    CoreId id_;
    CoreConfig cfg_;
    TraceSource &trace_;
    CoreMemoryInterface &mem_;

    std::deque<RobEntry> rob_;
    TraceRecord current_;
    std::uint32_t gapLeft_ = 0;     ///< non-mem instrs left in record
    bool recordValid_ = false;
    bool memOpPendingIssue_ = false;///< record's mem op awaiting issue

    std::uint64_t nextToken_ = 1;
    Cycle wakeAt_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
};

} // namespace srs

#endif // SRS_CPU_CORE_HH
