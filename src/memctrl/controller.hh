/**
 * @file
 * Cycle-level DDR4 memory controller (USIMM-equivalent abstraction).
 *
 * Per channel: a read queue and a posted write queue with high/low
 * watermark draining, each kept per bank in arrival order;
 * FR-FCFS scheduling (the oldest row hit of any bank, else the
 * oldest serviceable request) under a closed-page policy (the
 * paper's assumption; open-page is available for the Section VIII-3
 * study), tREFI/tRFC refresh with JEDEC
 * postponement, and a per-bank migration-job queue through which Row
 * Hammer mitigations perform swap / unswap-swap / place-back row
 * movements that occupy banks and deposit latent activations.
 *
 * One controller is one serial command stream: tick() drains every
 * channel's completed reads, then schedules each channel in index
 * order, notifying the mitigation inline after each ACT.  Simulations
 * run in parallel across sweep cells, never inside one.
 */

#ifndef SRS_MEMCTRL_CONTROLLER_HH
#define SRS_MEMCTRL_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address.hh"
#include "dram/command.hh"
#include "dram/params.hh"
#include "dram/rank.hh"
#include "memctrl/request.hh"

namespace srs
{

/**
 * Hook through which a mitigation observes and redirects traffic.
 * remapRow() is consulted on every ACT; onActivate() fires after the
 * ACT has issued so the mitigation can count and react (schedule
 * migrations).
 */
class MemCtrlListener
{
  public:
    virtual ~MemCtrlListener() = default;

    /** Translate a logical row to its current physical row. */
    virtual RowId
    remapRow(std::uint32_t channel, std::uint32_t bank, RowId logical)
    {
        (void)channel; (void)bank;
        return logical;
    }

    /** Observe a demand activation of a physical row. */
    virtual void
    onActivate(std::uint32_t channel, std::uint32_t bank, RowId physRow,
               Cycle now)
    {
        (void)channel; (void)bank; (void)physRow; (void)now;
    }

    /**
     * Earliest cycle at which an ACT of @p physRow may issue.
     * Throttling defenses (BlockHammer) return a future cycle for
     * blacklisted rows; the controller keeps the request queued
     * until that cycle.
     * @return 0 when unconstrained
     */
    virtual Cycle
    actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                 RowId physRow, Cycle now)
    {
        (void)channel; (void)bank; (void)physRow; (void)now;
        return 0;
    }

    /** Never called: the controller queries one channel at a time. */
    virtual bool concurrentChannelQueriesSafe() const { return true; }
};

/** Controller configuration knobs. */
struct MemCtrlConfig
{
    std::uint32_t readQueueDepth = 128;  ///< per channel
    std::uint32_t writeQueueDepth = 96;  ///< per channel
    std::uint32_t writeHiWatermark = 64; ///< start draining
    std::uint32_t writeLoWatermark = 24; ///< stop draining
    PagePolicy pagePolicy = PagePolicy::Closed;
    std::uint32_t maxPostponedRefreshes = 8;
};

/** The full-system memory controller (all channels). */
class MemoryController
{
  public:
    MemoryController(const DramOrg &org, const DramTiming &timing,
                     const MemCtrlConfig &cfg = {});

    /** Register the mitigation hook (nullptr = identity mapping). */
    void setListener(MemCtrlListener *listener) { listener_ = listener; }

    /** Callback fired when a read's data returns. */
    using ReadCallback = std::function<void(const MemRequest &)>;
    void setReadCallback(ReadCallback cb) { onReadDone_ = std::move(cb); }

    /** @return true when channel queues can accept @p isWrite request. */
    bool canAccept(Addr addr, bool isWrite) const;

    /**
     * Enqueue a demand access.  Writes are posted (no callback);
     * reads complete through the read callback.
     * @return assigned request id, or UINT64_MAX when rejected.
     */
    std::uint64_t enqueue(Addr addr, bool isWrite, CoreId core, Cycle now);

    /** Queue a migration job on (channel, bank). */
    void scheduleMigration(std::uint32_t channel, std::uint32_t bank,
                           MigrationJob job);

    /** @return number of queued-but-unstarted migrations on a bank. */
    std::size_t pendingMigrations(std::uint32_t channel,
                                  std::uint32_t bank) const;

    /**
     * Advance the controller; call once per memory bus clock.
     * Completed reads are delivered first, channel by channel; then
     * each channel, in index order, issues at most one command.
     */
    void tick(Cycle now);

    /**
     * Earliest cycle (> @p now) at which ticking the controller is
     * not provably a no-op.  Conservative: whenever any queue holds a
     * live request, a migration is pending, refresh debt is owed, or
     * a bank must be idle-closed, this returns now+1 so the event
     * loop ticks at every bus edge exactly like the reference loop.
     * With everything drained it jumps to the next tREFI deadline.
     * @return kNoCycle when no future tick can have any effect
     */
    Cycle nextEventAt(Cycle now) const;

    /** Reset per-epoch activation ground truth in every bank. */
    void resetEpochCounters();

    /** Ground-truth access for security checks and tests. */
    Bank &bankAt(std::uint32_t channel, std::uint32_t bank);
    const Bank &bankAt(std::uint32_t channel, std::uint32_t bank) const;

    const AddressMap &addressMap() const { return map_; }
    const DramOrg &org() const { return org_; }
    const DramTiming &timing() const { return timing_; }

    /** Aggregate statistics (acts, reads, writes, migrations...). */
    const StatSet &stats() const { return stats_; }

    /**
     * Read-latency histogram, one sample per completed demand read
     * (arrival to data return, in CPU cycles; write-queue-forwarded
     * reads land here too, at latency 1).  Identical between the
     * event-driven and reference loops by construction.
     */
    const LatencyHistogram &readLatency() const { return readLatency_; }

    /** @return true when all queues and banks are idle. */
    bool idle(Cycle now) const;

  private:
    /** (completionCycle, request) ordered soonest-first. */
    struct PendingRead
    {
        Cycle done;
        MemRequest req;
        bool operator>(const PendingRead &o) const { return done > o.done; }
    };

    /**
     * The queued reads (or writes) of one channel to one bank, oldest
     * first: request ids grow with arrival, so the vector is sorted by
     * id.  `hits` counts requests whose cached translation is current
     * (stamped with the channel's map version) and equals the bank's
     * open row; `stale` counts requests whose translation is out of
     * date.  Translations are revalidated lazily, only when the
     * scheduler reaches a request, so a hit the scheduler has not yet
     * reached is not counted.
     */
    struct BankQueue
    {
        std::vector<MemRequest> reqs;
        std::uint32_t hits = 0;
        std::uint32_t stale = 0;
    };

    /** A channel's read or write queue, split per (rank, bank). */
    struct RequestQueue
    {
        /** indexed by flat bank (rank * banksPerRank + bank) */
        std::vector<BankQueue> banks;
        /** queued requests across all banks */
        std::uint32_t queued = 0;
    };

    /**
     * Pass-2 verdict for one bank, decided from bank, rank and
     * refresh state that no pass-2 decision changes.  The first five
     * are the p2_skip_* classes charged to every request the verdict
     * makes wait.
     */
    enum class BankVerdict : std::uint8_t
    {
        Busy,     ///< rank refreshing or bank blocked by a migration
        Forced,   ///< rank owes a forced refresh: no new activations
        HitWait,  ///< open row still has a queued hit
        PreWait,  ///< row conflict, PRE not yet legal
        ActWait,  ///< bank closed, ACT not yet legal
        PreReady, ///< row conflict, PRE legal now
        ActReady, ///< bank closed, ACT legal now (throttling is per row)
    };
    static constexpr int kSkipClasses = 5;

    /** A bank's position in a walk over several banks in id order. */
    struct BankCursor
    {
        std::uint32_t flat = 0;
        std::uint32_t pos = 0;
        /** the bank may take the walk's command this tick */
        bool ready = false;
    };

    /** Per-channel scheduler state. */
    struct ChannelState
    {
        std::vector<Rank> ranks;
        RequestQueue readQ;
        RequestQueue writeQ;
        /** per (rank, bank) migration queues, flattened */
        std::vector<std::deque<MigrationJob>> migQ;
        bool draining = false;
        /** per-rank refresh bookkeeping */
        std::vector<Cycle> nextRefreshDue;
        std::vector<std::uint32_t> refreshDebt;
        /** bumped whenever the row mapping may have changed */
        std::uint64_t mapVersion = 1;
        /** round-robin cursor for idle-close precharges */
        std::uint32_t closeCursor = 0;
        /** mirror of each bank's open row (kInvalidRow when closed) */
        std::vector<RowId> openRowArr;
        /** banks currently holding an open row */
        std::uint32_t openCount = 0;
        /** queued-but-unstarted migration jobs across all banks */
        std::uint64_t migCount = 0;

        /**
         * serviceQueue working buffers, kept here so a tick
         * allocates nothing: the banks of the current id-order walk,
         * and the pass-2 verdicts of the banks whose requests wait.
         */
        std::vector<BankCursor> walk;
        std::vector<std::pair<std::uint32_t, BankVerdict>> waiting;

        /** reads in flight on this channel, soonest-done first */
        std::priority_queue<PendingRead, std::vector<PendingRead>,
                            std::greater<>> pendingReads;
    };

    void drainCompletedReads(ChannelState &c, Cycle now);
    void tickChannel(std::uint32_t ch, Cycle now);
    bool manageRefresh(ChannelState &c, Cycle now);
    bool startMigration(ChannelState &c, Cycle now);
    bool serviceQueue(std::uint32_t chIdx, ChannelState &c,
                      RequestQueue &q, bool isWrite, Cycle now);
    /** pass 1 (FR): serve the oldest row-buffer hit of any bank. */
    bool serveOldestHit(std::uint32_t chIdx, ChannelState &c,
                        RequestQueue &q, bool isWrite, Cycle now);
    /** pass 2 (FCFS): PRE or ACT for the oldest serviceable request. */
    bool openForOldest(std::uint32_t chIdx, ChannelState &c,
                       RequestQueue &q, Cycle now);
    BankVerdict bankVerdict(const ChannelState &c, std::uint32_t flat,
                            Cycle now) const;
    /**
     * Visit the requests of the banks in c.walk in id order, oldest
     * first, stopping before the first id >= @p limit or when
     * @p visit returns true.
     */
    template <typename Visit>
    void walkInIdOrder(ChannelState &c, RequestQueue &q,
                       std::uint64_t limit, Visit &&visit);
    bool idleClose(ChannelState &c, Cycle now);
    bool bankHasPendingHit(const ChannelState &c, std::uint32_t flat) const;
    RowId physRowOf(std::uint32_t chIdx, ChannelState &c, MemRequest &req);
    void updateDrainState(ChannelState &c);
    std::uint32_t flatBank(std::uint32_t rank, std::uint32_t bank) const
    {
        return rank * org_.banksPerRank + bank;
    }

    /** issue through the rank, keeping open-row mirrors + hit counts. */
    Cycle issueCmd(ChannelState &c, std::uint32_t rank, DramCommand cmd,
                   std::uint32_t bank, RowId row, Cycle now,
                   bool autoPre = false);
    /** rebuild one bank's hit counters after its open row changed. */
    void recountBankHits(ChannelState &c, std::uint32_t flat);
    /** remove a served request, maintaining the counters. */
    void removeRequest(ChannelState &c, RequestQueue &q, std::uint32_t flat,
                       std::uint32_t pos);
    /** counter-aware replacement for `req.mapVersion = 0`. */
    void invalidateReqCache(ChannelState &c, MemRequest &req);
    /** true when a read of @p line (in bank @p flat) would be served
     *  from the write queue */
    bool wouldForward(const ChannelState &c, std::uint32_t flat,
                      Addr line) const;

    DramOrg org_;
    DramTiming timing_;
    MemCtrlConfig cfg_;
    AddressMap map_;

    std::vector<ChannelState> channels_;

    MemCtrlListener *listener_ = nullptr;
    ReadCallback onReadDone_;
    std::uint64_t nextReqId_ = 1;
    StatSet stats_;
    LatencyHistogram readLatency_;

    /** Interned counter handles for the per-command hot paths. */
    struct StatHandles
    {
        StatSet::Handle writesEnqueued, readsForwarded, readsEnqueued,
            readsCompleted, readLatencyCycles, refreshes,
            forcedPrecharges, latentActivations, migrationBusyCycles,
            writesIssued, readsIssued, rowHits, rowConflicts,
            activations, idleCloses, p2SkipThrottled;
        /** p2_skip_* counters, indexed by BankVerdict */
        StatSet::Handle p2Skip[kSkipClasses];
        StatSet::Handle migScheduled[4], migStarted[4];
    };
    StatHandles h_;
};

} // namespace srs

#endif // SRS_MEMCTRL_CONTROLLER_HH
