#include "memctrl/controller.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace srs
{

const char *
migrationKindName(MigrationJob::Kind kind)
{
    switch (kind) {
      case MigrationJob::Kind::Swap:          return "swap";
      case MigrationJob::Kind::UnswapSwap:    return "unswap_swap";
      case MigrationJob::Kind::PlaceBack:     return "place_back";
      case MigrationJob::Kind::CounterAccess: return "counter_access";
    }
    return "?";
}

namespace
{

/** "No candidate" request id: ids start at 1 and never reach it. */
constexpr std::uint64_t kNoRequest =
    std::numeric_limits<std::uint64_t>::max();

} // namespace

MemoryController::MemoryController(const DramOrg &org,
                                   const DramTiming &timing,
                                   const MemCtrlConfig &cfg)
    : org_(org), timing_(timing), cfg_(cfg), map_(org)
{
    if (cfg_.writeLoWatermark >= cfg_.writeHiWatermark)
        fatal("write drain watermarks inverted");
    const std::uint32_t flats = org_.ranksPerChannel * org_.banksPerRank;
    channels_.resize(org_.channels);
    for (auto &c : channels_) {
        c.ranks.reserve(org_.ranksPerChannel);
        for (std::uint32_t r = 0; r < org_.ranksPerChannel; ++r)
            c.ranks.emplace_back(timing_, org_);
        c.migQ.resize(flats);
        c.nextRefreshDue.assign(org_.ranksPerChannel, timing_.tREFI);
        c.refreshDebt.assign(org_.ranksPerChannel, 0);
        c.openRowArr.assign(flats, kInvalidRow);
        c.readQ.banks.resize(flats);
        c.writeQ.banks.resize(flats);
        c.walk.reserve(flats);
        c.waiting.reserve(flats);
    }

    h_.writesEnqueued = stats_.handle("writes_enqueued");
    h_.readsForwarded = stats_.handle("reads_forwarded");
    h_.readsEnqueued = stats_.handle("reads_enqueued");
    h_.readsCompleted = stats_.handle("reads_completed");
    h_.readLatencyCycles = stats_.handle("read_latency_cycles");
    h_.refreshes = stats_.handle("refreshes");
    h_.forcedPrecharges = stats_.handle("forced_precharges");
    h_.latentActivations = stats_.handle("latent_activations");
    h_.migrationBusyCycles = stats_.handle("migration_busy_cycles");
    h_.writesIssued = stats_.handle("writes_issued");
    h_.readsIssued = stats_.handle("reads_issued");
    h_.rowHits = stats_.handle("row_hits");
    h_.rowConflicts = stats_.handle("row_conflicts");
    h_.activations = stats_.handle("activations");
    h_.idleCloses = stats_.handle("idle_closes");
    // In BankVerdict order.
    const char *const skipNames[kSkipClasses] = {
        "p2_skip_busy", "p2_skip_forced", "p2_skip_hit_wait",
        "p2_skip_pre_wait", "p2_skip_act_wait"};
    for (int k = 0; k < kSkipClasses; ++k)
        h_.p2Skip[k] = stats_.handle(skipNames[k]);
    h_.p2SkipThrottled = stats_.handle("p2_skip_throttled");
    for (int k = 0; k < 4; ++k) {
        const auto kind = static_cast<MigrationJob::Kind>(k);
        h_.migScheduled[k] = stats_.handle(
            std::string("mig_scheduled_") + migrationKindName(kind));
        h_.migStarted[k] = stats_.handle(
            std::string("mig_started_") + migrationKindName(kind));
    }
}

bool
MemoryController::wouldForward(const ChannelState &c, std::uint32_t flat,
                               Addr line) const
{
    for (const MemRequest &w : c.writeQ.banks[flat].reqs) {
        if ((w.addr & ~static_cast<Addr>(org_.lineBytes - 1)) == line)
            return true;
    }
    return false;
}

bool
MemoryController::canAccept(Addr addr, bool isWrite) const
{
    const DramCoord coord = map_.decode(addr);
    const ChannelState &c = channels_[coord.channel];
    if (isWrite)
        return c.writeQ.queued < cfg_.writeQueueDepth;
    if (c.readQ.queued < cfg_.readQueueDepth)
        return true;
    // A read served by read-around-write forwarding never occupies a
    // read-queue slot, so a full read queue must not reject it.
    return wouldForward(c, flatBank(coord.rank, coord.bank),
                        addr & ~static_cast<Addr>(org_.lineBytes - 1));
}

std::uint64_t
MemoryController::enqueue(Addr addr, bool isWrite, CoreId core, Cycle now)
{
    if (!canAccept(addr, isWrite))
        return std::numeric_limits<std::uint64_t>::max();

    MemRequest req;
    req.id = nextReqId_++;
    req.addr = addr;
    req.isWrite = isWrite;
    req.core = core;
    req.arrival = now;
    req.coord = map_.decode(addr);

    ChannelState &c = channels_[req.coord.channel];
    const std::uint32_t flat = flatBank(req.coord.rank, req.coord.bank);
    // Ids grow with arrival, so appending keeps each bank queue in id
    // order.  A new request's translation is stale until the
    // scheduler reaches it.
    if (isWrite) {
        stats_.inc(h_.writesEnqueued);
        c.writeQ.banks[flat].reqs.push_back(req);
        ++c.writeQ.banks[flat].stale;
        ++c.writeQ.queued;
        return req.id;
    }

    // Read-around-write forwarding: a read that hits a posted write
    // is satisfied from the write queue without touching DRAM.  This
    // is checked before the queue-capacity path so a forwardable read
    // is accepted even when the read queue is full.
    const Addr line = addr & ~static_cast<Addr>(org_.lineBytes - 1);
    if (wouldForward(c, flat, line)) {
        stats_.inc(h_.readsForwarded);
        MemRequest done = req;
        done.completion = now + 1;
        c.pendingReads.push({done.completion, done});
        return req.id;
    }
    stats_.inc(h_.readsEnqueued);
    c.readQ.banks[flat].reqs.push_back(req);
    ++c.readQ.banks[flat].stale;
    ++c.readQ.queued;
    return req.id;
}

void
MemoryController::scheduleMigration(std::uint32_t channel,
                                    std::uint32_t bank, MigrationJob job)
{
    SRS_ASSERT(channel < channels_.size(), "bad channel");
    ChannelState &c = channels_[channel];
    SRS_ASSERT(bank < c.migQ.size(), "bad bank");
    stats_.inc(h_.migScheduled[static_cast<int>(job.kind)]);
    // Any mitigation activity may have changed the row mapping, so
    // cached remaps in queued requests must be recomputed.  Every
    // queued request becomes stale; no cached translation can be a
    // row-buffer hit until physRowOf() revalidates it.
    ++c.mapVersion;
    for (RequestQueue *q : {&c.readQ, &c.writeQ}) {
        for (BankQueue &bq : q->banks) {
            bq.stale = static_cast<std::uint32_t>(bq.reqs.size());
            bq.hits = 0;
        }
    }
    ++c.migCount;
    c.migQ[bank].push_back(std::move(job));
}

std::size_t
MemoryController::pendingMigrations(std::uint32_t channel,
                                    std::uint32_t bank) const
{
    return channels_[channel].migQ[bank].size();
}

void
MemoryController::drainCompletedReads(ChannelState &c, Cycle now)
{
    while (!c.pendingReads.empty() && c.pendingReads.top().done <= now) {
        MemRequest req = c.pendingReads.top().req;
        c.pendingReads.pop();
        stats_.inc(h_.readsCompleted);
        stats_.inc(h_.readLatencyCycles, req.completion - req.arrival);
        readLatency_.add(req.completion - req.arrival);
        if (onReadDone_)
            onReadDone_(req);
    }
}

void
MemoryController::tick(Cycle now)
{
    // Completion effects commute across distinct requests (each wakes
    // its own core token; the latency histogram and counters are
    // commutative adds), so draining per channel in index order is
    // state-identical to draining one global completion queue.
    for (auto &c : channels_)
        drainCompletedReads(c, now);
    for (std::uint32_t ch = 0; ch < channels_.size(); ++ch)
        tickChannel(ch, now);
}

bool
MemoryController::manageRefresh(ChannelState &c, Cycle now)
{
    for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
        auto &due = c.nextRefreshDue[ri];
        auto &debt = c.refreshDebt[ri];
        while (now >= due && debt < cfg_.maxPostponedRefreshes) {
            due += timing_.tREFI;
            ++debt;
        }
        if (debt == 0)
            continue;
        Rank &rank = c.ranks[ri];
        if (rank.canRefresh(now)) {
            // canRefresh() requires every bank closed, so an all-bank
            // refresh never disturbs the open-row mirror.
            rank.refresh(now);
            --debt;
            stats_.inc(h_.refreshes);
            return true;
        }
        if (debt >= cfg_.maxPostponedRefreshes) {
            // Forced refresh: close an open bank to make progress.
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
                if (rank.bank(b).rowOpen() &&
                    rank.canIssue(DramCommand::Precharge, b, 0, now)) {
                    issueCmd(c, ri, DramCommand::Precharge, b, 0, now);
                    stats_.inc(h_.forcedPrecharges);
                    return true;
                }
            }
        }
    }
    return false;
}

bool
MemoryController::startMigration(ChannelState &c, Cycle now)
{
    for (std::uint32_t flat = 0; flat < c.migQ.size(); ++flat) {
        if (c.migQ[flat].empty())
            continue;
        const std::uint32_t ri = flat / org_.banksPerRank;
        const std::uint32_t bi = flat % org_.banksPerRank;
        Rank &rank = c.ranks[ri];
        // Do not delay a forced refresh by multiple microseconds.
        if (c.refreshDebt[ri] >= cfg_.maxPostponedRefreshes ||
            rank.refreshing(now)) {
            continue;
        }
        Bank &bank = rank.bank(bi);
        if (bank.blocked(now))
            continue;
        if (bank.rowOpen()) {
            if (rank.canIssue(DramCommand::Precharge, bi, 0, now)) {
                issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
                return true;
            }
            continue;
        }
        if (now < bank.actReadyAt())
            continue;
        MigrationJob job = std::move(c.migQ[flat].front());
        c.migQ[flat].pop_front();
        --c.migCount;
        bank.blockFor(now, job.duration);
        for (const RowCharge &charge : job.charges) {
            bank.chargeActivation(charge.row, charge.count);
            stats_.inc(h_.latentActivations, charge.count);
        }
        stats_.inc(h_.migStarted[static_cast<int>(job.kind)]);
        stats_.inc(h_.migrationBusyCycles, job.duration);
        return true;
    }
    return false;
}

void
MemoryController::updateDrainState(ChannelState &c)
{
    if (!c.draining && c.writeQ.queued >= cfg_.writeHiWatermark)
        c.draining = true;
    else if (c.draining && c.writeQ.queued <= cfg_.writeLoWatermark)
        c.draining = false;
}

RowId
MemoryController::physRowOf(std::uint32_t chIdx, ChannelState &c,
                            MemRequest &req)
{
    if (req.mapVersion == c.mapVersion)
        return req.physRow;
    const std::uint32_t flat = flatBank(req.coord.rank, req.coord.bank);
    RowId phys = req.coord.row;
    if (listener_)
        phys = listener_->remapRow(chIdx, flat, phys);
    // The request leaves the stale set; if its fresh translation hits
    // its bank's open row it joins the hit counter.
    BankQueue &bq = (req.isWrite ? c.writeQ : c.readQ).banks[flat];
    --bq.stale;
    req.physRow = phys;
    req.mapVersion = c.mapVersion;
    if (c.openRowArr[flat] == phys)
        ++bq.hits;
    return phys;
}

Cycle
MemoryController::issueCmd(ChannelState &c, std::uint32_t rank,
                           DramCommand cmd, std::uint32_t bank, RowId row,
                           Cycle now, bool autoPre)
{
    Rank &r = c.ranks[rank];
    const Cycle done = r.issue(cmd, bank, row, now, autoPre);
    const std::uint32_t flat = flatBank(rank, bank);
    const Bank &b = r.bank(bank);
    const RowId open = b.rowOpen() ? b.openRow() : kInvalidRow;
    if (open != c.openRowArr[flat]) {
        if (c.openRowArr[flat] == kInvalidRow)
            ++c.openCount;
        else if (open == kInvalidRow)
            --c.openCount;
        c.openRowArr[flat] = open;
        recountBankHits(c, flat);
    }
    return done;
}

void
MemoryController::recountBankHits(ChannelState &c, std::uint32_t flat)
{
    const RowId open = c.openRowArr[flat];
    for (RequestQueue *q : {&c.readQ, &c.writeQ}) {
        BankQueue &bq = q->banks[flat];
        bq.hits = 0;
        if (open == kInvalidRow)
            continue;
        for (const MemRequest &r : bq.reqs) {
            if (r.mapVersion == c.mapVersion && r.physRow == open)
                ++bq.hits;
        }
    }
}

void
MemoryController::removeRequest(ChannelState &c, RequestQueue &q,
                                std::uint32_t flat, std::uint32_t pos)
{
    BankQueue &bq = q.banks[flat];
    const MemRequest &req = bq.reqs[pos];
    if (req.mapVersion != c.mapVersion)
        --bq.stale;
    else if (req.physRow == c.openRowArr[flat])
        --bq.hits;
    bq.reqs.erase(bq.reqs.begin() + pos);
    --q.queued;
}

void
MemoryController::invalidateReqCache(ChannelState &c, MemRequest &req)
{
    if (req.mapVersion == c.mapVersion) {
        const std::uint32_t flat =
            flatBank(req.coord.rank, req.coord.bank);
        BankQueue &bq = (req.isWrite ? c.writeQ : c.readQ).banks[flat];
        if (c.openRowArr[flat] == req.physRow)
            --bq.hits;
        ++bq.stale;
    }
    req.mapVersion = 0;
}

template <typename Visit>
void
MemoryController::walkInIdOrder(ChannelState &c, RequestQueue &q,
                                std::uint64_t limit, Visit &&visit)
{
    // A k-way merge by linear scan: k is at most the channel's bank
    // count, and the common walk ends at its first request.
    for (;;) {
        BankCursor *next = nullptr;
        std::uint64_t nextId = limit;
        for (BankCursor &k : c.walk) {
            const std::vector<MemRequest> &reqs = q.banks[k.flat].reqs;
            if (k.pos < reqs.size() && reqs[k.pos].id < nextId) {
                next = &k;
                nextId = reqs[k.pos].id;
            }
        }
        if (next == nullptr)
            return;
        if (visit(*next, q.banks[next->flat].reqs[next->pos]))
            return;
        ++next->pos;
    }
}

bool
MemoryController::serviceQueue(std::uint32_t chIdx, ChannelState &c,
                               RequestQueue &q, bool isWrite, Cycle now)
{
    if (q.queued == 0)
        return false;
    return serveOldestHit(chIdx, c, q, isWrite, now) ||
           openForOldest(chIdx, c, q, now);
}

bool
MemoryController::serveOldestHit(std::uint32_t chIdx, ChannelState &c,
                                 RequestQueue &q, bool isWrite, Cycle now)
{
    const DramCommand cas =
        isWrite ? DramCommand::Write : DramCommand::Read;

    // Eligible banks are open and neither refreshing nor blocked.  A
    // bank whose translations are all current yields its oldest hit
    // directly.  Banks holding stale translations join an id-order
    // walk instead: revalidating is a side effect (it feeds the hit
    // counters that later precharge decisions read), so it must
    // reach exactly the requests older than the winner.
    std::uint64_t bestId = kNoRequest;
    std::uint32_t bestFlat = 0;
    std::uint32_t bestPos = 0;
    c.walk.clear();
    for (std::uint32_t flat = 0; flat < q.banks.size(); ++flat) {
        const BankQueue &bq = q.banks[flat];
        if (bq.hits == 0 && bq.stale == 0)
            continue;
        const std::uint32_t bi = flat % org_.banksPerRank;
        const Rank &rank = c.ranks[flat / org_.banksPerRank];
        const Bank &bank = rank.bank(bi);
        if (rank.refreshing(now) || bank.blocked(now) || !bank.rowOpen())
            continue;
        const bool ready = rank.canIssue(cas, bi, bank.openRow(), now);
        if (bq.stale > 0) {
            c.walk.push_back({flat, 0, ready});
            continue;
        }
        if (!ready)
            continue;
        for (std::uint32_t i = 0; i < bq.reqs.size(); ++i) {
            if (bq.reqs[i].physRow != bank.openRow())
                continue;
            if (bq.reqs[i].id < bestId) {
                bestId = bq.reqs[i].id;
                bestFlat = flat;
                bestPos = i;
            }
            break;
        }
    }
    walkInIdOrder(c, q, bestId,
                  [&](const BankCursor &k, MemRequest &req) {
        const RowId phys = physRowOf(chIdx, c, req);
        if (!k.ready || phys != c.openRowArr[k.flat])
            return false;
        bestId = req.id;
        bestFlat = k.flat;
        bestPos = k.pos;
        return true;
    });
    if (bestId == kNoRequest)
        return false;

    MemRequest &req = q.banks[bestFlat].reqs[bestPos];
    const Cycle done = issueCmd(c, req.coord.rank, cas, req.coord.bank,
                                req.physRow, now, /*autoPre=*/false);
    if (isWrite) {
        stats_.inc(h_.writesIssued);
    } else {
        stats_.inc(h_.readsIssued);
        stats_.inc(h_.rowHits);
        MemRequest finished = req;
        finished.completion = done;
        c.pendingReads.push({done, finished});
    }
    removeRequest(c, q, bestFlat, bestPos);
    return true;
}

MemoryController::BankVerdict
MemoryController::bankVerdict(const ChannelState &c, std::uint32_t flat,
                              Cycle now) const
{
    const std::uint32_t ri = flat / org_.banksPerRank;
    const std::uint32_t bi = flat % org_.banksPerRank;
    const Rank &rank = c.ranks[ri];
    const Bank &bank = rank.bank(bi);
    if (rank.refreshing(now) || bank.blocked(now))
        return BankVerdict::Busy;
    if (c.refreshDebt[ri] >= cfg_.maxPostponedRefreshes)
        return BankVerdict::Forced;
    if (bank.rowOpen()) {
        // Conflict: close the row so the bank's requests can proceed
        // (pass 1 already served every hit it could).
        if (bankHasPendingHit(c, flat))
            return BankVerdict::HitWait;
        return rank.canIssue(DramCommand::Precharge, bi, 0, now)
            ? BankVerdict::PreReady : BankVerdict::PreWait;
    }
    // Activate legality is row-independent (tRRD/tFAW and the bank's
    // tRC window), so any in-range row stands in for the bank's rows.
    return rank.canIssue(DramCommand::Activate, bi, 0, now)
        ? BankVerdict::ActReady : BankVerdict::ActWait;
}

bool
MemoryController::openForOldest(std::uint32_t chIdx, ChannelState &c,
                                RequestQueue &q, Cycle now)
{
    // Every bank holding requests gets one verdict, and nothing below
    // changes the state it reads: pass 1 left every request of an
    // open, non-busy bank revalidated, so revalidation here touches
    // closed banks only and cannot move a hit counter.  The
    // candidates for the command are the head of each
    // precharge-ready bank and the unthrottled requests of each
    // activate-ready bank, and the oldest candidate wins — the
    // request a walk over the whole queue in id order would reach
    // first.
    c.walk.clear();
    c.waiting.clear();
    std::uint64_t preId = kNoRequest;
    std::uint32_t preFlat = 0;
    for (std::uint32_t flat = 0; flat < q.banks.size(); ++flat) {
        const BankQueue &bq = q.banks[flat];
        if (bq.reqs.empty())
            continue;
        const BankVerdict v = bankVerdict(c, flat, now);
        if (v == BankVerdict::ActReady) {
            c.walk.push_back({flat, 0, true});
        } else if (v == BankVerdict::PreReady) {
            if (bq.reqs.front().id < preId) {
                preId = bq.reqs.front().id;
                preFlat = flat;
            }
        } else {
            c.waiting.emplace_back(flat, v);
        }
    }

    // Activate-ready requests older than the oldest precharge
    // candidate ask, in id order, whether their row may be activated
    // now; the first that may wins.
    MemRequest *act = nullptr;
    std::uint32_t actFlat = 0;
    RowId actPhys = kInvalidRow;
    walkInIdOrder(c, q, preId,
                  [&](const BankCursor &k, MemRequest &req) {
        const RowId phys = physRowOf(chIdx, c, req);
        if (listener_ != nullptr &&
            listener_->actAllowedAt(chIdx, k.flat, phys, now) > now) {
            stats_.inc(h_.p2SkipThrottled);
            return false;
        }
        act = &req;
        actFlat = k.flat;
        actPhys = phys;
        return true;
    });
    const std::uint64_t winnerId = act != nullptr ? act->id : preId;

    // Every waiting request older than the winner is skipped under its
    // bank's verdict.  Outside busy and forced-refresh banks it is
    // also revalidated, as the request-order walk did on its way.
    std::uint64_t skips[kSkipClasses] = {};
    for (const auto &[flat, v] : c.waiting) {
        BankQueue &bq = q.banks[flat];
        const auto older = std::lower_bound(
            bq.reqs.begin(), bq.reqs.end(), winnerId,
            [](const MemRequest &r, std::uint64_t id) { return r.id < id; });
        skips[static_cast<int>(v)] +=
            static_cast<std::uint64_t>(older - bq.reqs.begin());
        if (bq.stale > 0 && v != BankVerdict::Busy &&
            v != BankVerdict::Forced) {
            for (auto it = bq.reqs.begin(); it != older; ++it)
                physRowOf(chIdx, c, *it);
        }
    }
    for (int k = 0; k < kSkipClasses; ++k) {
        if (skips[k] > 0)
            stats_.inc(h_.p2Skip[k], skips[k]);
    }

    if (act != nullptr) {
        issueCmd(c, act->coord.rank, DramCommand::Activate,
                 act->coord.bank, actPhys, now);
        stats_.inc(h_.activations);
        if (listener_) {
            listener_->onActivate(chIdx, actFlat, actPhys, now);
            // The mitigation may have remapped rows; refresh the
            // cached translation of the request whose ACT triggered it.
            invalidateReqCache(c, *act);
            physRowOf(chIdx, c, *act);
        }
        return true;
    }
    if (preId == kNoRequest)
        return false;
    const MemRequest &head = q.banks[preFlat].reqs.front();
    issueCmd(c, head.coord.rank, DramCommand::Precharge, head.coord.bank,
             0, now);
    stats_.inc(h_.rowConflicts);
    return true;
}

bool
MemoryController::bankHasPendingHit(const ChannelState &c,
                                    std::uint32_t flat) const
{
    // Only requests whose cached translation is current can register
    // as hits, and writes count only while the channel is draining
    // (otherwise a parked write would wedge the bank open forever).
    return c.readQ.banks[flat].hits > 0 ||
           (c.draining && c.writeQ.banks[flat].hits > 0);
}

bool
MemoryController::idleClose(ChannelState &c, Cycle now)
{
    // Closed-page policy: proactively precharge one bank per tick
    // whose open row has no queued hit.
    if (c.openCount == 0)
        return false;
    const std::uint32_t banks =
        org_.ranksPerChannel * org_.banksPerRank;
    for (std::uint32_t step = 0; step < banks; ++step) {
        const std::uint32_t flat = (c.closeCursor + step) % banks;
        if (c.openRowArr[flat] == kInvalidRow)
            continue;
        const std::uint32_t ri = flat / org_.banksPerRank;
        const std::uint32_t bi = flat % org_.banksPerRank;
        Rank &rank = c.ranks[ri];
        Bank &bank = rank.bank(bi);
        if (rank.refreshing(now) || bank.blocked(now) || !bank.rowOpen())
            continue;
        if (bankHasPendingHit(c, flat))
            continue;
        if (!rank.canIssue(DramCommand::Precharge, bi, 0, now))
            continue;
        issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
        stats_.inc(h_.idleCloses);
        c.closeCursor = (flat + 1) % banks;
        return true;
    }
    return false;
}

void
MemoryController::tickChannel(std::uint32_t ch, Cycle now)
{
    ChannelState &c = channels_[ch];
    if (manageRefresh(c, now))
        return;
    if (startMigration(c, now))
        return;
    updateDrainState(c);
    bool issued = false;
    if (c.draining) {
        issued = serviceQueue(ch, c, c.writeQ, true, now) ||
                 serviceQueue(ch, c, c.readQ, false, now);
    } else {
        issued = serviceQueue(ch, c, c.readQ, false, now);
        if (!issued && c.writeQ.queued > 0 && c.readQ.queued == 0)
            issued = serviceQueue(ch, c, c.writeQ, true, now);
    }
    if (!issued && cfg_.pagePolicy == PagePolicy::Closed)
        idleClose(c, now);
}

void
MemoryController::resetEpochCounters()
{
    for (auto &c : channels_) {
        for (auto &rank : c.ranks) {
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b)
                rank.bank(b).resetEpochCounters();
        }
    }
}

Bank &
MemoryController::bankAt(std::uint32_t channel, std::uint32_t bank)
{
    ChannelState &c = channels_.at(channel);
    const std::uint32_t ri = bank / org_.banksPerRank;
    const std::uint32_t bi = bank % org_.banksPerRank;
    return c.ranks.at(ri).bank(bi);
}

const Bank &
MemoryController::bankAt(std::uint32_t channel, std::uint32_t bank) const
{
    const ChannelState &c = channels_.at(channel);
    const std::uint32_t ri = bank / org_.banksPerRank;
    const std::uint32_t bi = bank % org_.banksPerRank;
    return c.ranks.at(ri).bank(bi);
}

bool
MemoryController::idle(Cycle now) const
{
    for (const auto &c : channels_) {
        if (!c.pendingReads.empty())
            return false;
        if (c.readQ.queued > 0 || c.writeQ.queued > 0 || c.migCount > 0)
            return false;
        for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
            const Rank &rank = c.ranks[ri];
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
                if (rank.bank(b).blocked(now))
                    return false;
            }
        }
    }
    return true;
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    Cycle next = kNoCycle;
    for (const auto &c : channels_) {
        // A queued completion bounds the next effect; any queued
        // request, pending migration, owed refresh, or — under the
        // closed-page policy — an open bank means the channel can
        // act (or count a p2_skip_* stat) on the very next bus edge.
        // Early-returning now + 1 below is safe alongside this: it is
        // the smallest value any channel could contribute.
        if (!c.pendingReads.empty()) {
            next = std::min(next,
                            std::max(c.pendingReads.top().done, now + 1));
        }
        if (c.readQ.queued > 0 || c.writeQ.queued > 0 || c.migCount > 0)
            return now + 1;
        bool debtPending = false;
        for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
            if (c.refreshDebt[ri] > 0) {
                debtPending = true;
                break;
            }
        }
        if (debtPending)
            return now + 1;
        if (cfg_.pagePolicy == PagePolicy::Closed && c.openCount > 0)
            return now + 1;
        // Fully drained: the next effect is refresh debt accrual.
        for (const Cycle due : c.nextRefreshDue)
            next = std::min(next, std::max(due, now + 1));
    }
    return next;
}

} // namespace srs
