#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace srs
{

const char *
mitigationKindName(MitigationKind kind)
{
    switch (kind) {
      case MitigationKind::None:        return "baseline";
      case MitigationKind::Rrs:         return "rrs";
      case MitigationKind::RrsNoUnswap: return "rrs-no-unswap";
      case MitigationKind::Srs:         return "srs";
      case MitigationKind::ScaleSrs:    return "scale-srs";
      case MitigationKind::BlockHammer: return "blockhammer";
      case MitigationKind::Aqua:        return "aqua";
    }
    return "?";
}

Cycle
SystemConfig::effectiveEpochLen() const
{
    if (epochLen != 0)
        return epochLen;
    return nsToCycles(kRefreshIntervalSec * 1e9, timingNs.cpuFreqGHz);
}

std::uint64_t
SystemConfig::actMaxPerEpoch() const
{
    const double epochSec =
        static_cast<double>(effectiveEpochLen()) /
        (timingNs.cpuFreqGHz * 1e9);
    // Refresh steals tRFC out of every tREFI window, so the share
    // follows the cell's effective timings: a DDR5 preset (or a
    // tREFI/tRFC override) resizes the activation budget — and the
    // trackers derived from it — exactly as it resizes the real
    // controller's refresh overhead.
    const double refreshShare =
        epochSec * (timingNs.tRFC / timingNs.tREFI);
    const double acts =
        (epochSec - refreshShare) / (timingNs.tRC * 1e-9);
    if (!(acts >= 1.0)) {
        fatal("refresh epoch of ", effectiveEpochLen(), " cycles (",
              epochSec * 1e9, " ns) leaves less than one tRC (",
              timingNs.tRC, " ns) after refresh: no row can be "
              "activated in it");
    }
    return static_cast<std::uint64_t>(acts);
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), epochLen_(cfg.effectiveEpochLen()),
      timing_(DramTiming::fromNs(cfg.timingNs)),
      pins_(kPinBufferEntries, cfg.org.rowBytes),
      nextEpochAt_(epochLen_)
{
    cfg_.org.validate();
    // The trackers below divide by the swap rate.
    checkSwapThreshold(cfg_.mit.trh, cfg_.mit.swapRate);
    ctrl_ = std::make_unique<MemoryController>(cfg_.org, timing_,
                                               cfg_.memCtrl);

    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;

    switch (cfg_.tracker) {
      case TrackerKind::MisraGries: {
        MisraGriesConfig t;
        t.ts = cfg_.mit.ts();
        t.actMaxPerEpoch = cfg_.actMaxPerEpoch();
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        tracker_ = std::make_unique<MisraGriesTracker>(t);
        break;
      }
      case TrackerKind::Hydra: {
        HydraConfig t;
        t.ts = cfg_.mit.ts();
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        t.rowsPerBank = cfg_.org.rowsPerBank;
        t.rctAccessCycles = timing_.tRC + timing_.tCAS + timing_.tBL;
        auto hydra = std::make_unique<HydraTracker>(t);
        hydra->setTrafficHook(
            [this](std::uint32_t ch, std::uint32_t bank,
                   MigrationJob job) {
                ctrl_->scheduleMigration(ch, bank, std::move(job));
            });
        tracker_ = std::move(hydra);
        break;
      }
    }

    switch (cfg_.mitigation) {
      case MitigationKind::None:
        mitigation_ = std::make_unique<NoMitigation>(*ctrl_, *tracker_,
                                                     cfg_.mit);
        break;
      case MitigationKind::Rrs:
        mitigation_ = std::make_unique<Rrs>(*ctrl_, *tracker_, cfg_.mit,
                                            RrsConfig{true});
        break;
      case MitigationKind::RrsNoUnswap:
        mitigation_ = std::make_unique<Rrs>(*ctrl_, *tracker_, cfg_.mit,
                                            RrsConfig{false});
        break;
      case MitigationKind::Srs:
        mitigation_ = std::make_unique<Srs>(*ctrl_, *tracker_, cfg_.mit,
                                            cfg_.srsCfg);
        break;
      case MitigationKind::ScaleSrs: {
        auto scale = std::make_unique<ScaleSrs>(
            *ctrl_, *tracker_, cfg_.mit, cfg_.srsCfg, cfg_.scaleCfg);
        scale->setPinHook([this](std::uint32_t ch, std::uint32_t bank,
                                 RowId logical) {
            const std::uint32_t rank = bank / cfg_.org.banksPerRank;
            const std::uint32_t bankInRank =
                bank % cfg_.org.banksPerRank;
            const Addr base = ctrl_->addressMap().rowBaseAddr(
                ch, rank, bankInRank, logical);
            // A row pinned again in the same epoch stays pinned.
            if (pins_.pinned(base))
                return true;
            if (pins_.pin(base) == nullptr)
                return false;
            // A refused access to the row now hits.
            wakeRefused(now_ + 1);
            return true;
        });
        mitigation_ = std::move(scale);
        break;
      }
      case MitigationKind::BlockHammer:
        mitigation_ = std::make_unique<BlockHammer>(*ctrl_, *tracker_,
                                                    cfg_.mit);
        break;
      case MitigationKind::Aqua:
        mitigation_ = std::make_unique<Aqua>(*ctrl_, *tracker_,
                                             cfg_.mit);
        break;
    }

    // The baseline runs without a listener: no remap, no tracking
    // overheads — "a baseline that does not mitigate against RH".
    if (cfg_.mitigation != MitigationKind::None)
        ctrl_->setListener(mitigation_.get());

    ctrl_->setReadCallback(
        [this](const MemRequest &req) { onReadDone(req); });

    traces_.resize(cfg_.numCores);
    refused_.resize(cfg_.numCores);
    pinnedAbsorbed_ = stats_.handle("pinned_absorbed");
    pinnedRowsRestored_ = stats_.handle("pinned_rows_restored");
    pinnedRestoresDropped_ = stats_.handle("pinned_restores_dropped");
}

void
System::setTrace(CoreId core, std::unique_ptr<TraceSource> trace)
{
    SRS_ASSERT(core < cfg_.numCores, "core index out of range");
    traces_[core] = std::move(trace);
}

void
System::onReadDone(const MemRequest &req)
{
    const auto it = outstanding_.find(req.id);
    if (it == outstanding_.end())
        return; // request issued by a non-core agent
    const auto [core, token] = it->second;
    outstanding_.erase(it);
    cores_[core]->complete(token, now_);
}

CoreMemoryInterface::Outcome
System::access(Addr addr, bool isWrite, CoreId core, std::uint64_t token,
               Cycle now, Cycle &latencyOut)
{
    Refusal &refusal = refused_[core];
    refusal.active = false;
    // The pin-buffer fronts everything (Section V-C): accesses to
    // pinned rows hit in the LLC and never reach DRAM.
    if (pins_.lookup(addr) != nullptr) {
        stats_.inc(pinnedAbsorbed_);
        latencyOut = kPinnedHitLatency;
        return Outcome::Hit;
    }

    // The trace is already a post-LLC miss stream.
    const Addr line = addr & ~static_cast<Addr>(cfg_.org.lineBytes - 1);
    if (!ctrl_->canAccept(addr, isWrite)) {
        refusal = {true, ctrl_->addressMap().decode(addr).channel, isWrite,
                   line};
        return Outcome::Reject;
    }
    if (isWrite) {
        ctrl_->enqueue(addr, true, core, now);
        // Reads of this line now forward from the write queue.  The
        // cores after this one tick later in this cycle.
        for (CoreId k = 0; k < cores_.size(); ++k) {
            const Refusal &r = refused_[k];
            if (r.active && !r.isWrite && r.line == line)
                cores_[k]->wake(k > core ? now : now + 1);
        }
        latencyOut = 1;
        return Outcome::Hit;
    }
    const std::uint64_t id = ctrl_->enqueue(addr, false, core, now);
    outstanding_.emplace(id, std::make_pair(core, token));
    return Outcome::Pending;
}

void
System::onEpochBoundary()
{
    ++epochs_;
    // Sample the Row Hammer ground truth before counters reset.
    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;
    for (std::uint32_t ch = 0; ch < cfg_.org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            maxEpochActs_ = std::max(
                maxEpochActs_, ctrl_->bankAt(ch, b).maxActivations());
        }
    }
    ctrl_->resetEpochCounters();
    mitigation_->onEpochEnd(now_, epochLen_);

    // Pinned rows are evicted at the refresh boundary; restore their
    // contents with posted writes (one per row: the full-row restore
    // is modelled at row granularity).  A restore the write queue
    // refuses is dropped and counted as such, never as restored.
    for (const Addr rowBase : pins_.entries()) {
        if (ctrl_->canAccept(rowBase, true)) {
            ctrl_->enqueue(rowBase, true, 0, now_);
            stats_.inc(pinnedRowsRestored_);
        } else {
            stats_.inc(pinnedRestoresDropped_);
        }
    }
    pins_.clear();
    // Restores are posted writes.  A refused read one of them could
    // forward would be to a pinned row, which hits instead, so this
    // once-an-epoch wake is only a guard.
    wakeRefused(now_ + 1);
}

void
System::wakeRefused(Cycle at)
{
    for (CoreId k = 0; k < cores_.size(); ++k) {
        if (refused_[k].active)
            cores_[k]->wake(at);
    }
}

void
System::wakeOnFreedSlots()
{
    // Only a controller tick frees a queue slot, and the cores tick
    // before the controller, so a freed slot is first taken next cycle.
    for (CoreId k = 0; k < cores_.size(); ++k) {
        const Refusal &r = refused_[k];
        if (r.active && !ctrl_->queueFull(r.channel, r.isWrite))
            cores_[k]->wake(now_ + 1);
    }
}

void
System::run(Cycle cycles)
{
    // Lazily build cores on first run so all traces are attached.
    if (cores_.empty()) {
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            SRS_ASSERT(traces_[c] != nullptr,
                       "core ", c, " has no trace attached");
            cores_.push_back(std::make_unique<Core>(c, cfg_.core,
                                                    *traces_[c], *this));
        }
    }

    const Cycle end = now_ + cycles;
    if (cfg_.referenceLoop)
        runReference(end);
    else
        runEventDriven(end);
}

void
System::runReference(Cycle end)
{
    // Tick-per-cycle reference: every component, every cycle.  The
    // event-driven loop below must be byte-identical to this one.
    const Cycle busClock = timing_.busClock;
    while (now_ < end) {
        for (auto &core : cores_)
            core->tick(now_);
        if (now_ % busClock == 0) {
            ctrl_->tick(now_);
            mitigation_->tick(now_);
        }
        if (now_ >= nextEpochAt_) {
            onEpochBoundary();
            nextEpochAt_ += epochLen_;
        }
        ++now_;
    }
}

void
System::runEventDriven(Cycle end)
{
    // Event-driven skip-ahead.  Each visited cycle replays exactly
    // what the reference loop would do at that cycle; the loop then
    // jumps now_ to the earliest cycle at which any component's tick
    // is not provably a no-op (cores report wake cycles, the
    // controller and mitigation report their next deadlines on the
    // bus-clock lattice, and epoch boundaries are always visited).
    // Skipping is only ever an optimization: visiting a cycle where
    // every tick is a no-op cannot change state, so correctness
    // reduces to never jumping past a non-no-op cycle.  A core a
    // full queue refused sleeps; access(), the pin hook, the epoch
    // boundary and wakeOnFreedSlots() wake it when its retry may pass.
    const Cycle busClock = timing_.busClock;
    while (now_ < end) {
        // A core woken for this cycle by an earlier core's posted
        // write is reached later in this loop.
        for (auto &core : cores_) {
            if (core->nextEventAt() <= now_)
                core->tick(now_);
        }
        if (now_ % busClock == 0) {
            ctrl_->tick(now_);
            mitigation_->tick(now_);
            wakeOnFreedSlots();
        }
        if (now_ >= nextEpochAt_) {
            onEpochBoundary();
            nextEpochAt_ += epochLen_;
        }

        Cycle next = std::min(end, nextEpochAt_);
        for (const auto &core : cores_) {
            const Cycle wake = core->nextEventAt();
            if (wake != kNoCycle)
                next = std::min(next, wake);
        }
        const Cycle mem = std::min(ctrl_->nextEventAt(now_),
                                   mitigation_->nextEventAt(now_));
        if (mem != kNoCycle) {
            // These only tick on bus edges; round up to the lattice.
            const Cycle onBus =
                ((mem + busClock - 1) / busClock) * busClock;
            next = std::min(next, onBus);
        }
        now_ = std::max(now_ + 1, next);
    }
}

double
System::aggregateIpc() const
{
    double total = 0.0;
    for (const auto &core : cores_)
        total += core->ipc(now_);
    return total;
}

double
System::coreIpc(CoreId core) const
{
    SRS_ASSERT(core < cores_.size(), "core index out of range");
    return cores_[core]->ipc(now_);
}

std::uint64_t
System::maxEpochActivations() const
{
    std::uint64_t best = maxEpochActs_;
    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;
    for (std::uint32_t ch = 0; ch < cfg_.org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            best = std::max(best,
                            ctrl_->bankAt(ch, b).maxActivations());
        }
    }
    return best;
}

} // namespace srs
