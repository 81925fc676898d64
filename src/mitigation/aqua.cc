#include "mitigation/aqua.hh"

#include "common/logging.hh"

namespace srs
{

Aqua::Aqua(MemoryController &ctrl, AggressorTracker &tracker,
           const MitigationConfig &cfg, const AquaConfig &aquaCfg)
    : Mitigation(ctrl, tracker, cfg), aquaCfg_(aquaCfg),
      banksPerChannel_(ctrl.org().ranksPerChannel *
                       ctrl.org().banksPerRank)
{
    const std::uint32_t rows = ctrl_.org().rowsPerBank;
    quarantineRows_ = aquaCfg_.quarantineRows != 0
        ? aquaCfg_.quarantineRows
        : rows / 100;
    if (quarantineRows_ < 2 || quarantineRows_ >= rows / 2)
        fatal("aqua: quarantine must cover [2, 50%) of the bank");
    quarantineBase_ = rows - quarantineRows_;

    // An AQUA migration moves one row one way: two row transfers
    // (read out, write into the quarantine slot).
    moveCycles_ = 2 * ctrl_.timing().rowTransferCycles(
        ctrl_.org().linesPerRow());

    states_.resize(ctrl_.org().channels * banksPerChannel_);
}

Aqua::BankState &
Aqua::state(std::uint32_t channel, std::uint32_t bank)
{
    const std::uint32_t idx = channel * banksPerChannel_ + bank;
    SRS_ASSERT(idx < states_.size(), "bank index out of range");
    return states_[idx];
}

void
Aqua::evictSlot(std::uint32_t channel, std::uint32_t bank, RowId slot)
{
    RowIndirection &r = rit(channel, bank);
    if (!r.displaced(slot))
        return;
    // Move the tenant towards its home slot.  When the home holds
    // another displaced row the swap parks that row here instead;
    // repeated lazy steps unwind such chains exactly like the SRS
    // place-back sequence of Figure 8.
    const RowId tenant = r.logicalAt(slot);
    r.swapPhysical(slot, tenant, epochId_);

    MigrationJob job;
    job.kind = MigrationJob::Kind::PlaceBack;
    job.duration = moveCycles_;
    job.charges.push_back(RowCharge{slot, 1});
    job.charges.push_back(RowCharge{tenant, 1});
    schedule(channel, bank, std::move(job));
    stats_.inc("quarantine_evictions");
}

void
Aqua::mitigate(std::uint32_t channel, std::uint32_t bank, RowId physRow)
{
    if (inQuarantine(physRow) &&
        !rit(channel, bank).displaced(physRow)) {
        // A quarantine slot with no tenant has no victim rows worth
        // protecting (the region is isolated by design).
        stats_.inc("quarantine_self_acts");
        return;
    }

    BankState &st = state(channel, bank);
    const RowId slot = quarantineBase_ + st.cursor;
    st.cursor = (st.cursor + 1) % quarantineRows_;

    if (slot == physRow) {
        // The cursor handed us the aggressor's own slot (it is a
        // quarantined row being re-hammered); take the next one.
        return mitigate(channel, bank, physRow);
    }

    // Wrapping inside an epoch reuses a slot: restore its tenant
    // first so the move below lands in a free slot.
    RowIndirection &r = rit(channel, bank);
    if (r.displaced(slot)) {
        evictSlot(channel, bank, slot);
        stats_.inc("quarantine_wraps");
    }

    r.swapPhysical(physRow, slot, epochId_);

    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = moveCycles_;
    // One-way move: one ACT at the source, one at the destination.
    // Like SRS, re-migrations leave the original home untouched.
    job.charges.push_back(RowCharge{physRow, 1});
    job.charges.push_back(RowCharge{slot, 1});
    schedule(channel, bank, std::move(job));
    stats_.inc("quarantine_moves");
}

bool
Aqua::restoreOne(std::uint32_t channel, std::uint32_t bank)
{
    RowIndirection &r = rit(channel, bank);
    const RowId logical = r.findStale(epochId_);
    if (logical == kInvalidRow)
        return false;
    const RowId pos = r.remap(logical);
    SRS_ASSERT(pos != logical, "stale identity mapping");
    evictSlot(channel, bank, pos);
    return true;
}

void
Aqua::lazyStep()
{
    const auto &org = ctrl_.org();
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel_; ++b) {
            if (restoreOne(ch, b))
                return;
        }
    }
    nextLazyAt_ = kNoCycle;
}

std::uint64_t
Aqua::storageBitsPerBank() const
{
    // Forward and reverse pointer tables (FPT/RPT): one entry per
    // quarantine slot, each holding a row id plus a valid bit.
    const std::uint64_t rowBits = 17;
    return 2ULL * quarantineRows_ * (rowBits + 1);
}

std::uint32_t
Aqua::quarantineOccupancy(std::uint32_t channel,
                          std::uint32_t bank) const
{
    const RowIndirection &r = indirection(channel, bank);
    std::uint32_t occupied = 0;
    for (std::uint32_t off = 0; off < quarantineRows_; ++off)
        occupied += r.displaced(quarantineBase_ + off) ? 1 : 0;
    return occupied;
}

} // namespace srs
