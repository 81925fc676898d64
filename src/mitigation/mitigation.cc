#include "mitigation/mitigation.hh"

#include "common/logging.hh"

namespace srs
{

void
checkSwapThreshold(std::uint32_t trh, std::uint32_t swapRate)
{
    if (swapRate == 0 || trh / swapRate == 0) {
        fatal("trh=", trh, " rate=", swapRate,
              ": T_S = trh/rate must be at least 1 (want a rate in "
              "1..trh)");
    }
}

Mitigation::Mitigation(MemoryController &ctrl, AggressorTracker &tracker,
                       const MitigationConfig &cfg)
    : ctrl_(ctrl), tracker_(tracker), cfg_(cfg), rng_(cfg.seed),
      swapCycles_(4 * ctrl.timing().rowTransferCycles(
                          ctrl.org().linesPerRow())),
      banksPerChannel_(ctrl.org().ranksPerChannel *
                       ctrl.org().banksPerRank)
{
    checkSwapThreshold(cfg_.trh, cfg_.swapRate);
    const std::uint32_t banks = ctrl_.org().channels * banksPerChannel_;
    rits_.reserve(banks);
    for (std::uint32_t i = 0; i < banks; ++i)
        rits_.emplace_back(ctrl_.org().rowsPerBank);
}

RowIndirection &
Mitigation::rit(std::uint32_t channel, std::uint32_t bank)
{
    const std::uint32_t idx = channel * banksPerChannel_ + bank;
    SRS_ASSERT(idx < rits_.size(), "bank index out of range");
    return rits_[idx];
}

const RowIndirection &
Mitigation::indirection(std::uint32_t channel, std::uint32_t bank) const
{
    const std::uint32_t idx = channel * banksPerChannel_ + bank;
    SRS_ASSERT(idx < rits_.size(), "bank index out of range");
    return rits_[idx];
}

RowId
Mitigation::remapRow(std::uint32_t channel, std::uint32_t bank,
                     RowId logical)
{
    return rit(channel, bank).remap(logical);
}

void
Mitigation::onActivate(std::uint32_t channel, std::uint32_t bank,
                       RowId physRow, Cycle now)
{
    if (tracker_.recordActivation(channel, bank, physRow, now)) {
        stats_.inc("mitigations");
        mitigate(channel, bank, physRow);
    }
}

RowId
Mitigation::pickSwapPartner(const RowIndirection &r, RowId avoid)
{
    const std::uint32_t rows = r.rowsPerBank();
    SRS_ASSERT(cfg_.reservedLowRows + 2 < rows, "bank too small");
    for (int attempts = 0; attempts < 64; ++attempts) {
        const RowId cand = static_cast<RowId>(
            cfg_.reservedLowRows +
            rng_.nextBelow(rows - cfg_.reservedLowRows));
        if (cand != avoid && !r.displaced(cand) &&
            r.remap(cand) == cand) {
            return cand;
        }
    }
    // Under extreme RIT pressure fall back to any row != avoid.
    stats_.inc("partner_fallbacks");
    RowId cand = avoid;
    while (cand == avoid) {
        cand = static_cast<RowId>(
            cfg_.reservedLowRows +
            rng_.nextBelow(rows - cfg_.reservedLowRows));
    }
    return cand;
}

void
Mitigation::schedule(std::uint32_t channel, std::uint32_t bank,
                     MigrationJob job)
{
    ctrl_.scheduleMigration(channel, bank, std::move(job));
}

void
Mitigation::tick(Cycle now)
{
    if (nextLazyAt_ == kNoCycle || now < nextLazyAt_)
        return;
    nextLazyAt_ += lazyInterval_;
    lazyStep();
}

bool
Mitigation::placeBackOne(std::uint32_t channel, std::uint32_t bank)
{
    RowIndirection &r = rit(channel, bank);
    const RowId logical = r.findStale(epochId_);
    if (logical == kInvalidRow)
        return false;
    const RowId pos = r.remap(logical);
    SRS_ASSERT(pos != logical, "stale identity mapping");
    // Going home re-tags the touched mappings with the current epoch;
    // for a clean tuple both collapse to identity anyway.
    r.swapPhysical(pos, logical, epochId_);

    // The row goes home through the swap buffer while the displaced
    // resident parks in the place-back buffer (Figure 8); cost-wise
    // it is one two-row movement.
    MigrationJob job;
    job.kind = MigrationJob::Kind::PlaceBack;
    job.duration = swapCycles_;
    job.charges.push_back(RowCharge{pos, 1});
    job.charges.push_back(RowCharge{logical, 1});
    schedule(channel, bank, std::move(job));
    stats_.inc(placeBackStat_);
    return true;
}

void
Mitigation::lazyStep()
{
    for (std::uint32_t ch = 0; ch < ctrl_.org().channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel_; ++b) {
            if (placeBackOne(ch, b))
                return;
        }
    }
    nextLazyAt_ = kNoCycle; // nothing stale left this epoch
}

void
Mitigation::onEpochEnd(Cycle now, Cycle epochLen)
{
    tracker_.resetEpoch();
    // 19-bit epoch register semantics (Section IV-F).
    epochId_ = (epochId_ + 1) & ((1u << 19) - 1);

    // Arm the lazy-eviction pacing for the new epoch: spread the
    // stale-entry cleanup evenly across the whole epoch.
    std::uint64_t stale = 0;
    const auto &org = ctrl_.org();
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel_; ++b)
            stale += rit(ch, b).staleCount(epochId_);
    }
    if (stale == 0) {
        nextLazyAt_ = kNoCycle;
        return;
    }
    lazyInterval_ = std::max<Cycle>(1, epochLen / stale);
    nextLazyAt_ = now + lazyInterval_;
    stats_.set("stale_entries_last_epoch", stale);
}

} // namespace srs
