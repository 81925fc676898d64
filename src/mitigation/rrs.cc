#include "mitigation/rrs.hh"

namespace srs
{

Rrs::Rrs(MemoryController &ctrl, AggressorTracker &tracker,
         const MitigationConfig &cfg, const RrsConfig &rrsCfg)
    : Mitigation(ctrl, tracker, cfg), rrsCfg_(rrsCfg),
      unswapSwapCycles_(2 * swapCycles_) // an unswap-swap is two swaps
{
    placeBackStat_ = "lazy_restores";
}

void
Rrs::mitigate(std::uint32_t channel, std::uint32_t bank, RowId physRow)
{
    RowIndirection &r = rit(channel, bank);
    const RowId logical = r.logicalAt(physRow);
    const RowId home = logical;
    const bool alreadySwapped = r.remap(logical) != logical;

    MigrationJob job;
    if (alreadySwapped && rrsCfg_.immediateUnswap) {
        // Unswap the tuple, then swap the aggressor to a new partner.
        r.swapPhysical(physRow, home, epochId_);
        const RowId partner = pickSwapPartner(r, home);
        r.swapPhysical(home, partner, epochId_);

        job.kind = MigrationJob::Kind::UnswapSwap;
        job.duration = unswapSwapCycles_;
        // The aggressor's original slot takes one or two latent
        // activations depending on swap-buffer scheduling (avg 1.5,
        // paper footnote 2).
        const std::uint32_t homeLatent = rng_.nextBool(0.5) ? 1 : 2;
        job.charges.push_back(RowCharge{home, homeLatent});
        job.charges.push_back(RowCharge{physRow, 1});
        job.charges.push_back(RowCharge{partner, 1});
        stats_.inc("unswap_swaps");
    } else {
        // Initial swap (or a chained swap in no-unswap mode).
        const RowId partner = pickSwapPartner(r, physRow);
        r.swapPhysical(physRow, partner, epochId_);

        job.kind = MigrationJob::Kind::Swap;
        job.duration = swapCycles_;
        job.charges.push_back(RowCharge{physRow, 1});
        job.charges.push_back(RowCharge{partner, 1});
        stats_.inc("swaps");
    }
    schedule(channel, bank, std::move(job));
}

void
Rrs::onEpochEnd(Cycle now, Cycle epochLen)
{
    Mitigation::onEpochEnd(now, epochLen);
    if (rrsCfg_.immediateUnswap)
        return;
    // No-unswap mode: the swap chains must be unravelled *now*; the
    // resulting burst of restores is the latency spike of Figure 4.
    const auto &org = ctrl_.org();
    const std::uint32_t banksPerChannel =
        org.ranksPerChannel * org.banksPerRank;
    std::uint64_t restored = 0;
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            while (placeBackOne(ch, b))
                ++restored;
        }
    }
    stats_.inc("burst_restores", restored);
    nextLazyAt_ = kNoCycle;
}

} // namespace srs
