#include "mitigation/srs.hh"

namespace srs
{

Srs::Srs(MemoryController &ctrl, AggressorTracker &tracker,
         const MitigationConfig &cfg, const SrsConfig &srsCfg)
    : Mitigation(ctrl, tracker, cfg), srsCfg_(srsCfg)
{
    // Counter read-modify-write: one activation plus a short burst.
    counterAccessCycles_ = ctrl_.timing().tRC + ctrl_.timing().tCAS +
                           ctrl_.timing().tBL;
    const std::uint32_t banks = ctrl_.org().channels *
        ctrl_.org().ranksPerChannel * ctrl_.org().banksPerRank;
    counters_.reserve(banks);
    for (std::uint32_t i = 0; i < banks; ++i)
        counters_.emplace_back(ctrl_.org().rowsPerBank);
}

const SwapTrackingCounters &
Srs::counters(std::uint32_t channel, std::uint32_t bank) const
{
    const std::uint32_t banksPerChannel =
        ctrl_.org().ranksPerChannel * ctrl_.org().banksPerRank;
    return counters_.at(channel * banksPerChannel + bank);
}

std::uint32_t
Srs::trackSwap(std::uint32_t channel, std::uint32_t bank, RowId physRow,
               std::uint32_t latent)
{
    const std::uint32_t banksPerChannel =
        ctrl_.org().ranksPerChannel * ctrl_.org().banksPerRank;
    SwapTrackingCounters &file =
        counters_[channel * banksPerChannel + bank];
    const std::uint32_t count =
        file.recordSwap(physRow, epochId_ % file.epochIdLimit(),
                        cfg_.ts() + latent);

    if (srsCfg_.modelCounterTraffic) {
        // The counter row holding this row's 32-bit counter lives in
        // the reserved low region and takes one activation per update.
        MigrationJob job;
        job.kind = MigrationJob::Kind::CounterAccess;
        job.duration = counterAccessCycles_;
        const std::uint32_t counterRows =
            file.counterRows(ctrl_.org().rowBytes);
        job.charges.push_back(
            RowCharge{physRow % std::max(1u, counterRows), 1});
        schedule(channel, bank, std::move(job));
    }

    if (count >= srsCfg_.detectMultiple * cfg_.ts())
        stats_.inc("attacks_detected");
    return count;
}

void
Srs::mitigate(std::uint32_t channel, std::uint32_t bank, RowId physRow)
{
    RowIndirection &r = rit(channel, bank);

    // Swap-only: pick a fresh partner; never unswap first.
    const RowId partner = pickSwapPartner(r, physRow);
    r.swapPhysical(physRow, partner, epochId_);

    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = swapCycles_;
    job.charges.push_back(RowCharge{physRow, 1});
    job.charges.push_back(RowCharge{partner, 1});
    schedule(channel, bank, std::move(job));
    stats_.inc("swaps");

    trackSwap(channel, bank, physRow, 1);
}

void
Srs::onEpochEnd(Cycle now, Cycle epochLen)
{
    Mitigation::onEpochEnd(now, epochLen);
    if (epochId_ != 0)
        return;
    // The on-chip epoch register just showed all 1s and wrapped:
    // sweep every counter row.  Cost: one activation per counter
    // row per bank (~64 rows, ~41 us per the paper), charged as a
    // single long counter-access job.
    const auto &org = ctrl_.org();
    const std::uint32_t banksPerChannel =
        org.ranksPerChannel * org.banksPerRank;
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            SwapTrackingCounters &file =
                counters_[ch * banksPerChannel + b];
            file.resetAll();
            if (!srsCfg_.modelCounterTraffic)
                continue;
            const std::uint32_t rows =
                file.counterRows(org.rowBytes);
            MigrationJob job;
            job.kind = MigrationJob::Kind::CounterAccess;
            job.duration = counterAccessCycles_ * rows;
            for (std::uint32_t r = 0; r < rows; ++r)
                job.charges.push_back(RowCharge{r, 1});
            schedule(ch, b, std::move(job));
        }
    }
    stats_.inc("counter_sweeps");
}

} // namespace srs
