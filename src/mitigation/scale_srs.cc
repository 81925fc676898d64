#include "mitigation/scale_srs.hh"

#include "common/logging.hh"

namespace srs
{

ScaleSrs::ScaleSrs(MemoryController &ctrl, AggressorTracker &tracker,
                   const MitigationConfig &cfg, const SrsConfig &srsCfg,
                   const ScaleSrsConfig &scaleCfg)
    : Srs(ctrl, tracker, cfg, srsCfg), scaleCfg_(scaleCfg)
{
    if (scaleCfg_.outlierSwaps == 0)
        fatal("Scale-SRS outlier threshold must be nonzero");
}

void
ScaleSrs::mitigate(std::uint32_t channel, std::uint32_t bank,
                   RowId physRow)
{
    RowIndirection &r = rit(channel, bank);
    // The hammered logical row (resident of the crossing slot) — this
    // is what the LLC can absorb if the slot turns out to be an
    // outlier.
    const RowId logical = r.logicalAt(physRow);

    // Swap-only mitigation + counter update, as in SRS.
    Srs::mitigate(channel, bank, physRow);

    const std::uint32_t banksPerChannel =
        ctrl_.org().ranksPerChannel * ctrl_.org().banksPerRank;
    const auto &file = counters(channel, bank % banksPerChannel);
    const std::uint32_t count = file.countOf(
        physRow, epochId_ % (1u << 19));

    if (count >= scaleCfg_.outlierSwaps * cfg_.ts()) {
        stats_.inc("outliers_detected");
        // A full pin-buffer refuses the pin; the row then keeps only
        // SRS's swap protection until the epoch ends.
        if (pinHook_)
            stats_.inc(pinHook_(channel, bank, logical) ? "rows_pinned"
                                                        : "pins_rejected");
    }
}

} // namespace srs
