#include "tracker/misra_gries.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

MisraGriesTracker::MisraGriesTracker(const MisraGriesConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.ts == 0)
        fatal("MisraGries: T_S must be nonzero");
    const std::uint64_t minEntries =
        ceilDiv(cfg_.actMaxPerEpoch, cfg_.ts);
    entriesPerBank_ = static_cast<std::uint32_t>(std::ceil(
        static_cast<double>(minEntries) * cfg_.overProvision));
    const std::uint32_t banks = cfg_.channels * cfg_.banksPerChannel;
    tables_.reserve(banks);
    for (std::uint32_t i = 0; i < banks; ++i)
        tables_.emplace_back(entriesPerBank_);
}

bool
MisraGriesTracker::recordActivation(std::uint32_t channel,
                                    std::uint32_t bank, RowId physRow,
                                    Cycle now)
{
    (void)now;
    const std::uint32_t idx = channel * cfg_.banksPerChannel + bank;
    SRS_ASSERT(idx < tables_.size(), "bank index out of range");
    SpaceSaving &table = tables_[idx];
    const std::uint32_t count = table.increment(physRow);
    if (count >= cfg_.ts) {
        table.reset(physRow);
        return true;
    }
    return false;
}

void
MisraGriesTracker::resetEpoch()
{
    for (SpaceSaving &t : tables_)
        t.clear();
}

} // namespace srs
