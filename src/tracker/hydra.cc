#include "tracker/hydra.hh"

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

HydraTracker::HydraTracker(const HydraConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.ts == 0 || cfg_.rowsPerGroup == 0)
        fatal("Hydra: degenerate configuration");
    const std::uint64_t groupsPerBank =
        ceilDiv(cfg_.rowsPerBank, cfg_.rowsPerGroup);
    gct_.assign(cfg_.channels * cfg_.banksPerChannel,
                std::vector<std::uint32_t>(groupsPerBank, 0));
    rcc_.resize(cfg_.channels);
}

std::uint64_t
HydraTracker::rowKey(std::uint32_t bank, RowId row) const
{
    return (static_cast<std::uint64_t>(bank) << 32) | row;
}

std::uint32_t
HydraTracker::groupThreshold() const
{
    const auto thr = static_cast<std::uint32_t>(
        static_cast<double>(cfg_.ts) * cfg_.groupThresholdFrac);
    return thr == 0 ? 1 : thr;
}

bool
HydraTracker::recordActivation(std::uint32_t channel, std::uint32_t bank,
                               RowId physRow, Cycle now)
{
    (void)now;
    const std::uint32_t flat = channel * cfg_.banksPerChannel + bank;
    SRS_ASSERT(flat < gct_.size(), "bank index out of range");
    const std::uint32_t group = physRow / cfg_.rowsPerGroup;
    std::uint32_t &gcount = gct_[flat][group];

    if (gcount < groupThreshold()) {
        ++gcount;
        return false;
    }

    // Hot group: per-row tracking through the RCC.
    Rcc &rcc = rcc_[channel];
    const std::uint64_t key = rowKey(bank, physRow);
    auto it = rcc.map.find(key);
    if (it == rcc.map.end()) {
        stats_.inc("rcc_misses");
        // RCT read (and write-back of the victim) occupy the bank.
        if (traffic_) {
            MigrationJob job;
            job.kind = MigrationJob::Kind::CounterAccess;
            job.duration = cfg_.rctAccessCycles;
            const RowId counterRow = group % cfg_.rctRows;
            job.charges.push_back(RowCharge{counterRow, 1});
            traffic_(channel, bank, std::move(job));
        }
        if (rcc.map.size() >= cfg_.rccEntries) {
            const std::uint64_t victim = rcc.lru.back();
            rcc.lru.pop_back();
            rcc.map.erase(victim);
            stats_.inc("rcc_evictions");
        }
        rcc.lru.push_front(key);
        // Pessimistic initialization: the row is assumed to have
        // contributed the whole group threshold (Hydra's safe init).
        Rcc::Entry entry{groupThreshold(), rcc.lru.begin()};
        it = rcc.map.emplace(key, entry).first;
    } else {
        stats_.inc("rcc_hits");
        rcc.lru.splice(rcc.lru.begin(), rcc.lru, it->second.lruIt);
    }

    if (++it->second.count >= cfg_.ts) {
        it->second.count = 0;
        return true;
    }
    return false;
}

void
HydraTracker::resetEpoch()
{
    for (auto &bank : gct_)
        std::fill(bank.begin(), bank.end(), 0);
    for (Rcc &r : rcc_) {
        r.map.clear();
        r.lru.clear();
    }
}

} // namespace srs
