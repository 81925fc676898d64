/**
 * @file
 * Hydra hybrid tracker (Qureshi et al., ISCA 2022; paper Section
 * VII-C evaluates RRS and Scale-SRS on top of it).
 *
 * Two-level design:
 *  - Group Count Table (GCT): small on-chip counters, one per group
 *    of rows.  While a group's count is below the group threshold no
 *    per-row state is kept.
 *  - Row Count Table (RCT): per-row counters stored *in DRAM*,
 *    cached by an on-chip Row Count Cache (RCC).  Once a group goes
 *    hot, every activation needs the row's counter; RCC misses
 *    create real DRAM traffic — the reason RRS+Hydra degrades so
 *    much at low T_RH (Figure 16).
 *
 * RCT traffic is injected through a hook as CounterAccess migration
 * jobs so it occupies banks like any other mitigation traffic.
 */

#ifndef SRS_TRACKER_HYDRA_HH
#define SRS_TRACKER_HYDRA_HH

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "memctrl/request.hh"
#include "tracker/tracker.hh"

namespace srs
{

/** Hydra configuration. */
struct HydraConfig
{
    std::uint32_t ts = 800;             ///< swap threshold T_S
    std::uint32_t channels = 2;
    std::uint32_t banksPerChannel = 16;
    std::uint32_t rowsPerBank = 128 * 1024;
    std::uint32_t rowsPerGroup = 128;   ///< GCT granularity
    std::uint32_t rccEntries = 4096;    ///< per channel
    /** Group goes hot at ts * groupThresholdFrac activations. */
    double groupThresholdFrac = 0.5;
    /** Cycles one RCT access occupies the bank (set from timing). */
    Cycle rctAccessCycles = 200;
    /** Row (at the bottom of the bank) holding RCT counters. */
    std::uint32_t rctRows = 64;
};

/** Hybrid group/row tracker with in-DRAM counter traffic. */
class HydraTracker : public AggressorTracker
{
  public:
    /** Hook used to inject RCT DRAM accesses. */
    using TrafficHook = std::function<void(
        std::uint32_t channel, std::uint32_t bank, MigrationJob job)>;

    explicit HydraTracker(const HydraConfig &cfg);

    /** Install the DRAM traffic hook (nullptr disables traffic). */
    void setTrafficHook(TrafficHook hook) { traffic_ = std::move(hook); }

    bool recordActivation(std::uint32_t channel, std::uint32_t bank,
                          RowId physRow, Cycle now) override;
    void resetEpoch() override;
    const char *name() const override { return "hydra"; }

    const StatSet &stats() const { return stats_; }

  private:
    /** Per-channel LRU row-count cache. */
    struct Rcc
    {
        struct Entry
        {
            std::uint32_t count;
            std::list<std::uint64_t>::iterator lruIt;
        };
        std::unordered_map<std::uint64_t, Entry> map;
        std::list<std::uint64_t> lru;   ///< front = most recent
    };

    std::uint64_t rowKey(std::uint32_t bank, RowId row) const;
    std::uint32_t groupThreshold() const;

    HydraConfig cfg_;
    /** GCT: [channel*banks + bank][group] */
    std::vector<std::vector<std::uint32_t>> gct_;
    std::vector<Rcc> rcc_;  ///< one per channel
    TrafficHook traffic_;
    StatSet stats_;
};

} // namespace srs

#endif // SRS_TRACKER_HYDRA_HH
