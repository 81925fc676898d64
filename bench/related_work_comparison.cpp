/**
 * @file
 * Section IX-A comparison: Scale-SRS against the other
 * aggressor-focused defenses, BlockHammer (throttling) and AQUA
 * (quarantine).
 *
 * Three views:
 *  1. BlockHammer's DoS exposure: the enforced per-activation delay
 *     for a blacklisted row as T_RH drops (paper anchor: ~20 us at
 *     T_RH 4800), versus Scale-SRS which delays nothing.
 *  2. Normalized performance on benign workloads at T_RH = 1200
 *     (the grid runs through SweepRunner; SRS_BENCH_THREADS
 *     overrides the worker count).
 *  3. Per-bank SRAM and DRAM capacity costs.
 */

#include "bench_util.hh"
#include "mitigation/aqua.hh"
#include "mitigation/blockhammer.hh"
#include "sim/sweep.hh"
#include "tracker/misra_gries.hh"

namespace
{

using namespace srs;

/** Throttle spacing (us) of a freshly configured BlockHammer. */
double
bhSpacingUs(std::uint32_t trh)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    MisraGriesConfig tcfg;
    tcfg.ts = trh / 6;
    tcfg.actMaxPerEpoch = 1360000;
    MisraGriesTracker tracker(tcfg);
    MitigationConfig mcfg;
    mcfg.trh = trh;
    mcfg.swapRate = 6;
    BlockHammerConfig bhCfg;
    bhCfg.safetyFactor = 0.66; // calibrated to the paper's ~20 us
    BlockHammer bh(ctrl, tracker, mcfg, bhCfg);
    return static_cast<double>(bh.throttleSpacing()) / 3200.0;
}

} // namespace

int
main()
{
    using namespace srs::bench;

    header("BlockHammer DoS exposure: delay per blacklisted ACT");
    std::printf("%-8s %14s %18s\n", "T_RH", "delay (us)",
                "64ms budget eaten");
    for (const std::uint32_t trh : {4800u, 2400u, 1200u, 512u}) {
        const double us = bhSpacingUs(trh);
        std::printf("%-8u %14.1f %17.0f%%\n", trh, us,
                    100.0 * us * 1e-6 * trh / 64e-3);
    }
    std::printf("(anchor: ~20 us at T_RH 4800; Scale-SRS never "
                "delays demand ACTs)\n");

    header("benign performance at T_RH = 1200 (norm. to baseline)");
    ExperimentConfig exp = benchExperiment();
    const auto workloads = benchWorkloads();
    struct Point
    {
        const char *label;
        MitigationKind kind;
        std::uint32_t rate;
    };
    const Point points[] = {
        {"scale-srs", MitigationKind::ScaleSrs, 3},
        {"blockhammer", MitigationKind::BlockHammer, 6},
        {"aqua", MitigationKind::Aqua, 6},
        {"rrs", MitigationKind::Rrs, 6},
    };
    // Per-point swap rates differ, so build the cells explicitly
    // (workload outer, defense inner) and fan out via SweepRunner.
    std::vector<SweepCell> cells;
    for (const WorkloadProfile &w : workloads) {
        for (const Point &pt : points) {
            SweepCell cell;
            cell.workload = WorkloadSpec::synthetic(w.name);
            cell.mitigation = pt.kind;
            cell.trh = 1200;
            cell.swapRate = pt.rate;
            cells.push_back(std::move(cell));
        }
    }
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    std::printf("%-13s", "workload");
    for (const Point &pt : points)
        std::printf(" %12s", pt.label);
    std::printf("\n");
    std::vector<std::vector<double>> cols(std::size(points));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        std::printf("%-13s", workloads[wi].name.c_str());
        for (std::size_t i = 0; i < std::size(points); ++i) {
            const double n =
                results[wi * std::size(points) + i].normalized;
            cols[i].push_back(n);
            std::printf(" %12.4f", n);
        }
        std::printf("\n");
    }
    std::printf("%-13s", "geomean");
    for (const auto &col : cols)
        std::printf(" %12.4f", geoMean(col));
    std::printf("\n");

    header("per-bank cost summary (T_RH = 1200)");
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    MisraGriesConfig tcfg;
    tcfg.ts = 400;
    tcfg.actMaxPerEpoch = 1360000;
    MisraGriesTracker tracker(tcfg);
    MitigationConfig mcfg;
    mcfg.trh = 1200;
    mcfg.swapRate = 6;
    BlockHammer bh(ctrl, tracker, mcfg);
    Aqua aqua(ctrl, tracker, mcfg);
    std::printf("%-13s %12s %22s\n", "defense", "SRAM/bank",
                "DRAM capacity cost");
    std::printf("%-13s %10.1fKB %22s\n", "blockhammer",
                static_cast<double>(bh.storageBitsPerBank()) / 8192.0,
                "none (throttles)");
    std::printf("%-13s %10.1fKB %20.1f%%\n", "aqua",
                static_cast<double>(aqua.storageBitsPerBank()) /
                    8192.0,
                100.0 * aqua.quarantineRows() / org.rowsPerBank);
    std::printf("%-13s %12s %22s\n", "scale-srs",
                "see table4", "0.05% (swap counters)");
    std::printf("\ntrade-offs: BlockHammer risks DoS on hot benign "
                "rows; AQUA carves\ncapacity for its quarantine; "
                "Scale-SRS pays a small RIT plus rare\nLLC pinning "
                "(Table IV has the full storage breakdown).\n");
    return 0;
}
