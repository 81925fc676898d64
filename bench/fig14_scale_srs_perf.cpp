/**
 * @file
 * Figure 14 reproduction — the paper's headline performance result:
 * normalized performance of Scale-SRS (swap rate 3) and RRS (swap
 * rate 6) at T_RH = 1200, per workload and averaged.
 *
 * Paper shape: RRS loses ~4% on average with >10% outliers (gcc
 * worst at 26.5%); Scale-SRS loses ~0.7%.
 *
 * Every point — per-workload cells and the MIX points (per-core
 * profile draws routed through runWorkloadMix) — runs through
 * SweepRunner, two cells per workload, so wall-clock scales down
 * with core count (SRS_BENCH_THREADS overrides).
 */

#include "bench_util.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    const ExperimentConfig exp = benchExperiment();
    constexpr std::uint32_t trh = 1200;

    // Two cells per point: RRS at rate 6, Scale-SRS at rate 3.  The
    // MIX points (per-core random benchmark combinations) follow the
    // single-workload points in the same cell list.
    constexpr std::uint32_t kMixes = 2;
    std::vector<SweepCell> cells;
    const auto workloads = benchWorkloads();
    const auto appendPair = [&](const WorkloadSpec &spec) {
        SweepCell rrs;
        rrs.workload = spec;
        rrs.mitigation = MitigationKind::Rrs;
        rrs.trh = trh;
        rrs.swapRate = 6;
        cells.push_back(rrs);
        SweepCell scale = std::move(rrs);
        scale.mitigation = MitigationKind::ScaleSrs;
        scale.swapRate = 3;
        cells.push_back(std::move(scale));
    };
    for (const WorkloadProfile &w : workloads)
        appendPair(WorkloadSpec::synthetic(w.name));
    for (std::uint32_t mix = 0; mix < kMixes; ++mix)
        appendPair(WorkloadSpec::mix(mix, exp.numCores));
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    header("Figure 14: normalized performance at T_RH = 1200");
    std::printf("%-16s%12s%14s%14s\n", "workload", "RRS(r=6)",
                "ScaleSRS(r=3)", "swaps R/S");
    std::vector<double> rrsAll, scaleAll;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const SweepResult &rrs = results[2 * i];
        const SweepResult &scale = results[2 * i + 1];
        rrsAll.push_back(rrs.normalized);
        scaleAll.push_back(scale.normalized);
        char swapCol[32];
        std::snprintf(swapCol, sizeof(swapCol), "%llu/%llu",
                      static_cast<unsigned long long>(rrs.run.swaps),
                      static_cast<unsigned long long>(scale.run.swaps));
        std::printf("%-16s%12.4f%14.4f%14s\n",
                    workloads[i].name.c_str(), rrs.normalized,
                    scale.normalized, swapCol);
        std::fflush(stdout);
    }

    for (std::uint32_t mix = 0; mix < kMixes; ++mix) {
        const std::size_t at = 2 * (workloads.size() + mix);
        const SweepResult &rrs = results[at];
        const SweepResult &scale = results[at + 1];
        rrsAll.push_back(rrs.normalized);
        scaleAll.push_back(scale.normalized);
        std::printf("mix%-13u%12.4f%14.4f\n", mix, rrs.normalized,
                    scale.normalized);
    }

    std::printf("%-16s%12.4f%14.4f\n", "ALL (geomean)",
                geoMean(rrsAll), geoMean(scaleAll));
    std::printf("\naverage slowdown: RRS %.2f%%, Scale-SRS %.2f%%\n",
                (1.0 - geoMean(rrsAll)) * 100.0,
                (1.0 - geoMean(scaleAll)) * 100.0);
    return 0;
}
