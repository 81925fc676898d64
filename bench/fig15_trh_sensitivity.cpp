/**
 * @file
 * Figure 15 reproduction: normalized performance of Scale-SRS and
 * RRS as T_RH scales from 4800 down to 512 (Misra-Gries tracker).
 *
 * Paper shape: RRS degrades steeply at low T_RH (14% at 512) while
 * Scale-SRS stays shallow (4% at 512) thanks to its lower swap rate.
 *
 * The 2 x 4 x workloads grid runs through SweepRunner
 * (SRS_BENCH_THREADS overrides the worker count).
 */

#include "bench_util.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    const ExperimentConfig exp = benchExperiment();
    const auto workloads = benchWorkloads();
    struct Point { MitigationKind kind; std::uint32_t rate; };
    const Point points[] = {{MitigationKind::Rrs, 6},
                            {MitigationKind::ScaleSrs, 3}};
    const std::uint32_t trhs[] = {512, 1200, 2400, 4800};

    // The two design points use different swap rates, so build the
    // cell list explicitly: workload outer, point, then T_RH.
    std::vector<SweepCell> cells;
    for (const WorkloadProfile &w : workloads) {
        for (const Point pt : points) {
            for (const std::uint32_t trh : trhs) {
                SweepCell cell;
                cell.workload = WorkloadSpec::synthetic(w.name);
                cell.mitigation = pt.kind;
                cell.trh = trh;
                cell.swapRate = pt.rate;
                cells.push_back(std::move(cell));
            }
        }
    }
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    header("Figure 15: T_RH sensitivity (Misra-Gries tracker)");
    std::printf("%-14s%12s%12s%12s%12s\n", "config", "T_RH=512",
                "T_RH=1200", "T_RH=2400", "T_RH=4800");
    const std::size_t nPt = std::size(points);
    const std::size_t nTrh = std::size(trhs);
    for (std::size_t pi = 0; pi < nPt; ++pi) {
        std::printf("%-14s", mitigationKindName(points[pi].kind));
        for (std::size_t ti = 0; ti < nTrh; ++ti) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < workloads.size(); ++wi)
                norms.push_back(
                    results[(wi * nPt + pi) * nTrh + ti].normalized);
            std::printf("%12.4f", geoMean(norms));
        }
        std::printf("\n");
    }
    return 0;
}
