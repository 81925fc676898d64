/**
 * @file
 * Figure 16 reproduction: T_RH sensitivity with the Hydra tracker.
 *
 * Paper shape: Hydra stores row counters in DRAM, so at low T_RH the
 * counter-cache misses of a high swap rate hurt RRS far more than
 * Scale-SRS (26.8% vs 5.9% at T_RH = 512).
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
    // Hydra runs are heavier; use a smaller subset by default.
    const char *const workloads[] = {"gups", "gcc", "hmmer", "pr",
                                     "comm1"};
    struct Point { MitigationKind kind; std::uint32_t rate; };
    const Point points[] = {{MitigationKind::Rrs, 6},
                            {MitigationKind::ScaleSrs, 3}};
    const std::uint32_t trhs[] = {512, 1200, 2400, 4800};

    std::vector<SweepCell> cells;
    for (const char *name : workloads) {
        for (const Point pt : points) {
            for (const std::uint32_t trh : trhs) {
                SweepCell cell;
                cell.workload = WorkloadSpec::synthetic(name);
                cell.mitigation = pt.kind;
                cell.trh = trh;
                cell.swapRate = pt.rate;
                cell.tracker = TrackerKind::Hydra;
                cells.push_back(std::move(cell));
            }
        }
    }
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    header("Figure 16: T_RH sensitivity (Hydra tracker)");
    std::printf("%-14s%12s%12s%12s%12s\n", "config", "T_RH=512",
                "T_RH=1200", "T_RH=2400", "T_RH=4800");
    const std::size_t nPt = std::size(points);
    const std::size_t nTrh = std::size(trhs);
    for (std::size_t pi = 0; pi < nPt; ++pi) {
        std::printf("%-14s", mitigationKindName(points[pi].kind));
        for (std::size_t ti = 0; ti < nTrh; ++ti) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < std::size(workloads); ++wi)
                norms.push_back(
                    results[(wi * nPt + pi) * nTrh + ti].normalized);
            std::printf("%12.4f", geoMean(norms));
        }
        std::printf("\n");
    }
    return 0;
}
