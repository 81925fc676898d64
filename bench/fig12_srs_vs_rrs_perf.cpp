/**
 * @file
 * Figure 12 reproduction: normalized performance of SRS vs RRS
 * (same swap rate 6) at T_RH in {1200, 2400, 4800}.
 *
 * Paper shape: SRS and RRS track each other closely — preventing
 * Juggernaut costs nothing extra because the swap rate (the
 * bandwidth driver) is unchanged.
 *
 * The 2 x 3 x workloads grid runs through SweepRunner, so wall-clock
 * scales down with core count (SRS_BENCH_THREADS overrides).
 */

#include "bench_util.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    const ExperimentConfig exp = benchExperiment();

    SweepGrid grid;
    grid.workloads = benchWorkloadSpecs();
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::Srs};
    grid.trhs = {1200, 2400, 4800};
    grid.swapRates = {6};

    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(grid);

    header("Figure 12: SRS vs RRS normalized performance");
    std::printf("%-14s%12s%12s%12s\n", "config", "T_RH=1200",
                "T_RH=2400", "T_RH=4800");
    // Grid expansion order: workloads, then mitigations, then trhs.
    const std::size_t nMit = grid.mitigations.size();
    const std::size_t nTrh = grid.trhs.size();
    for (std::size_t mi = 0; mi < nMit; ++mi) {
        std::printf("%-14s", mitigationKindName(grid.mitigations[mi]));
        for (std::size_t ti = 0; ti < nTrh; ++ti) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi)
                norms.push_back(
                    results[(wi * nMit + mi) * nTrh + ti].normalized);
            std::printf("%12.4f", geoMean(norms));
        }
        std::printf("\n");
    }
    return 0;
}
