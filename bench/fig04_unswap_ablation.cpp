/**
 * @file
 * Figure 4 reproduction: RRS with vs without immediate unswap
 * operations, normalized to the unprotected baseline.
 *
 * Paper shape: skipping immediate unswaps defers all restores to the
 * epoch boundary, whose burst costs an extra ~3-7% on average at any
 * T_RH.
 *
 * The 2 x 3 x workloads grid runs through SweepRunner
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

    SweepGrid grid;
    grid.workloads = benchWorkloadSpecs();
    grid.mitigations = {MitigationKind::Rrs,
                        MitigationKind::RrsNoUnswap};
    grid.trhs = {1200, 2400, 4800};
    grid.swapRates = {6};
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(grid);

    header("Figure 4: RRS immediate-unswap ablation");
    std::printf("%-16s%14s%14s%12s\n", "config", "norm-perf",
                "vs-unswap", "");
    // Expansion order: workloads, then {rrs, rrs-no-unswap}, then
    // the three T_RHs.
    const std::size_t nMit = grid.mitigations.size();
    const std::size_t nTrh = grid.trhs.size();
    for (std::size_t ti = 0; ti < nTrh; ++ti) {
        std::vector<double> with, without;
        for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi) {
            with.push_back(results[(wi * nMit) * nTrh + ti].normalized);
            without.push_back(
                results[(wi * nMit + 1) * nTrh + ti].normalized);
        }
        const double gWith = geoMean(with);
        const double gWithout = geoMean(without);
        const std::uint32_t trh = grid.trhs[ti];
        std::printf("Unswap    T_RH=%-6u%8.4f\n", trh, gWith);
        std::printf("No-Unswap T_RH=%-6u%8.4f  (extra slowdown "
                    "%+.2f%%)\n",
                    trh, gWithout, (gWith - gWithout) * 100.0);
    }
    return 0;
}
