/**
 * @file
 * Ablation: how the swap rate trades performance against security —
 * the design decision at the heart of Scale-SRS (Section V-B).
 *
 * Part 1 sweeps the swap rate for SRS-style defenses at T_RH = 1200
 * and reports normalized performance: lower rates swap less and run
 * faster.
 *
 * Part 2 re-runs the Figure 13 outlier analysis across the same
 * rates: lower rates make multi-swap outlier rows more frequent,
 * which is exactly what Scale-SRS's swap-count detection plus LLC
 * pinning absorbs.  Together the two halves justify the paper's
 * choice of rate 3 (with pinning) over RRS's rate 6 (without).
 *
 * The perf grid runs through SweepRunner (SRS_BENCH_THREADS
 * overrides the worker count).
 */

#include "bench_util.hh"
#include "security/outlier_model.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    // The analytic outlier sweep covers all rates; the cycle-level
    // perf sweep uses the design-relevant subset to bound runtime.
    const std::uint32_t allRates[] = {2, 3, 4, 6, 8};

    header("performance vs swap rate (T_RH = 1200, geomean)");
    ExperimentConfig exp = benchExperiment();
    SweepGrid grid;
    grid.workloads = benchWorkloadSpecs();
    grid.mitigations = {MitigationKind::ScaleSrs, MitigationKind::Srs};
    grid.trhs = {1200};
    grid.swapRates = {3, 6, 8};
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(grid);

    std::printf("%-12s", "defense");
    for (const std::uint32_t rate : grid.swapRates)
        std::printf("  rate=%-6u", rate);
    std::printf("\n");
    // Expansion order: workloads, then mitigations, then rates.
    const std::size_t nMit = grid.mitigations.size();
    const std::size_t nRate = grid.swapRates.size();
    for (std::size_t mi = 0; mi < nMit; ++mi) {
        std::printf("%-12s", mitigationKindName(grid.mitigations[mi]));
        for (std::size_t ri = 0; ri < nRate; ++ri) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi)
                norms.push_back(
                    results[(wi * nMit + mi) * nRate + ri].normalized);
            std::printf("  %-11.4f", geoMean(norms));
        }
        std::printf("\n");
    }

    header("security vs swap rate: outlier-row exposure (Fig 13)");
    std::printf("%-10s %18s %20s\n", "rate",
                "days to 3 outliers", "days to 4 outliers");
    for (const std::uint32_t rate : allRates) {
        OutlierParams p;
        p.trh = 4800;
        p.swapRate = rate;
        OutlierModel model(p);
        std::printf("%-10u %18.3g %20.3g\n", rate,
                    toDays(model.timeToAppearSec(3)),
                    toDays(model.timeToAppearSec(4)));
    }
    std::printf("(paper anchors at T_RH 4800: rate 3 -> 3 outliers "
                "every ~31 days,\n 4 outliers every ~64 years; the "
                "pin-buffer covers them)\n");
    return 0;
}
