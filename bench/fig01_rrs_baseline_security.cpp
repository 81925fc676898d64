/**
 * @file
 * Figure 1 reproduction.
 *
 * (a) Time-to-break RRS (in days) under the random-guess attack the
 *     RRS paper studied, across swap rates 2-10 and T_RH values
 *     {4800, 2400, 1200}, as one SecuritySweep grid with
 *     axes-derived AttackParams.  Paper anchor: > 10^3 days at
 *     T_RH 4800 with swap rate 6.
 * (b) Normalized performance of RRS as T_RH drops — the motivation
 *     for a scalable design.  The grid runs through SweepRunner
 *     (SRS_BENCH_THREADS overrides the worker count).
 */

#include "bench_util.hh"
#include "security/security_sweep.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Figure 1(a): days to break RRS, random-guess attack");
    // One SecuritySweep grid over (trh, rate) at N = 0 (the
    // random-guess-only attack), AttackParams derived from the
    // default ddr4 axes — the same cells as the security CSV rows.
    SecurityGrid secGrid;
    secGrid.defenses = {SecurityDefense::Rrs};
    secGrid.trhs = {4800, 2400, 1200};
    secGrid.swapRates = {2, 3, 4, 5, 6, 7, 8, 9, 10};
    secGrid.rounds = {0};
    SecuritySweep sweep(/*baseSeed=*/0x5EED, benchThreads());
    const std::vector<SecurityResult> secResults = sweep.run(secGrid);

    std::printf("%-10s", "swap-rate");
    for (const std::uint32_t rate : secGrid.swapRates)
        std::printf("%12u", rate);
    std::printf("\n");
    const std::size_t nRate = secGrid.swapRates.size();
    for (std::size_t ti = 0; ti < secGrid.trhs.size(); ++ti) {
        std::printf("T_RH=%-5u", secGrid.trhs[ti]);
        for (std::size_t ri = 0; ri < nRate; ++ri) {
            const AttackResult &r =
                secResults[ti * nRate + ri].analytic;
            if (r.feasible)
                std::printf("%12.3g", toDays(r.timeToBreakSec));
            else
                std::printf("%12s", "inf");
        }
        std::printf("\n");
    }

    header("Figure 1(b): normalized performance of RRS vs T_RH");
    const ExperimentConfig exp = benchExperiment();
    SweepGrid grid;
    grid.workloads = benchWorkloadSpecs();
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {4800, 2400, 1200};
    grid.swapRates = {6};
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(grid);

    std::printf("%-10s%12s%12s%12s\n", "T_RH", "4800", "2400", "1200");
    std::printf("%-10s", "RRS");
    // Expansion order: workloads outermost, then the three T_RHs.
    const std::size_t nTrh = grid.trhs.size();
    for (std::size_t ti = 0; ti < nTrh; ++ti) {
        std::vector<double> norms;
        for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi)
            norms.push_back(results[wi * nTrh + ti].normalized);
        std::printf("%12.4f", geoMean(norms));
    }
    std::printf("\n");
    return 0;
}
