/**
 * @file
 * Figure 10 reproduction: time-to-break SRS vs RRS under the
 * Juggernaut attack pattern across swap rates 6-10 and T_RH in
 * {4800, 2400, 1200}.  RRS is evaluated at the attacker-optimal N.
 *
 * The table is one SecuritySweep grid over (axes, defense, trh,
 * rate) — the same sweep engine and the same axes-derived
 * AttackParams the security CSV rows use (SRS_BENCH_THREADS
 * overrides the worker count; results are thread-invariant).
 *
 * Paper anchors: SRS > 2 years at T_RH 4800 / rate 6 and improving
 * with rate; RRS broken in hours-to-a-day regardless of rate.
 * Also reports the Section VIII-5 DDR5 variant, which is just the
 * ddr5 preset on the axes axis — no hand-rolled epoch constants.
 */

#include "bench_util.hh"
#include "security/security_sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Figure 10: time-to-break (days), Juggernaut attack");
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Srs, SecurityDefense::Rrs};
    grid.trhs = {4800, 2400, 1200};
    grid.swapRates = {6, 7, 8, 9, 10};
    grid.rounds = {SecurityGrid::kBestRounds};
    SecuritySweep sweep(/*baseSeed=*/0x5EED, benchThreads());
    const std::vector<SecurityResult> results = sweep.run(grid);

    std::printf("%-18s%12s%12s%12s%12s%12s\n", "config", "rate=6",
                "rate=7", "rate=8", "rate=9", "rate=10");
    // Expansion order: one axes point, defenses, trhs, rates
    // innermost.
    const std::size_t nTrh = grid.trhs.size();
    const std::size_t nRate = grid.swapRates.size();
    for (std::size_t ti = 0; ti < nTrh; ++ti) {
        for (std::size_t di = 0; di < grid.defenses.size(); ++di) {
            std::printf("%s  T_RH=%-8u",
                        di == 0 ? "SRS" : "RRS", grid.trhs[ti]);
            for (std::size_t ri = 0; ri < nRate; ++ri) {
                const SecurityResult &r =
                    results[(di * nTrh + ti) * nRate + ri];
                std::printf("%12.4g",
                            toDays(r.analytic.timeToBreakSec));
            }
            std::printf("\n");
        }
    }

    header("Section VIII-5: DDR5 (2x refresh) sanity check");
    SecurityGrid ddr5;
    ddr5.presets = {DramPreset::Ddr5};
    ddr5.defenses = {SecurityDefense::Rrs};
    ddr5.trhs = {3100};
    ddr5.swapRates = {6, 7, 8, 9, 10};
    const std::vector<SecurityResult> ddr5Results = sweep.run(ddr5);
    for (std::size_t ri = 0; ri < ddr5Results.size(); ++ri) {
        std::printf("RRS under DDR5, T_RH=3100, rate=%u: %.4g days\n",
                    ddr5.swapRates[ri],
                    toDays(ddr5Results[ri].analytic.timeToBreakSec));
    }
    return 0;
}
