/**
 * @file
 * Figure 6 reproduction: time-to-break RRS with Juggernaut as the
 * number of biasing rounds N varies, for T_RH in {4800, 2400, 1200}.
 * Both the analytical model (Eq. 1-10) and event-driven Monte-Carlo
 * simulation are reported, mirroring the paper's validation.
 *
 * Paper anchors: cliffs where k drops; minimum < 4 hours at T_RH
 * 4800 (N ~ 1100); one-epoch breaks at T_RH <= 2400.
 *
 * The whole figure is one SecuritySweep grid over (trh, rounds)
 * with Monte-Carlo campaigns enabled: each cell runs a stratified
 * campaign under its own deterministic cell seed, and every (cell,
 * stratum) pair is its own pool job (SRS_BENCH_THREADS overrides
 * the worker count; results are identical at any thread count).  Each Monte-Carlo
 * estimate is printed with its 95% confidence interval — the same
 * numbers the security CSV columns carry.
 */

#include "bench_util.hh"
#include "security/security_sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Figure 6: time-to-break RRS (days) vs attack rounds");
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Rrs};
    grid.trhs = {4800, 2400, 1200};
    grid.swapRates = {6};
    grid.rounds.clear();
    for (std::uint64_t n = 0; n <= 1400; n += 100)
        grid.rounds.push_back(n);
    grid.rounds.push_back(SecurityGrid::kBestRounds);
    SecuritySweep sweep(/*baseSeed=*/0x5EED, benchThreads());
    sweep.setIterations(20000);
    const std::vector<SecurityResult> results = sweep.run(grid);

    std::printf("%-8s%16s%16s%26s%6s\n", "N", "analytic",
                "montecarlo", "95% CI", "k");
    // Expansion order: trhs outer, the rounds axis innermost (the
    // kBestRounds sentinel is the last rounds entry per trh).
    const std::size_t nRounds = grid.rounds.size();
    for (std::size_t ti = 0; ti < grid.trhs.size(); ++ti) {
        std::printf("-- T_RH = %u --\n", grid.trhs[ti]);
        for (std::size_t ni = 0; ni + 1 < nRounds; ++ni) {
            const SecurityResult &r = results[ti * nRounds + ni];
            const unsigned long long n =
                static_cast<unsigned long long>(grid.rounds[ni]);
            if (!r.analytic.feasible && r.analytic.k > 0) {
                std::printf("%-8llu%16s\n", n, "infeasible");
                continue;
            }
            char ci[40];
            std::snprintf(ci, sizeof(ci), "[%.4g, %.4g]",
                          toDays(r.mc.timeCiLoSec),
                          toDays(r.mc.timeCiHiSec));
            std::printf("%-8llu%16.6g%16.6g%26s%6llu\n", n,
                        toDays(r.analytic.timeToBreakSec),
                        toDays(r.mc.meanTimeSec), ci,
                        static_cast<unsigned long long>(
                            r.analytic.k));
        }
        const AttackResult &best =
            results[ti * nRounds + nRounds - 1].analytic;
        std::printf("best: N=%llu -> %.4g days (%.2f hours)\n",
                    static_cast<unsigned long long>(best.rounds),
                    toDays(best.timeToBreakSec),
                    best.timeToBreakSec / 3600.0);
    }
    return 0;
}
