/**
 * @file
 * Figure 7 reproduction: the number of correct random guesses (k) an
 * attacker needs as the biasing rounds N increase, for T_RH in
 * {4800, 2400, 1200}.  The curve is one SecuritySweep grid over
 * (trh, rounds) with AttackParams derived from the (default ddr4)
 * system axes — the same cells the security CSV would carry.
 *
 * Paper anchors at T_RH 4800: k = 4 up to N ~ 500, k = 2 from
 * N ~ 1100; at lower T_RH the curve reaches k = 0 (latent
 * activations alone suffice).
 */

#include "bench_util.hh"
#include "security/security_sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Figure 7: required correct guesses k vs attack rounds");
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Rrs};
    grid.trhs = {4800, 2400, 1200};
    grid.swapRates = {6};
    grid.rounds.clear();
    for (std::uint64_t n = 0; n <= 1400; n += 100)
        grid.rounds.push_back(n);
    SecuritySweep sweep(/*baseSeed=*/0x5EED, benchThreads());
    const std::vector<SecurityResult> results = sweep.run(grid);

    std::printf("%-8s%12s%12s%12s\n", "N", "T_RH=4800", "T_RH=2400",
                "T_RH=1200");
    // Expansion order: trhs outer, the rounds axis innermost.
    const std::size_t nRounds = grid.rounds.size();
    for (std::size_t ni = 0; ni < nRounds; ++ni) {
        std::printf("%-8llu", static_cast<unsigned long long>(
                                  grid.rounds[ni]));
        for (std::size_t ti = 0; ti < grid.trhs.size(); ++ti) {
            const SecurityResult &r = results[ti * nRounds + ni];
            std::printf("%12llu", static_cast<unsigned long long>(
                                      r.analytic.k));
        }
        std::printf("\n");
    }
    return 0;
}
