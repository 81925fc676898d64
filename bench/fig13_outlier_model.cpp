/**
 * @file
 * Figure 13 reproduction: time-to-appear (days) for M simultaneous
 * outlier rows under a maximal attack, as the swap rate varies, at
 * T_RH 4800.
 *
 * Paper anchors: at swap rate 3, three outliers coincide roughly
 * once a month and four take ~decades — which is what makes LLC
 * pinning a viable rare-case backstop.
 */

#include "bench_util.hh"
#include "security/outlier_model.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Figure 13: outlier time-to-appear (days), T_RH = 4800");
    std::printf("%-12s%14s%14s%14s%14s\n", "swap-rate", "M=1", "M=2",
                "M=3", "M=4");
    for (std::uint32_t rate = 2; rate <= 6; ++rate) {
        OutlierParams p;
        p.swapRate = rate;
        OutlierModel m(p);
        std::printf("%-12u", rate);
        for (std::uint64_t mRows = 1; mRows <= 4; ++mRows)
            std::printf("%14.4g", toDays(m.timeToAppearSec(mRows)));
        std::printf("\n");
    }

    OutlierParams p3;
    p3.swapRate = 3;
    OutlierModel m3(p3);
    std::printf("\nrate-3 detail: swaps/epoch G = %.0f, "
                "E[rows chosen 3x] = %.3g\n",
                m3.swapsPerEpoch(), m3.expectedRowsWith(3));
    std::printf("3 outliers every %.1f days; 4 outliers every %.1f "
                "years\n",
                toDays(m3.timeToAppearSec(3)),
                toDays(m3.timeToAppearSec(4)) / 365.0);

    // Monte-Carlo cross-check of the footnote-4 Poisson statistics
    // in a downscaled rare-event regime (the full-scale events are
    // too rare to sample directly).
    OutlierParams pv;
    pv.trh = 4800;
    pv.swapRate = 3;
    pv.rowsPerBank = 4096;
    pv.actMaxPerEpoch = 3200ULL * 1600;
    OutlierModel mv(pv);
    std::printf("\nfootnote-4 validation (4K rows, G=3200, k=7): "
                "analytic p=%.4g, simulated p=%.4g (8000 epochs)\n",
                mv.pSimultaneous(1, 7),
                mv.simulateSimultaneous(1, 7, 8000, 0xFEED));
    return 0;
}
