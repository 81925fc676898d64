/**
 * @file
 * Section VIII-5 and Section III-C reproductions.
 *
 * DDR5 (Section VIII-5): DDR5 refreshes twice as often, halving the
 * window an attack has to accumulate activations.  Paper anchor:
 * even so, Juggernaut breaks RRS in under 1 day regardless of swap
 * rate once T_RH <= 3100.
 *
 * Multi-bank (Section III-C): hammering B banks splits the per-bank
 * activation budget B ways.  Paper anchor: at T_RH 4800 and swap
 * rate 6, going from 1 bank to all 16 banks of a channel inflates
 * the attack time from ~4 hours to ~9.9 years — why the paper
 * analyzes the single-bank attack.
 *
 * Both the analytic DDR5 environment and the cycle-level ablation
 * are derived from the same `DramTimingNs::ddr5()` preset: the
 * attack-model knobs scale with the preset's tREFI/tRFC, and the
 * performance table rides SweepRunner with the DDR5 preset as a
 * SystemAxes axis (`ddr4` vs `ddr5` cells, each normalized against
 * the unprotected baseline of its *own* preset, pool-parallel,
 * SRS_BENCH_THREADS overrides the worker count).
 */

#include "bench_util.hh"
#include "security/attack_model.hh"
#include "sim/sweep.hh"

namespace
{

using namespace srs;

/**
 * DDR5 attack environment: the ddr5 preset on a SystemAxes identity,
 * run through the shared attackParamsFromAxes() derivation (tREFI
 * halves, so the refresh epoch and the refresh work done in it halve
 * with it, and tRC/tRFC take their DDR5 values).
 */
AttackParams
ddr5Params(std::uint32_t trh, std::uint32_t rate)
{
    SystemAxes axes;
    axes.preset = DramPreset::Ddr5;
    return attackParamsFromAxes(axes, trh, rate);
}

} // namespace

int
main()
{
    using namespace srs::bench;

    header("DDR5 (2x refresh): days to break RRS with Juggernaut");
    std::printf("%-10s", "T_RH");
    for (std::uint32_t rate = 6; rate <= 10; ++rate)
        std::printf("  rate=%-7u", rate);
    std::printf("  %s\n", "<1 day at all rates?");
    for (const std::uint32_t trh :
         {4800u, 3300u, 3100u, 2400u, 1200u}) {
        std::printf("%-10u", trh);
        double worst = 0.0;
        for (std::uint32_t rate = 6; rate <= 10; ++rate) {
            const AttackResult r =
                JuggernautModel(ddr5Params(trh, rate)).bestRrs();
            const double days =
                r.feasible ? toDays(r.timeToBreakSec) : 1e30;
            worst = std::max(worst, days);
            if (r.feasible)
                std::printf("  %-11.3g", days);
            else
                std::printf("  %-11s", "inf");
        }
        std::printf("  %s\n", worst < 1.0 ? "yes" : "no");
    }
    std::printf("(anchor: 'yes' for every T_RH <= 3100)\n");

    header("multi-bank attack (Section III-C), T_RH=4800 rate=6");
    std::printf("%-8s %16s %16s\n", "banks", "time-to-break",
                "vs single bank");
    double single = 0.0;
    for (const std::uint32_t banks : {1u, 2u, 4u, 8u, 11u, 16u}) {
        const AttackParams p =
            attackParamsFromAxes(SystemAxes{}, 4800, 6);
        const AttackResult r =
            JuggernautModel(p).evaluateRrsMultiBank(banks);
        const double days =
            r.feasible ? toDays(r.timeToBreakSec) : 1e30;
        if (banks == 1)
            single = days;
        if (days < 1.0)
            std::printf("%-8u %13.2f h %15.1fx\n", banks,
                        days * 24.0, days / single);
        else if (days < 365.0)
            std::printf("%-8u %13.2f d %15.1fx\n", banks, days,
                        days / single);
        else
            std::printf("%-8u %13.2f y %15.0fx\n", banks,
                        days / 365.0, days / single);
    }
    std::printf("(anchor: ~4 hours at 1 bank, ~9.9 years at 16 "
                "banks)\n");

    header("cycle-level: normalized perf, DDR4 vs DDR5 preset");
    ExperimentConfig exp = benchExperiment();
    const std::vector<WorkloadSpec> workloads = benchWorkloadSpecs();
    struct Point
    {
        const char *label;
        MitigationKind kind;
        std::uint32_t rate;
    };
    const Point points[] = {
        {"scale-srs", MitigationKind::ScaleSrs, 3},
        {"rrs", MitigationKind::Rrs, 6},
    };
    const DramPreset presets[] = {DramPreset::Ddr4, DramPreset::Ddr5};

    // One sweep cell per (workload, design point, preset); the
    // runner computes and shares one unprotected baseline per
    // (workload, preset) pair, so a DDR5 cell normalizes against
    // the DDR5 machine's own baseline — the doubled refresh rate
    // costs the baseline bandwidth too.
    std::vector<SweepCell> cells;
    for (const WorkloadSpec &w : workloads) {
        for (const Point &pt : points) {
            for (const DramPreset preset : presets) {
                SweepCell cell;
                cell.workload = w;
                cell.axes.preset = preset;
                cell.mitigation = pt.kind;
                cell.trh = 1200;
                cell.swapRate = pt.rate;
                cells.push_back(std::move(cell));
            }
        }
    }
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    std::printf("%-14s %10s %10s\n", "config", "ddr4", "ddr5");
    const std::size_t nPt = std::size(points);
    const std::size_t nPre = std::size(presets);
    for (std::size_t pi = 0; pi < nPt; ++pi) {
        std::printf("%-14s", points[pi].label);
        for (std::size_t qi = 0; qi < nPre; ++qi) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
                norms.push_back(
                    results[(wi * nPt + pi) * nPre + qi].normalized);
            }
            std::printf(" %10.4f", geoMean(norms));
        }
        std::printf("\n");
    }
    return 0;
}
