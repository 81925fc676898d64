/**
 * @file
 * Section VIII-3 reproduction: Juggernaut under an open-page
 * memory controller, plus the matching cycle-level performance
 * ablation.
 *
 * Paper anchors:
 *  - closed page, T_RH 4800, swap rate 6: RRS breaks in ~4 hours;
 *  - open page, same point: ~10 days (the attacker must interleave
 *    a second row to force each activation, roughly doubling the
 *    per-activation time);
 *  - T_RH <= 3300: broken in < 1 day even at swap rate 10, open
 *    page — the advantage disappears as T_RH drops.
 *
 * The cycle-level ablation rides SweepRunner with the page policy
 * as a SystemAxes axis: one cell per (workload, policy, design
 * point), each normalized against the unprotected baseline of the
 * *same* policy, all pool-parallel (SRS_BENCH_THREADS overrides).
 */

#include "bench_util.hh"
#include "security/attack_model.hh"
#include "sim/sweep.hh"

int
main()
{
    using namespace srs;
    using namespace srs::bench;

    header("Juggernaut vs RRS: closed vs open page (days to break)");
    std::printf("%-22s", "policy");
    for (std::uint32_t rate = 6; rate <= 10; ++rate)
        std::printf("  rate=%-6u", rate);
    std::printf("\n");
    for (const std::uint32_t trh : {4800u, 3300u, 2400u, 1200u}) {
        for (const bool open : {false, true}) {
            std::printf("T_RH=%-5u %-11s", trh,
                        open ? "open" : "closed");
            for (std::uint32_t rate = 6; rate <= 10; ++rate) {
                SystemAxes axes;
                axes.pagePolicy =
                    open ? PagePolicy::Open : PagePolicy::Closed;
                const AttackParams p =
                    attackParamsFromAxes(axes, trh, rate);
                const AttackResult r = JuggernautModel(p).bestRrs();
                if (r.feasible)
                    std::printf("  %-10.3g",
                                toDays(r.timeToBreakSec));
                else
                    std::printf("  %-10s", "inf");
            }
            std::printf("\n");
        }
    }
    std::printf("(anchors: closed/4800/rate6 ~ 0.17 days; open "
                "~ 10 days;\n T_RH <= 3300 open page stays < 1 day "
                "through rate 10)\n");

    header("cycle-level: normalized perf, closed vs open page");
    ExperimentConfig exp = benchExperiment();
    const auto workloads = benchWorkloads();
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
    const PagePolicy policies[] = {PagePolicy::Closed,
                                   PagePolicy::Open};

    // One sweep cell per (workload, design point, policy); the
    // runner computes and shares one unprotected baseline per
    // (workload, policy) pair, so each cell normalizes against the
    // baseline of its own page policy.
    std::vector<SweepCell> cells;
    for (const WorkloadProfile &w : workloads) {
        for (const Point &pt : points) {
            for (const PagePolicy policy : policies) {
                SweepCell cell;
                cell.workload = WorkloadSpec::synthetic(w.name);
                cell.axes.pagePolicy = policy;
                cell.mitigation = pt.kind;
                cell.trh = 1200;
                cell.swapRate = pt.rate;
                cells.push_back(std::move(cell));
            }
        }
    }
    SweepRunner runner(exp, benchThreads());
    const std::vector<SweepResult> results = runner.run(cells);

    std::printf("%-14s %10s %10s\n", "config", "closed", "open");
    const std::size_t nPt = std::size(points);
    const std::size_t nPol = std::size(policies);
    for (std::size_t pi = 0; pi < nPt; ++pi) {
        std::printf("%-14s", points[pi].label);
        for (std::size_t qi = 0; qi < nPol; ++qi) {
            std::vector<double> norms;
            for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
                norms.push_back(
                    results[(wi * nPt + pi) * nPol + qi].normalized);
            }
            std::printf(" %10.4f", geoMean(norms));
        }
        std::printf("\n");
    }
    return 0;
}
