/**
 * @file
 * Suite-level performance sweep: for each benchmark suite, compare
 * the normalized performance of RRS, SRS and Scale-SRS at a chosen
 * T_RH — the workflow behind Figures 12, 14 and 15.
 *
 * Usage: workload_sweep [trh] [suite]
 *   trh:   Row Hammer threshold (default 1200)
 *   suite: GUPS | SPEC2K6 | SPEC2K17 | GAP | COMMERCIAL | PARSEC |
 *          BIOBENCH (default: one workload from each suite)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace srs;

    const std::uint32_t trh =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1]))
                 : 1200;
    ExperimentConfig exp;
    exp.cycles = 1'500'000;
    exp.epochLen = 800'000;

    std::vector<WorkloadProfile> workloads;
    if (argc > 2) {
        workloads = profilesOfSuite(argv[2]);
    } else {
        for (const std::string &suite : suiteNames())
            workloads.push_back(profilesOfSuite(suite).front());
    }

    std::printf("T_RH = %u, %zu workloads, %llu cycles per run\n\n",
                trh, workloads.size(),
                static_cast<unsigned long long>(exp.cycles));
    std::printf("%-16s%10s%12s%12s%12s\n", "workload", "base-IPC",
                "RRS(r6)", "SRS(r6)", "ScaleSRS(r3)");

    for (const WorkloadProfile &w : workloads) {
        const SystemConfig base =
            makeSystemConfig(exp, MitigationKind::None, trh, 6);
        const double baseIpc =
            runWorkload(base, w, exp).aggregateIpc;
        auto norm = [&](MitigationKind kind, std::uint32_t rate) {
            const SystemConfig cfg =
                makeSystemConfig(exp, kind, trh, rate);
            return runWorkload(cfg, w, exp).aggregateIpc / baseIpc;
        };
        std::printf("%-16s%10.3f%12.4f%12.4f%12.4f\n",
                    w.name.c_str(), baseIpc,
                    norm(MitigationKind::Rrs, 6),
                    norm(MitigationKind::Srs, 6),
                    norm(MitigationKind::ScaleSrs, 3));
        std::fflush(stdout);
    }
    return 0;
}
