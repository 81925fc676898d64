/**
 * @file
 * Defense comparison: run every implemented Row Hammer defense —
 * RRS, SRS, Scale-SRS, BlockHammer and AQUA — against (a) a benign
 * swap-heavy workload and (b) a targeted hammer attack, and print
 * performance and ground-truth security side by side.  On-chip
 * storage is Table IV's (bench/table4_storage).
 *
 * This is the "which defense should I pick" tour of the library:
 * the same System API hosts all five, differing only in the
 * MitigationKind.
 *
 * Usage: defense_comparison [workload-name]   (default: gcc)
 */

#include <cstdio>
#include <memory>
#include <string>

#include "sim/experiment.hh"
#include "trace/attack.hh"
#include "trace/profiles.hh"

namespace
{

using namespace srs;

/** One row of the comparison table. */
struct Contender
{
    MitigationKind kind;
    std::uint32_t swapRate;
};

constexpr Contender kContenders[] = {
    {MitigationKind::Rrs, 6},
    {MitigationKind::Srs, 6},
    {MitigationKind::ScaleSrs, 3},
    {MitigationKind::BlockHammer, 6},
    {MitigationKind::Aqua, 6},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "gcc";
    const WorkloadProfile &profile = profileByName(workload);

    ExperimentConfig exp;
    exp.cycles = 2'000'000;
    exp.epochLen = 1'600'000;
    constexpr std::uint32_t trh = 1200;

    std::printf("defense comparison on '%s', T_RH = %u\n\n",
                profile.name.c_str(), trh);

    const SystemConfig base =
        makeSystemConfig(exp, MitigationKind::None, trh, 6);
    const double baseIpc =
        runWorkload(base, profile, exp).aggregateIpc;

    std::printf("%-13s %8s %9s %10s %12s\n", "defense", "norm",
                "swaps", "migr-acts", "max-row-acts");
    for (const Contender &c : kContenders) {
        const SystemConfig cfg =
            makeSystemConfig(exp, c.kind, trh, c.swapRate);
        const RunResult res = runWorkload(cfg, profile, exp);
        std::printf("%-13s %8.4f %9llu %10llu %12llu\n",
                    mitigationKindName(c.kind),
                    res.aggregateIpc / baseIpc,
                    static_cast<unsigned long long>(res.swaps),
                    static_cast<unsigned long long>(
                        res.latentActivations),
                    static_cast<unsigned long long>(
                        res.maxRowActivations));
    }

    std::printf("\nunder a targeted hammer attack (one aggressor row per core):\n");
    std::printf("%-13s %8s %12s %12s\n", "defense", "norm",
                "max-row-acts", "verdict");
    for (const Contender &c : kContenders) {
        SystemConfig cfg =
            makeSystemConfig(exp, c.kind, trh, c.swapRate);
        System sys(cfg);
        for (CoreId core = 0; core < cfg.numCores; ++core) {
            // All cores gang up on channel 0 / bank 0 (the paper's
            // single-bank attack), each hammering its own row.
            sys.setTrace(core, std::make_unique<HammerTrace>(
                             sys.controller().addressMap(), 0, 0,
                             5000 + 16 * core));
        }
        sys.run(exp.cycles);
        const std::uint64_t worst = sys.maxEpochActivations();
        std::printf("%-13s %8.4f %12llu %12s\n",
                    mitigationKindName(c.kind),
                    sys.aggregateIpc() / baseIpc,
                    static_cast<unsigned long long>(worst),
                    worst >= trh ? "BROKEN" : "held");
    }

    std::printf("\nnote: 'BROKEN' means a physical row exceeded T_RH "
                "activations in one epoch\n(ground truth from the "
                "bank counters, not the defense's own view).\n");
    return 0;
}
