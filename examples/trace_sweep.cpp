/**
 * @file
 * Bring-your-own-trace sweeps, end to end: record a synthetic
 * workload as a USIMM trace file with TraceWriter, then drive the
 * recorded file through the full experiment pipeline next to a
 * synthetic workload —
 *
 *  1. a WorkloadSpec trace cell (`trace:<path>`) swept across the
 *     page-policy axis by SweepRunner (single process, thread-pool
 *     parallel);
 *  2. the same grid split with planShards(), each shard run
 *     separately (as `srs_sim sweep` would on another machine) and
 *     stitched back with mergeShards().
 *
 * The merged CSV must be byte-identical to the single-process sweep
 * — the determinism contract that makes recorded-trace campaigns
 * shardable.  Exits nonzero when it is not (ctest runs it as
 * `example_trace_sweep`).
 *
 * Usage: trace_sweep [work-dir]   (default /tmp/srs_trace_sweep)
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/orchestrator.hh"
#include "sim/sweep.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

int
main(int argc, char **argv)
{
    using namespace srs;

    const std::string dir =
        argc > 1 ? argv[1] : "/tmp/srs_trace_sweep";
    std::filesystem::create_directories(dir);
    const std::string tracePath = dir + "/gups_recorded.usimm";

    ExperimentConfig exp;
    exp.cycles = 150'000;
    exp.epochLen = 60'000;

    // --- 1. record: synthetic stream -> USIMM trace file ----------
    {
        const DramOrg org;
        const AddressMap map(org);
        SyntheticTrace source(profileByName("gups"), map, /*core=*/0,
                              exp.seed);
        TraceWriter writer(tracePath);
        for (std::uint64_t i = 0; i < 20'000; ++i)
            writer.append(source.next());
        std::printf("recorded %llu records to %s\n",
                    static_cast<unsigned long long>(
                        writer.recordsWritten()),
                    tracePath.c_str());
    }

    // --- 2. sweep: the recorded file is a workload like any other -
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::synthetic("gcc"),
        WorkloadSpec::parse("trace:" + tracePath, exp.numCores),
    };
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};

    std::string single;
    {
        SweepRunner runner(exp, /*threads=*/0);
        std::ostringstream os;
        SweepRunner::writeCsv(os, runner.run(grid));
        single = os.str();
        std::printf("single-process sweep: %zu cells\n",
                    grid.expand().size());
    }

    // --- 3. shard + merge: what orchestrate/merge do across
    //        processes, here in-process for a self-contained demo --
    ShardManifest manifest = planShards(grid, exp, /*shards=*/2);
    writeManifest(manifest, dir + "/manifest");
    for (const ShardSpec &shard : manifest.shards) {
        SweepRunner runner(exp, /*threads=*/2);
        std::ofstream out(dir + "/" + shard.csv,
                          std::ios::trunc | std::ios::binary);
        SweepRunner::writeCsv(out, runner.run(shard.grid));
    }
    std::ostringstream merged;
    mergeShards(manifest, dir, merged);
    std::printf("merged %zu shards (%zu cells)\n",
                manifest.shards.size(), manifest.totalCells());

    if (merged.str() != single) {
        std::fprintf(stderr, "FAIL: merged CSV differs from the "
                             "single-process sweep\n");
        return 1;
    }
    std::printf("merged CSV is byte-identical to the single-process "
                "sweep\n");

    // The same campaign from the CLI:
    std::printf(
        "\nCLI equivalent:\n"
        "  srs_sim trace --workload=gups --records=20000 "
        "--out=%s\n"
        "  srs_sim orchestrate --workloads=gcc --trace=%s \\\n"
        "      --page-policy=closed,open --mitigations=rrs,scale-srs "
        "\\\n"
        "      --trh=1200 --rates=3 --shards=2 --out=sweep.csv\n",
        tracePath.c_str(), tracePath.c_str());
    return 0;
}
