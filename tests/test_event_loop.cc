/**
 * @file
 * Event-driven loop equivalence: the skip-ahead System::run must be
 * indistinguishable from the tick-per-cycle reference loop.  Skipping
 * a cycle is only legal when ticking every component there is
 * provably a no-op, so every observable — IPC per core, mitigation
 * activity, Row Hammer ground truth, sweep CSV bytes — must match
 * exactly, not approximately.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace srs
{
namespace
{

ExperimentConfig
smallExperiment(bool referenceLoop)
{
    ExperimentConfig exp;
    exp.cycles = 120'000;
    exp.epochLen = 50'000;
    exp.referenceLoop = referenceLoop;
    return exp;
}

RunResult
runCell(const char *workload, MitigationKind kind, TrackerKind tracker,
        bool referenceLoop)
{
    const ExperimentConfig exp = smallExperiment(referenceLoop);
    const SystemConfig cfg =
        makeSystemConfig(exp, kind, 1200, 6, tracker);
    return runWorkload(cfg, profileByName(workload), exp);
}

void
expectIdentical(const RunResult &ref, const RunResult &ev,
                const std::string &label)
{
    // Exact double equality is intentional: both loops execute the
    // same component code at the same simulated cycles, so there is
    // no rounding to forgive.
    EXPECT_EQ(ref.aggregateIpc, ev.aggregateIpc) << label;
    ASSERT_EQ(ref.coreIpc.size(), ev.coreIpc.size()) << label;
    for (std::size_t i = 0; i < ref.coreIpc.size(); ++i)
        EXPECT_EQ(ref.coreIpc[i], ev.coreIpc[i]) << label << " core " << i;
    EXPECT_EQ(ref.swaps, ev.swaps) << label;
    EXPECT_EQ(ref.unswapSwaps, ev.unswapSwaps) << label;
    EXPECT_EQ(ref.placeBacks, ev.placeBacks) << label;
    EXPECT_EQ(ref.latentActivations, ev.latentActivations) << label;
    EXPECT_EQ(ref.maxRowActivations, ev.maxRowActivations) << label;
    EXPECT_EQ(ref.rowsPinned, ev.rowsPinned) << label;
    // Whole read-latency distributions must match bucket for bucket,
    // not just the three percentile columns derived from them.
    EXPECT_EQ(ref.readLatency, ev.readLatency) << label;
    EXPECT_EQ(ref.p50Lat, ev.p50Lat) << label;
    EXPECT_EQ(ref.p99Lat, ev.p99Lat) << label;
    EXPECT_EQ(ref.p999Lat, ev.p999Lat) << label;
}

TEST(EventLoop, MatchesReferenceAcrossMitigations)
{
    const char *workloads[] = {"gups", "gcc"};
    const MitigationKind kinds[] = {
        MitigationKind::None,
        MitigationKind::Srs,
        MitigationKind::ScaleSrs,
        MitigationKind::BlockHammer,
    };
    for (const char *wl : workloads) {
        for (const MitigationKind kind : kinds) {
            const std::string label =
                std::string(wl) + "/" + mitigationKindName(kind);
            const RunResult ref =
                runCell(wl, kind, TrackerKind::MisraGries, true);
            const RunResult ev =
                runCell(wl, kind, TrackerKind::MisraGries, false);
            expectIdentical(ref, ev, label);
        }
    }
}

TEST(EventLoop, MatchesReferenceWithHydraTracker)
{
    const RunResult ref =
        runCell("gups", MitigationKind::Srs, TrackerKind::Hydra, true);
    const RunResult ev =
        runCell("gups", MitigationKind::Srs, TrackerKind::Hydra, false);
    expectIdentical(ref, ev, "gups/srs/hydra");
}

TEST(EventLoop, MatchesReferenceOnGeneratorWorkloads)
{
    // The generator-backed streams (Zipf, migrating hotspot, blend
    // with an embedded hammer stream) draw their records from
    // generator-time, not wall-clock scheduling, so both loops must
    // see the identical access stream — and the identical latency
    // histogram.
    const char *specs[] = {
        "zipf:4096@s=0.99",
        "hotspot:1024@hot=0.1@p=0.9@shift=20000",
        "blend:zipf:4096@s=0.9+attack@0.05",
    };
    for (const char *spelling : specs) {
        const GeneratorSpec gen = GeneratorSpec::parse(spelling);
        RunResult results[2];
        for (int refLoop = 0; refLoop < 2; ++refLoop) {
            const ExperimentConfig exp =
                smallExperiment(refLoop == 1);
            const SystemConfig cfg = makeSystemConfig(
                exp, MitigationKind::ScaleSrs, 1200, 6);
            results[refLoop] = runWorkloadGenerator(cfg, gen, exp);
        }
        expectIdentical(results[1], results[0], spelling);
        EXPECT_GT(results[0].readLatency.total(), 0u) << spelling;
    }
}

TEST(EventLoop, SweepCsvBytesMatchReferenceAtAnyThreadCount)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Srs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {6};

    ExperimentConfig exp;
    exp.cycles = 60'000;
    exp.epochLen = 25'000;

    std::string csv[2][2];   // [referenceLoop][threads index]
    for (int refLoop = 0; refLoop < 2; ++refLoop) {
        exp.referenceLoop = refLoop == 1;
        const std::size_t threadCounts[] = {1, 8};
        for (int t = 0; t < 2; ++t) {
            SweepRunner runner(exp, threadCounts[t]);
            const std::vector<SweepResult> results = runner.run(grid);
            std::ostringstream os;
            SweepRunner::writeCsv(os, results);
            csv[refLoop][t] = os.str();
        }
    }
    EXPECT_EQ(csv[0][0], csv[0][1]);   // event: threads don't matter
    EXPECT_EQ(csv[1][0], csv[1][1]);   // reference: threads don't matter
    EXPECT_EQ(csv[0][0], csv[1][0]);   // loops emit identical bytes
}

} // namespace
} // namespace srs
