/**
 * @file
 * Tests of the benchmark's own machinery: self-time arithmetic on
 * synthetic spans, failure accounting of the row checks (a tampered
 * shard row is one failed operation), and the timing probes leaving
 * every simulated statistic unchanged.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "checks.hh"
#include "probes.hh"
#include "sim/orchestrator.hh"
#include "sim/sweep.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace_log.hh"

namespace
{

using namespace perfbench;

TEST(SelfTime, SubtractsUnionOfChildrenAndHotTotals)
{
    SpanLog log("test");
    const std::uint64_t root = log.add("root", 0, 0, 100);
    // Two overlapping children (parallel workers): union 10..60.
    log.add("child", root, 10, 40);
    const std::uint64_t b = log.add("child", root, 30, 60);
    // A grandchild does not count against the root, only against b.
    log.add("leaf", b, 35, 45);
    log.addHot("hot", root, HotCounter{7, 5});

    const std::vector<SelfTimeRow> rows = selfTimes(log.spans(), log.hots());
    const SelfTimeRow r = findRow(rows, "root");
    EXPECT_EQ(r.count, 1u);
    EXPECT_NEAR(r.totalS, 100e-9, 1e-15);
    EXPECT_NEAR(r.selfS, (100 - 50 - 5) * 1e-9, 1e-15);
    const SelfTimeRow c = findRow(rows, "child");
    EXPECT_EQ(c.count, 2u);
    EXPECT_NEAR(c.totalS, 60e-9, 1e-15);
    EXPECT_NEAR(c.selfS, (30 + 30 - 10) * 1e-9, 1e-15);
    const SelfTimeRow h = findRow(rows, "hot");
    EXPECT_EQ(h.count, 7u);
    EXPECT_NEAR(h.selfS, 5e-9, 1e-15);
}

TEST(SelfTime, ClipsChildrenToTheirParentAndNeverGoesNegative)
{
    SpanLog log("test");
    const std::uint64_t root = log.add("root", 0, 100, 200);
    log.add("child", root, 50, 150);  // starts before its parent
    log.add("child", root, 180, 260); // ends after it
    log.addHot("hot", root, HotCounter{1, 1000});
    const std::vector<SelfTimeRow> rows = selfTimes(log.spans(), log.hots());
    EXPECT_EQ(findRow(rows, "root").selfS, 0.0);
    EXPECT_EQ(findRow(rows, "missing").count, 0u);
}

TEST(Checks, CompareRowsCountsEveryMismatchOnce)
{
    const std::vector<std::string> expected = {"0,a", "1,b", "2,c"};
    EXPECT_EQ(compareRows(expected, expected).failed, 0u);
    EXPECT_EQ(compareRows(expected, expected).attempted, 3u);
    EXPECT_EQ(compareRows(expected, {"0,a", "1,X", "2,c"}).failed, 1u);
    EXPECT_EQ(compareRows(expected, {"0,a"}).failed, 2u);
    const Tally extra = compareRows(expected, {"0,a", "1,b", "2,c", "3,d"});
    EXPECT_EQ(extra.attempted, 4u);
    EXPECT_EQ(extra.failed, 1u);
    EXPECT_EQ(csvDataRows("header\n0,a\n1,b\n").size(), 2u);
}

/** A two-shard sweep written the way shard children write it. */
class ShardCheck : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        exp_.cycles = 20'000;
        exp_.epochLen = 20'000;
        grid_.workloads = srs::splitSpecList("gcc,comm1", exp_.numCores);
        grid_.mitigations = {srs::MitigationKind::Srs};
        grid_.trhs = {1200};
        grid_.swapRates = {6};
        std::ostringstream full;
        srs::SweepRunner::writeCsv(full,
                                   srs::SweepRunner(exp_, 2).run(grid_));
        expected_ = csvDataRows(full.str());

        dir_ = std::filesystem::temp_directory_path()
               / ("perfbench_shards_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        manifest_ = srs::planShards(grid_, exp_, 2);
        srs::prepareShardDir(manifest_, dir_.string());
        for (const srs::ShardSpec &shard : manifest_.shards) {
            std::ofstream out(dir_ / shard.csv);
            srs::SweepRunner::writeCsv(
                out, srs::SweepRunner(exp_, 1).run(shard.grid));
        }
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Rewrite line @p line of shard @p k's CSV through @p edit. */
    template <class F>
    void
    tamper(std::size_t k, std::size_t line, F &&edit)
    {
        const std::filesystem::path path = dir_ / manifest_.shards[k].csv;
        std::ifstream in(path);
        std::vector<std::string> lines;
        for (std::string l; std::getline(in, l);)
            lines.push_back(l);
        in.close();
        edit(lines.at(line));
        std::ofstream out(path);
        for (const std::string &l : lines)
            out << l << '\n';
    }

    srs::ExperimentConfig exp_;
    srs::SweepGrid grid_;
    srs::ShardManifest manifest_;
    std::vector<std::string> expected_;
    std::filesystem::path dir_;
};

TEST_F(ShardCheck, IntactShardsPassEveryRow)
{
    ASSERT_EQ(manifest_.shards.size(), 2u);
    const Tally t = checkShardDir(manifest_, dir_.string(), expected_);
    EXPECT_EQ(t.attempted, expected_.size());
    EXPECT_EQ(t.failed, 0u);
}

TEST_F(ShardCheck, TamperedPayloadFieldIsOneFailedOperation)
{
    // The last field (ci_hi) is outside the identity prefix, so the
    // merge accepts the shard and the row comparison must catch it.
    tamper(1, 1, [](std::string &row) { row.back() = '7'; });
    const Tally t = checkShardDir(manifest_, dir_.string(), expected_);
    EXPECT_EQ(t.attempted, expected_.size());
    EXPECT_EQ(t.failed, 1u);
}

TEST_F(ShardCheck, TamperedIdentityFailsEveryRowOfThatShard)
{
    // A foreign seed breaks the identity prefix: the merge rejects
    // the shard, and its rows are counted failed without a crash.
    tamper(0, 1, [](std::string &row) {
        const std::size_t seed = row.find(",0x");
        row[seed + 3] = row[seed + 3] == 'f' ? 'e' : 'f';
    });
    const Tally t = checkShardDir(manifest_, dir_.string(), expected_);
    EXPECT_EQ(t.attempted, expected_.size());
    EXPECT_EQ(t.failed, manifest_.shards[0].cells);
}

TEST(Probes, LeaveEverySimulatedStatisticUnchanged)
{
    srs::ExperimentConfig exp;
    exp.cycles = 50'000;
    exp.epochLen = 25'000;
    const srs::SystemConfig cfg =
        srs::makeSystemConfig(exp, srs::MitigationKind::Srs, 1200, 6);
    const srs::WorkloadProfile &gcc = srs::profileByName("gcc");

    srs::System plain(cfg);
    srs::System probed(cfg);
    HotCounter traceCalls, listenerCalls;
    TimedListener listener(probed.mitigation(), listenerCalls);
    probed.controller().setListener(&listener);
    for (srs::CoreId c = 0; c < cfg.numCores; ++c) {
        plain.setTrace(c, std::make_unique<srs::SyntheticTrace>(
                              gcc, plain.controller().addressMap(), c,
                              exp.seed));
        probed.setTrace(
            c, std::make_unique<TimedTrace>(
                   std::make_unique<srs::SyntheticTrace>(
                       gcc, probed.controller().addressMap(), c, exp.seed),
                   traceCalls));
    }
    plain.run(exp.cycles);
    probed.run(exp.cycles);

    EXPECT_EQ(plain.aggregateIpc(), probed.aggregateIpc());
    EXPECT_EQ(plain.controller().stats().all(),
              probed.controller().stats().all());
    EXPECT_EQ(plain.controller().readLatency(),
              probed.controller().readLatency());
    EXPECT_EQ(plain.mitigation().stats().all(),
              probed.mitigation().stats().all());
    EXPECT_GT(traceCalls.calls, 0u);
    EXPECT_GT(listenerCalls.calls, 0u);
}

} // namespace
