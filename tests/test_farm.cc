/**
 * @file
 * Farm subsystem coverage: hostfile parsing and slot expansion, the
 * journal-based progress channel (scans, rate/ETA clock, JSON and
 * table snapshots), transport plumbing over LocalTransport, and the
 * dispatcher's configuration and skip/fail contracts.  The
 * dispatcher is the one shard supervisor, behind `srs_sim farm` and
 * `srs_sim orchestrate` alike; tests/cli_smoke.cmake runs both end
 * to end (a shard killed and relaunched from its journal included),
 * and the CI farm smoke job kills a shard on a live two-host fleet.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/subprocess.hh"
#include "farm/dispatcher.hh"
#include "farm/hostfile.hh"
#include "farm/progress.hh"
#include "farm/transport.hh"
#include "sim/orchestrator.hh"
#include "sim/sweep.hh"

namespace srs
{
namespace
{

/** Small budget so a full sweep stays fast in Debug CI. */
ExperimentConfig
tinyExperiment()
{
    ExperimentConfig exp;
    exp.cycles = 60'000;
    exp.epochLen = 25'000;
    return exp;
}

/** 2 workloads x 1 mitigation x 1 trh x 1 rate: 2 one-cell shards. */
SweepGrid
testGrid()
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    return grid;
}

/** Write @p text to @p name under the test temp dir; returns path. */
std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(Hostfile, RoundTripsThroughDisk)
{
    std::vector<HostSpec> fleet;
    fleet.push_back({"local", 2, "", ""});
    fleet.push_back({"user@node1", 4, "/opt/srs/bin/srs_sim",
                     "/scratch/srs"});
    const std::string path =
        writeTempFile("hosts_rt.conf", serializeHostfile(fleet));
    const std::vector<HostSpec> loaded = loadHostfile(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].host, "local");
    EXPECT_EQ(loaded[0].jobs, 2u);
    EXPECT_TRUE(loaded[0].isLocal());
    EXPECT_EQ(loaded[1].host, "user@node1");
    EXPECT_EQ(loaded[1].jobs, 4u);
    EXPECT_EQ(loaded[1].sim, "/opt/srs/bin/srs_sim");
    EXPECT_EQ(loaded[1].workdir, "/scratch/srs");
    EXPECT_FALSE(loaded[1].isLocal());
    EXPECT_EQ(serializeHostfile(loaded), serializeHostfile(fleet));
}

TEST(Hostfile, MisconfiguredFleetsAreFatalByName)
{
    // Unsupported version.
    EXPECT_THROW(loadHostfile(writeTempFile(
                     "hosts_v9.conf",
                     "version=9\nhosts=1\nhost0.host=local\n")),
                 FatalError);
    // No hosts at all.
    EXPECT_THROW(
        loadHostfile(writeTempFile("hosts_none.conf", "version=1\n")),
        FatalError);
    // A host block without its host= key.
    EXPECT_THROW(loadHostfile(writeTempFile(
                     "hosts_nohost.conf",
                     "version=1\nhosts=1\nhost0.jobs=2\n")),
                 FatalError);
    // Zero job slots.
    EXPECT_THROW(
        loadHostfile(writeTempFile(
            "hosts_zerojobs.conf",
            "version=1\nhosts=1\nhost0.host=local\nhost0.jobs=0\n")),
        FatalError);
    // An ssh destination with nowhere to run.
    EXPECT_THROW(loadHostfile(writeTempFile(
                     "hosts_nowork.conf",
                     "version=1\nhosts=1\nhost0.host=node7\n")),
                 FatalError);
    // Typos are fatal, not silently ignored knobs.
    EXPECT_THROW(loadHostfile(writeTempFile(
                     "hosts_typo.conf",
                     "version=1\nhosts=1\nhost0.host=local\n"
                     "host0.slots=4\n")),
                 FatalError);
}

TEST(Hostfile, SlotsExpandHostMajor)
{
    std::vector<HostSpec> fleet;
    fleet.push_back({"a", 2, "", ""});
    fleet.push_back({"local", 1, "", ""});
    const std::vector<std::size_t> slots = expandHostSlots(fleet);
    EXPECT_EQ(slots, (std::vector<std::size_t>{0, 0, 1}));
}

TEST(Transport, ShellQuoteSurvivesHostileStrings)
{
    EXPECT_EQ(shellQuote("plain"), "'plain'");
    EXPECT_EQ(shellQuote("it's"), "'it'\\''s'");
    EXPECT_EQ(shellQuote("a b;rm -rf"), "'a b;rm -rf'");
}

TEST(Transport, LocalLaunchReportsChildExitFaithfully)
{
    std::string dir = testing::TempDir();
    if (!dir.empty() && dir.back() == '/')
        dir.pop_back();
    LocalTransport transport("local", dir);
    EXPECT_EQ(transport.label(), "local");
    EXPECT_EQ(transport.remoteDir(), dir);

    const std::string log = dir + "/transport_test.log";
    std::remove(log.c_str());
    const long ok = transport.launch(
        {"/bin/sh", "-c", "echo transport-was-here"}, log);
    EXPECT_TRUE(processExitedCleanly(waitProcess(ok)));
    EXPECT_NE(readFile(log).find("transport-was-here"),
              std::string::npos);

    const long bad =
        transport.launch({"/bin/sh", "-c", "exit 3"}, log);
    const int status = waitProcess(bad);
    EXPECT_FALSE(processExitedCleanly(status));
    EXPECT_NE(describeProcessExit(status).find("status 3"),
              std::string::npos);
}

TEST(Transport, LocalPullIsAnExistenceCheck)
{
    std::string dir = testing::TempDir();
    if (!dir.empty() && dir.back() == '/')
        dir.pop_back();
    LocalTransport transport("local", dir);
    EXPECT_FALSE(transport.pull("no_such_shard_file.journal"));
    writeTempFile("pull_probe.journal", "row\n");
    EXPECT_TRUE(transport.pull("pull_probe.journal"));
    // push is a no-op locally: the shard writes in place.
    transport.push("pull_probe.journal");
}

TEST(Transport, FactoryDispatchesOnHostName)
{
    EXPECT_NE(dynamic_cast<LocalTransport *>(
                  makeTransport({"local", 1, "", ""}, "/tmp").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<SshTransport *>(
                  makeTransport({"node1", 1, "", "/scratch"}, "/tmp")
                      .get()),
              nullptr);
    // An ssh transport without a workdir cannot exist.
    EXPECT_THROW(makeTransport({"node1", 1, "", ""}, "/tmp"),
                 FatalError);
}

TEST(ProgressClock, RatesNeedTwoAdvancingSamples)
{
    ProgressClock clock(2);
    EXPECT_LT(clock.rowsPerSec(0), 0.0);
    clock.sample(0, 0, 10.0);
    EXPECT_LT(clock.rowsPerSec(0), 0.0); // one sample: unknown
    clock.sample(0, 10, 20.0);
    EXPECT_DOUBLE_EQ(clock.rowsPerSec(0), 1.0);
    EXPECT_DOUBLE_EQ(clock.etaSec(0, 30), 20.0);
    // A shard the clock never saw stays unknown.
    EXPECT_LT(clock.rowsPerSec(1), 0.0);
    EXPECT_LT(clock.etaSec(1, 30), 0.0);
    // Out-of-range shards are harmless.
    EXPECT_LT(clock.rowsPerSec(99), 0.0);
    clock.sample(99, 5, 1.0);
}

TEST(ProgressClock, RestartShrinkResetsTheMeasurement)
{
    ProgressClock clock(1);
    clock.sample(0, 8, 10.0);
    clock.sample(0, 12, 20.0);
    EXPECT_GT(clock.rowsPerSec(0), 0.0);
    // A relaunch resumed from an older checkpoint: the row count
    // went backwards.  The rate must restart, not go negative.
    clock.sample(0, 5, 30.0);
    EXPECT_LT(clock.rowsPerSec(0), 0.0);
    clock.sample(0, 8, 31.0);
    EXPECT_DOUBLE_EQ(clock.rowsPerSec(0), 3.0);
    // At or past the target the ETA is zero, whatever the rate.
    EXPECT_DOUBLE_EQ(clock.etaSec(0, 8), 0.0);
}

TEST(JournalScan, CountsCompleteRowsAndSkipsTornTail)
{
    const std::vector<SweepCell> cells = testGrid().expand();
    const ExperimentConfig exp = tinyExperiment();
    const std::string header =
        SweepRunner::journalHeader(cells, exp.seed);

    const std::string path = writeTempFile(
        "scan_rows.journal",
        header + "\nrow-a\nrow-b\ntorn-final-line-without-newline");
    const JournalScan scan =
        scanShardJournal(path, cells.size(), header);
    EXPECT_TRUE(scan.exists);
    EXPECT_TRUE(scan.headerSeen);
    EXPECT_TRUE(scan.error.empty()) << scan.error;
    EXPECT_EQ(scan.rows, 2u);

    // A missing journal is "no progress yet", not an error.
    const JournalScan missing = scanShardJournal(
        testing::TempDir() + "no_such.journal", cells.size(), header);
    EXPECT_FALSE(missing.exists);
    EXPECT_EQ(missing.rows, 0u);
    EXPECT_TRUE(missing.error.empty());

    // Headerless journals (pre-header builds) still scan, and rows
    // clamp to the shard's cell count (resumes re-record rows).
    const std::string old = writeTempFile(
        "scan_headerless.journal", "r0\nr1\nr2\nr3\nr4\n");
    const JournalScan clamped =
        scanShardJournal(old, cells.size(), header);
    EXPECT_FALSE(clamped.headerSeen);
    EXPECT_TRUE(clamped.error.empty());
    EXPECT_EQ(clamped.rows, cells.size());
}

TEST(JournalScan, ForeignOrStaleJournalsAreRejectedByName)
{
    const std::vector<SweepCell> cells = testGrid().expand();
    const ExperimentConfig exp = tinyExperiment();
    const std::string header =
        SweepRunner::journalHeader(cells, exp.seed);

    // A header from a differently-seeded grid names the mismatch.
    const std::string foreign = writeTempFile(
        "scan_foreign.journal",
        SweepRunner::journalHeader(cells, exp.seed ^ 1) + "\nrow\n");
    const JournalScan wrongGrid =
        scanShardJournal(foreign, cells.size(), header);
    EXPECT_NE(wrongGrid.error.find("different grid"),
              std::string::npos)
        << wrongGrid.error;

    // A stale schema fails with the one schema message, quoted.
    const std::string staleHeader =
        "# srs_sim sweep journal schema=4 cells=2 "
        "grid=0x0000000000000000 seed=0x0000000000000000";
    const std::string stale =
        writeTempFile("scan_stale.journal", staleHeader + "\n");
    const JournalScan wrongSchema =
        scanShardJournal(stale, cells.size(), header);
    EXPECT_NE(wrongSchema.error.find(
                  "expected sweep CSV schema v6, found: " + staleHeader),
              std::string::npos)
        << wrongSchema.error;

    // A mangled header is an error, never silently skipped.
    const std::string mangled = writeTempFile(
        "scan_mangled.journal", "# srs_sim sweep journal gibberish\n");
    EXPECT_FALSE(
        scanShardJournal(mangled, cells.size(), header).error.empty());

    // Unrelated comments are fine.
    const std::string chatty = writeTempFile(
        "scan_chatty.journal", "# a note\nrow\n");
    const JournalScan ok =
        scanShardJournal(chatty, cells.size(), header);
    EXPECT_TRUE(ok.error.empty());
    EXPECT_EQ(ok.rows, 1u);
}

TEST(StatusSnapshot, JsonLinesHaveFixedShape)
{
    std::vector<ShardStatus> shards(2);
    shards[0].index = 0;
    shards[0].state = ShardState::Running;
    shards[0].host = "local";
    shards[0].rows = 2;
    shards[0].cells = 4;
    shards[0].attempts = 1;
    shards[0].rowsPerSec = 1.25;
    shards[0].etaSec = 1.6;
    shards[1].index = 1;
    shards[1].state = ShardState::Done;
    shards[1].host = "user@node1";
    shards[1].rows = 4;
    shards[1].cells = 4;
    shards[1].attempts = 2;
    shards[1].etaSec = 0.0;

    std::ostringstream os;
    writeStatusJson(os, shards);
    EXPECT_EQ(
        os.str(),
        "{\"type\":\"shard\",\"shard\":0,\"state\":\"running\","
        "\"host\":\"local\",\"rows\":2,\"cells\":4,\"pct\":50.0,"
        "\"rows_per_sec\":1.25,\"eta_sec\":1.6,\"attempts\":1}\n"
        "{\"type\":\"shard\",\"shard\":1,\"state\":\"done\","
        "\"host\":\"user@node1\",\"rows\":4,\"cells\":4,"
        "\"pct\":100.0,\"rows_per_sec\":-1,\"eta_sec\":0.0,"
        "\"attempts\":2}\n"
        "{\"type\":\"fleet\",\"shards\":2,\"pending\":0,"
        "\"running\":1,\"done\":1,\"failed\":0,\"rows\":6,"
        "\"cells\":8,\"pct\":75.0,\"rows_per_sec\":1.25,"
        "\"eta_sec\":1.6}\n");

    EXPECT_FALSE(fleetDone(shards));
    shards[0].state = ShardState::Done;
    EXPECT_TRUE(fleetDone(shards));

    std::ostringstream table;
    writeStatusTable(table, shards);
    EXPECT_NE(table.str().find("fleet: 2/2 shards, 6/8 rows"),
              std::string::npos)
        << table.str();
}

TEST(StatusSnapshot, HostLabelsRoundTripThroughTheStatusFile)
{
    std::vector<ShardStatus> shards(2);
    shards[0].index = 0;
    shards[0].host = "local";
    shards[1].index = 1;
    shards[1].host = "user@node1";
    std::ostringstream os;
    writeStatusJson(os, shards);
    const std::string path =
        writeTempFile("farm_rt.status", os.str());

    const std::vector<std::string> hosts =
        readHostsFromStatus(path, 2);
    ASSERT_EQ(hosts.size(), 2u);
    EXPECT_EQ(hosts[0], "local");
    EXPECT_EQ(hosts[1], "user@node1");

    // Missing status file: empty labels, never an error — monitor
    // must work from the journals alone.
    const std::vector<std::string> none = readHostsFromStatus(
        testing::TempDir() + "no_such.status", 2);
    EXPECT_EQ(none, std::vector<std::string>(2));
}

/**
 * Run every shard of @p manifest in-process and write its CSV (and
 * journal) into @p dir, as finished `srs_sim sweep` children would.
 */
void
completeShardsInProcess(const ShardManifest &manifest,
                        const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (const ShardSpec &shard : manifest.shards) {
        SweepRunner runner(manifest.exp, 2);
        runner.setJournal(dir + "/" + shard.csv + ".journal");
        std::ofstream out(dir + "/" + shard.csv,
                          std::ios::trunc | std::ios::binary);
        SweepRunner::writeCsv(out, runner.run(shard.grid));
    }
}

TEST(Monitor, SnapshotComesFromJournalsAlone)
{
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest =
        planShards(testGrid(), exp, 2);
    std::string dir = testing::TempDir() + "monitor_dir";
    completeShardsInProcess(manifest, dir);

    // Both shards journaled to completion: Done, rows == cells.
    std::vector<ShardStatus> snapshot =
        snapshotFromJournals(manifest, dir, nullptr);
    ASSERT_EQ(snapshot.size(), 2u);
    for (const ShardStatus &s : snapshot) {
        EXPECT_EQ(s.state, ShardState::Done);
        EXPECT_EQ(s.rows, s.cells);
        EXPECT_DOUBLE_EQ(s.etaSec, 0.0);
        EXPECT_EQ(s.host, "-"); // no status file consulted
    }
    EXPECT_TRUE(fleetDone(snapshot));

    // Remove one journal: that shard reads as Pending.
    std::remove(
        (dir + "/" + manifest.shards[1].csv + ".journal").c_str());
    snapshot = snapshotFromJournals(manifest, dir, nullptr);
    EXPECT_EQ(snapshot[0].state, ShardState::Done);
    EXPECT_EQ(snapshot[1].state, ShardState::Pending);
    EXPECT_FALSE(fleetDone(snapshot));

    // A journal whose header names another grid is fatal by name.
    std::ofstream bad(dir + "/" + manifest.shards[1].csv
                      + ".journal");
    bad << SweepRunner::journalHeader(
               manifest.shards[1].grid.expand(), exp.seed ^ 1)
        << "\n";
    bad.close();
    EXPECT_THROW(snapshotFromJournals(manifest, dir, nullptr),
                 FatalError);
}

TEST(FarmDispatcher, MisconfigurationIsFatalBeforeAnyLaunch)
{
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 2);
    FarmConfig none;
    EXPECT_THROW(FarmDispatcher(manifest, none), FatalError);
    FarmConfig noSim;
    noSim.dir = "some_dir";
    noSim.hosts = {{"local", 1, "", ""}};
    noSim.simPath = "";
    EXPECT_THROW(FarmDispatcher(manifest, noSim), FatalError);
    FarmConfig noHosts;
    noHosts.dir = "some_dir";
    noHosts.simPath = "/bin/false";
    EXPECT_THROW(FarmDispatcher(manifest, noHosts), FatalError);
}

TEST(FarmDispatcher, CompletedShardsMergeWithoutLaunching)
{
    // Every shard CSV already validates, so a farm pass over the
    // directory — even with more fleet slots than shards and a sim
    // path that could never work — launches nothing and stitches
    // the byte-identical merged CSV.
    const ExperimentConfig exp = tinyExperiment();
    const SweepGrid grid = testGrid();
    const ShardManifest manifest = planShards(grid, exp, 2);
    std::string dir = testing::TempDir() + "farm_done_dir";
    completeShardsInProcess(manifest, dir);

    SweepRunner single(exp, 1);
    std::ostringstream full;
    SweepRunner::writeCsv(full, single.run(grid));

    FarmConfig cfg;
    cfg.dir = dir;
    cfg.simPath = "/bin/false"; // must never be invoked
    cfg.hosts = {{"local", 4, "", ""}, {"local", 4, "", ""}};
    cfg.pollMs = 10;
    FarmDispatcher farm(manifest, cfg);
    std::ostringstream merged;
    farm.run(merged);
    EXPECT_EQ(merged.str(), full.str());
    EXPECT_EQ(farm.launches(), 0u);
    EXPECT_EQ(farm.restarts(), 0u);
    EXPECT_EQ(farm.skippedShards(), manifest.shards.size());
    for (const ShardRunState &state : farm.shardStates())
        EXPECT_TRUE(state.done);

    // The run left a final status snapshot behind: all shards done.
    const std::string status = readFile(dir + "/farm.status");
    EXPECT_NE(status.find("\"type\":\"fleet\""), std::string::npos);
    EXPECT_NE(status.find("\"done\":2"), std::string::npos);
}

TEST(FarmDispatcher, ExhaustedRetriesAreFatalWithTheChildsExit)
{
    // A fleet whose sim always dies: one relaunch (retries=1), then
    // a fatal that carries the child's exit description.
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest =
        planShards(testGrid(), exp, 1);
    std::string dir = testing::TempDir() + "farm_fail_dir";
    std::filesystem::remove_all(dir);

    FarmConfig cfg;
    cfg.dir = dir;
    cfg.simPath = "/bin/false";
    cfg.hosts = {{"local", 1, "", ""}};
    cfg.retries = 1;
    cfg.pollMs = 10;
    FarmDispatcher farm(manifest, cfg);
    std::ostringstream merged;
    try {
        farm.run(merged);
        FAIL() << "a fleet of /bin/false cannot succeed";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("failed after 2 attempt(s)"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find("status 1"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_EQ(farm.launches(), 2u);
    EXPECT_EQ(farm.restarts(), 1u);
    EXPECT_FALSE(farm.shardStates()[0].lastError.empty());
}

} // namespace
} // namespace srs
