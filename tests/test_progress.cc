/**
 * @file
 * Progress-channel coverage: journal scans, the rate/ETA clock, the
 * JSON and table status snapshots, and the `monitor` snapshot built
 * from the shard journals alone — the one shard status.
 * tests/cli_smoke.cmake takes a `monitor` snapshot mid-run, just
 * before it kills a shard, and another after the run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/orchestrator.hh"
#include "sim/progress.hh"
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

/** Row @p i of @p cells as a journal holds it (no newline). */
std::string
journalRow(const std::vector<SweepCell> &cells, std::size_t i)
{
    SweepResult r;
    r.cell = cells[i];
    r.seed = SweepRunner::cellSeed(tinyExperiment().seed,
                                   cells[i].workload.label());
    return SweepRunner::formatRow(i, r);
}

TEST(JournalScan, CountsCompleteRowsAndSkipsTornTail)
{
    const std::vector<SweepCell> cells = testGrid().expand();
    const std::uint64_t seed = tinyExperiment().seed;
    const std::string header = SweepRunner::journalHeader(cells, seed);
    const std::string row0 = journalRow(cells, 0);
    const std::string row1 = journalRow(cells, 1);

    // Rows land in completion order; a torn final line is not one.
    const std::string path = writeTempFile(
        "scan_rows.journal",
        header + "\n" + row1 + "\n" + row0 + "\n" + row1.substr(0, 20));
    const JournalScan scan = scanShardJournal(path, cells, seed);
    EXPECT_TRUE(scan.exists);
    EXPECT_TRUE(scan.error.empty()) << scan.error;
    EXPECT_EQ(scan.rows, 2u);

    // A missing journal is "no progress yet", not an error.
    const JournalScan missing = scanShardJournal(
        testing::TempDir() + "no_such.journal", cells, seed);
    EXPECT_FALSE(missing.exists);
    EXPECT_EQ(missing.rows, 0u);
    EXPECT_TRUE(missing.error.empty());

    // Headerless journals (pre-header builds) still scan, and rows
    // clamp to the shard's cell count (resumes re-record rows).
    const std::string old = writeTempFile(
        "scan_headerless.journal",
        row0 + "\n" + row1 + "\n" + row0 + "\n");
    const JournalScan clamped = scanShardJournal(old, cells, seed);
    EXPECT_TRUE(clamped.error.empty()) << clamped.error;
    EXPECT_EQ(clamped.rows, cells.size());
}

TEST(JournalScan, ForeignOrStaleJournalsAreRejectedByName)
{
    const std::vector<SweepCell> cells = testGrid().expand();
    const std::uint64_t seed = tinyExperiment().seed;
    const std::string row0 = journalRow(cells, 0);

    // A header from a differently-seeded grid names the mismatch.
    const std::string foreign = writeTempFile(
        "scan_foreign.journal",
        SweepRunner::journalHeader(cells, seed ^ 1) + "\n" + row0
            + "\n");
    const JournalScan wrongGrid = scanShardJournal(foreign, cells, seed);
    EXPECT_NE(wrongGrid.error.find("different grid"),
              std::string::npos)
        << wrongGrid.error;

    // A stale schema fails with the one schema message, quoted;
    // schema-6 and schema-7 headers too, though their rows read like
    // this build's.
    for (const char *schema : {"4", "6", "7"}) {
        const std::string staleHeader =
            std::string("# srs_sim sweep journal schema=") + schema
            + " cells=2 grid=0x0000000000000000 seed=0x0000000000000000";
        const std::string stale = writeTempFile(
            "scan_stale.journal", staleHeader + "\n" + row0 + "\n");
        const JournalScan wrongSchema =
            scanShardJournal(stale, cells, seed);
        EXPECT_NE(wrongSchema.error.find(
                      "expected sweep CSV schema v8, found: "
                      + staleHeader),
                  std::string::npos)
            << wrongSchema.error;
    }

    // A mangled header is an error, never silently skipped.
    const std::string mangled = writeTempFile(
        "scan_mangled.journal", "# srs_sim sweep journal gibberish\n");
    EXPECT_FALSE(scanShardJournal(mangled, cells, seed).error.empty());

    // Unrelated comments are fine.
    const std::string chatty = writeTempFile(
        "scan_chatty.journal", "# a note\n" + row0 + "\n");
    const JournalScan ok = scanShardJournal(chatty, cells, seed);
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.rows, 1u);
}

TEST(JournalScan, MalformedOrForeignRowsAreRejectedByName)
{
    // Each row is held to the rule `--resume` applies, so a journal
    // the shard could not resume from never reads as progress.
    const std::vector<SweepCell> cells = testGrid().expand();
    const std::uint64_t seed = tinyExperiment().seed;
    const std::string header = SweepRunner::journalHeader(cells, seed);

    const std::string junk = "this is not a sweep row";
    const JournalScan malformed = scanShardJournal(
        writeTempFile("scan_junk.journal", header + "\n" + junk + "\n"),
        cells, seed);
    EXPECT_EQ(malformed.error,
              "expected sweep CSV schema v8, found: " + junk);
    EXPECT_EQ(malformed.rows, 0u);

    // A well-formed row of another grid (T_RH 4800) names itself.
    std::vector<SweepCell> other = cells;
    for (SweepCell &cell : other)
        cell.trh = 4800;
    const std::string alien = journalRow(other, 1);
    const JournalScan foreign = scanShardJournal(
        writeTempFile("scan_alien.journal",
                      header + "\n" + journalRow(cells, 0) + "\n" + alien
                          + "\n"),
        cells, seed);
    EXPECT_NE(foreign.error.find("row 1 does not match the identity"),
              std::string::npos)
        << foreign.error;
    EXPECT_NE(foreign.error.find(alien), std::string::npos)
        << foreign.error;

    // So is a row past the end of the shard.
    std::vector<SweepCell> longer = cells;
    longer.push_back(cells.front());
    const JournalScan outside = scanShardJournal(
        writeTempFile("scan_outside.journal",
                      header + "\n" + journalRow(longer, 2) + "\n"),
        cells, seed);
    EXPECT_NE(outside.error.find("row index 2 is outside"),
              std::string::npos)
        << outside.error;
}

TEST(StatusSnapshot, JsonLinesHaveFixedShape)
{
    std::vector<ShardStatus> shards(2);
    shards[0].index = 0;
    shards[0].state = ShardState::Running;
    shards[0].rows = 2;
    shards[0].cells = 4;
    shards[0].rowsPerSec = 1.25;
    shards[0].etaSec = 1.6;
    shards[1].index = 1;
    shards[1].state = ShardState::Done;
    shards[1].rows = 4;
    shards[1].cells = 4;
    shards[1].etaSec = 0.0;

    std::ostringstream os;
    writeStatusJson(os, shards);
    EXPECT_EQ(
        os.str(),
        "{\"type\":\"shard\",\"shard\":0,\"state\":\"running\","
        "\"rows\":2,\"cells\":4,\"pct\":50.0,"
        "\"rows_per_sec\":1.25,\"eta_sec\":1.6}\n"
        "{\"type\":\"shard\",\"shard\":1,\"state\":\"done\","
        "\"rows\":4,\"cells\":4,"
        "\"pct\":100.0,\"rows_per_sec\":-1,\"eta_sec\":0.0}\n"
        "{\"type\":\"fleet\",\"shards\":2,\"pending\":0,"
        "\"running\":1,\"done\":1,\"rows\":6,"
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
        snapshotFromJournals(manifest, dir);
    ASSERT_EQ(snapshot.size(), 2u);
    for (const ShardStatus &s : snapshot) {
        EXPECT_EQ(s.state, ShardState::Done);
        EXPECT_EQ(s.rows, s.cells);
        EXPECT_DOUBLE_EQ(s.etaSec, 0.0);
    }
    EXPECT_TRUE(fleetDone(snapshot));

    // Remove one journal: that shard reads as Pending.
    std::remove(
        (dir + "/" + manifest.shards[1].csv + ".journal").c_str());
    snapshot = snapshotFromJournals(manifest, dir);
    EXPECT_EQ(snapshot[0].state, ShardState::Done);
    EXPECT_EQ(snapshot[1].state, ShardState::Pending);
    EXPECT_FALSE(fleetDone(snapshot));

    // A journal whose header names another grid is fatal by name, and
    // so is one whose only row is no sweep row.
    for (const std::string &text :
         {SweepRunner::journalHeader(manifest.shards[1].grid.expand(),
                                     exp.seed ^ 1),
          std::string("this is not a sweep row")}) {
        std::ofstream bad(dir + "/" + manifest.shards[1].csv
                          + ".journal");
        bad << text << "\n";
        bad.close();
        try {
            snapshotFromJournals(manifest, dir);
            ADD_FAILURE() << "monitor read a bad journal: " << text;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(text),
                      std::string::npos)
                << err.what();
        }
    }
}

} // namespace
} // namespace srs
