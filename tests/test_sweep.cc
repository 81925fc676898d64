/**
 * @file
 * SweepRunner / ThreadPool coverage: grid expansion order, result
 * ordering under concurrency, threads=1 vs threads=8 determinism,
 * per-cell seeding, and CSV stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/thread_pool.hh"
#include "sim/sweep.hh"
#include "stale_schema.hh"
#include "trace_fixture.hh"

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

TEST(ThreadPool, RunsEveryJobOnce)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
}

TEST(SweepGrid, ExpandsRowMajorRatesInnermost)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200, 4800};
    grid.swapRates = {3, 6};
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 16u);
    // First block: workload gups, mitigation rrs.
    EXPECT_EQ(cells[0].workload.label(), "gups");
    EXPECT_EQ(cells[0].mitigation, MitigationKind::Rrs);
    EXPECT_EQ(cells[0].trh, 1200u);
    EXPECT_EQ(cells[0].swapRate, 3u);
    EXPECT_EQ(cells[1].swapRate, 6u);
    EXPECT_EQ(cells[2].trh, 4800u);
    // Mitigation increments after rates x trhs cells.
    EXPECT_EQ(cells[4].mitigation, MitigationKind::ScaleSrs);
    // Workload increments after mitigations x trhs x rates cells.
    EXPECT_EQ(cells[8].workload.label(), "gcc");
    EXPECT_EQ(cells[8].mitigation, MitigationKind::Rrs);
}

TEST(SweepGrid, EmptyAxisYieldsNoCells)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.mitigations = {};
    grid.trhs = {1200};
    grid.swapRates = {3};
    EXPECT_TRUE(grid.expand().empty());
}

TEST(SweepRunner, CellSeedIsDeterministicAndWorkloadKeyed)
{
    const std::uint64_t a = SweepRunner::cellSeed(0xBEEF, "gups");
    EXPECT_EQ(a, SweepRunner::cellSeed(0xBEEF, "gups"));
    EXPECT_NE(a, SweepRunner::cellSeed(0xBEEF, "gcc"));
    EXPECT_NE(a, SweepRunner::cellSeed(0xF00D, "gups"));
}

TEST(SweepRunner, ResultsMatchCellOrder)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200, 4800};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();

    SweepRunner runner(tinyExperiment(), 8);
    const std::vector<SweepResult> results = runner.run(cells);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(results[i].cell.workload.label(),
                  cells[i].workload.label());
        EXPECT_EQ(results[i].cell.mitigation, cells[i].mitigation);
        EXPECT_EQ(results[i].cell.trh, cells[i].trh);
        EXPECT_EQ(results[i].cell.swapRate, cells[i].swapRate);
        EXPECT_GT(results[i].run.aggregateIpc, 0.0);
        EXPECT_GT(results[i].baselineIpc, 0.0);
    }
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc"),
                      WorkloadSpec::synthetic("hmmer")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    const ExperimentConfig exp = tinyExperiment();

    SweepRunner serial(exp, 1);
    SweepRunner parallel(exp, 8);
    const std::vector<SweepResult> a = serial.run(grid);
    const std::vector<SweepResult> b = parallel.run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed) << "cell " << i;
        EXPECT_EQ(a[i].run.aggregateIpc, b[i].run.aggregateIpc)
            << "cell " << i;
        EXPECT_EQ(a[i].run.swaps, b[i].run.swaps) << "cell " << i;
        EXPECT_EQ(a[i].baselineIpc, b[i].baselineIpc) << "cell " << i;
        EXPECT_EQ(a[i].normalized, b[i].normalized) << "cell " << i;
    }

    // CSV serialization is byte-identical too.
    std::ostringstream csvA, csvB;
    SweepRunner::writeCsv(csvA, a);
    SweepRunner::writeCsv(csvB, b);
    EXPECT_EQ(csvA.str(), csvB.str());
}

TEST(SweepRunner, BaselineSharesTraceSeedWithProtectedCells)
{
    // A baseline-mitigation cell replays the exact baseline run, so
    // its normalized performance is exactly 1.
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_DOUBLE_EQ(results[0].run.aggregateIpc,
                     results[0].baselineIpc);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
}

TEST(SweepRunner, UnknownWorkloadIsFatalBeforeSimulation)
{
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("no-such-benchmark");
    SweepRunner runner(tinyExperiment(), 2);
    EXPECT_THROW(runner.run(cells), FatalError);
}

TEST(SweepRunner, ConfigErrorInWorkerSurfacesAsFatalError)
{
    // A bad machine config only trips inside the worker (System
    // construction); the error must come back as a FatalError on the
    // calling thread, not std::terminate the process.
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::Rrs;
    cells[0].trh = 1200;
    cells[0].swapRate = 6;
    ExperimentConfig exp = tinyExperiment();
    exp.epochLen = 100; // shorter than one tRC
    SweepRunner runner(exp, 2);
    EXPECT_THROW(runner.run(cells), FatalError);
}

TEST(SweepRunner, ZeroSwapThresholdIsFatalBeforeSimulation)
{
    // A zero rate (which divided by zero in a worker) or a T_S =
    // trh/rate of 0 is fatal by its pair before any run: with an
    // epoch every System rejects, the pair's message still wins.
    ExperimentConfig exp = tinyExperiment();
    exp.epochLen = 100;
    for (const auto &[trh, rate] :
         {std::pair<std::uint32_t, std::uint32_t>{1200, 0}, {5, 6}}) {
        std::vector<SweepCell> cells(1);
        cells[0].workload = WorkloadSpec::synthetic("gups");
        cells[0].mitigation = MitigationKind::Rrs;
        cells[0].trh = trh;
        cells[0].swapRate = rate;
        const std::string pair = "trh=" + std::to_string(trh)
            + " rate=" + std::to_string(rate);
        try {
            SweepRunner(exp, 1).run(cells);
            FAIL() << pair << " was accepted";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(pair),
                      std::string::npos) << err.what();
        }
    }
}

/** CSV text of one full run of @p cells at @p threads workers. */
std::string
sweepCsv(const std::vector<SweepCell> &cells, std::size_t threads)
{
    SweepRunner runner(tinyExperiment(), threads);
    std::ostringstream os;
    SweepRunner::writeCsv(os, runner.run(cells));
    return os.str();
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTempFile(const char *name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
}

std::vector<SweepCell>
resumeTestCells()
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    return grid.expand();
}

/**
 * The exact row (with its newline) a sweep writes for cell @p i,
 * synthesized from fixed IPCs instead of a simulation.
 */
std::string
syntheticRow(const std::vector<SweepCell> &cells, std::size_t i)
{
    SweepResult r;
    r.cell = cells[i];
    r.seed = SweepRunner::cellSeed(tinyExperiment().seed,
                                   cells[i].workload.label());
    r.run.aggregateIpc = 1.0;
    r.baselineIpc = 2.0;
    r.normalized = 0.5;
    return SweepRunner::formatRow(i, r) + "\n";
}

TEST(SweepResume, TruncatedCsvResumesByteIdentical)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);

    // Simulate a sweep killed mid-grid: keep the header, the first
    // two data rows, and half of the third (a torn final line).
    std::istringstream in(full);
    std::string line, partial;
    for (int i = 0; i < 3 && std::getline(in, line); ++i)
        partial += line + "\n";
    std::getline(in, line);
    partial += line.substr(0, line.size() / 2);
    const std::string path =
        writeTempFile("sweep_truncated.csv", partial);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SweepRunner runner(tinyExperiment(), threads);
        runner.setResume(path);
        const std::vector<SweepResult> results = runner.run(cells);
        // The two intact rows were reused, the torn one recomputed.
        EXPECT_FALSE(results[0].resumedRow.empty());
        EXPECT_FALSE(results[1].resumedRow.empty());
        EXPECT_TRUE(results[2].resumedRow.empty());
        EXPECT_GT(results[0].normalized, 0.0);
        std::ostringstream os;
        SweepRunner::writeCsv(os, results);
        EXPECT_EQ(os.str(), full) << "threads=" << threads;
    }
}

TEST(SweepResume, FinalLineTornMidDigitIsNotTrusted)
{
    // The nastiest truncation: the file is cut inside the digits of
    // the last field, so the torn line still splits into 25
    // plausible fields.  Only the missing trailing newline gives it
    // away; the row must be recomputed, not trusted.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    ASSERT_EQ(full.back(), '\n');
    const std::string path = writeTempFile(
        "sweep_torn_digit.csv",
        full.substr(0, full.size() - 2)); // drop "N\n" of the last row

    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_TRUE(results.back().resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
}

TEST(SweepResume, JournalIsACompleteCheckpoint)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    const std::string journalPath =
        testing::TempDir() + "sweep_test.journal";

    SweepRunner first(tinyExperiment(), 8);
    first.setJournal(journalPath);
    first.run(cells);

    // Resuming from the journal recomputes nothing and reproduces
    // the uninterrupted CSV byte for byte.
    SweepRunner second(tinyExperiment(), 8);
    second.setResume(journalPath);
    const std::vector<SweepResult> results = second.run(cells);
    for (const SweepResult &r : results)
        EXPECT_FALSE(r.resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
    std::remove(journalPath.c_str());
}

TEST(SweepResume, MismatchedGridIsFatal)
{
    // Synthesize a plausible checkpoint without running simulations:
    // formatRow() emits the exact bytes a real sweep would.
    const std::vector<SweepCell> cells = resumeTestCells();
    std::string full;
    for (std::size_t i = 0; i < cells.size(); ++i)
        full += syntheticRow(cells, i);
    const std::string path =
        writeTempFile("sweep_mismatch.csv", full);

    // Same shape, different T_RH: every row's identity prefix
    // disagrees with the file.
    std::vector<SweepCell> other = cells;
    for (SweepCell &cell : other)
        cell.trh = 4800;
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    EXPECT_THROW(runner.run(other), FatalError);

    // A row index past the end of the grid is rejected too.
    SweepRunner shrunk(tinyExperiment(), 2);
    shrunk.setResume(path);
    EXPECT_THROW(shrunk.run(std::vector<SweepCell>(
                     cells.begin(), cells.begin() + 2)),
                 FatalError);
}

TEST(SweepJournal, HeaderNamesSchemaAndGridIdentity)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const ExperimentConfig exp = tinyExperiment();
    const std::string header =
        SweepRunner::journalHeader(cells, exp.seed);
    const std::uint64_t digest =
        SweepRunner::gridDigest(cells, exp.seed);
    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "# srs_sim sweep journal schema=8 cells=%zu "
                  "grid=0x%016llx seed=0x%016llx",
                  cells.size(), static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(exp.seed));
    EXPECT_EQ(header, expected);
    EXPECT_EQ(SweepRunner::checkJournalHeader(header, header), "");

    // The digest is a function of the grid and the base seed: any
    // change to either renames the journal.
    EXPECT_NE(SweepRunner::gridDigest(cells, exp.seed ^ 1), digest);
    std::vector<SweepCell> other = cells;
    other[0].trh = 4800;
    EXPECT_NE(SweepRunner::gridDigest(other, exp.seed), digest);

    // Unrelated comments are not journal headers.
    EXPECT_EQ(SweepRunner::checkJournalHeader("# a note", header), "");
    // A mangled header line is rejected, never silently skipped.
    EXPECT_EQ(SweepRunner::checkJournalHeader(
                  "# srs_sim sweep journal gibberish", header),
              "expected sweep CSV schema v8, found: "
              "# srs_sim sweep journal gibberish");
}

TEST(SweepJournal, RunWritesTheHeaderFirstAndResumeAcceptsIt)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    const std::string journalPath =
        testing::TempDir() + "sweep_header.journal";

    SweepRunner first(tinyExperiment(), 8);
    first.setJournal(journalPath);
    first.run(cells);

    std::ifstream in(journalPath);
    std::string firstLine;
    ASSERT_TRUE(std::getline(in, firstLine));
    EXPECT_EQ(firstLine, SweepRunner::journalHeader(
                             cells, tinyExperiment().seed));

    // The headered journal resumes byte-identically.
    SweepRunner second(tinyExperiment(), 8);
    second.setResume(journalPath);
    std::ostringstream os;
    SweepRunner::writeCsv(os, second.run(cells));
    EXPECT_EQ(os.str(), full);
    std::remove(journalPath.c_str());
}

TEST(SweepJournal, MismatchedHeaderIsFatalByName)
{
    const std::vector<SweepCell> cells = resumeTestCells();

    // A journal headed for a differently-seeded grid must be
    // rejected even though it holds no rows to disagree with.
    const std::string foreign = writeTempFile(
        "journal_foreign",
        SweepRunner::journalHeader(cells, tinyExperiment().seed ^ 1)
            + "\n");
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(foreign);
    try {
        runner.run(cells);
        FAIL() << "foreign journal header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("different grid"),
                  std::string::npos)
            << err.what();
    }

    // A stale schema fails with the one schema message, quoted, even
    // when its rows are this build's: v6, v7 and v8 rows are alike,
    // but a v7 journal belongs to a v7 manifest.
    std::string rows;
    for (std::size_t i = 0; i < cells.size(); ++i)
        rows += syntheticRow(cells, i);
    for (const char *schema : {"4", "6", "7"}) {
        const std::string staleHeader =
            std::string("# srs_sim sweep journal schema=") + schema
            + " cells=4 grid=0x0000000000000000 seed=0x0000000000000000";
        const std::string stale = writeTempFile(
            "journal_stale", staleHeader + "\n" + rows);
        SweepRunner old(tinyExperiment(), 2);
        old.setResume(stale);
        try {
            old.run(cells);
            FAIL() << "schema-" << schema
                   << " journal header was not rejected";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "expected sweep CSV schema v8, found: "
                          + staleHeader),
                      std::string::npos)
                << err.what();
        }
    }

    // Headerless journals (pre-header builds) still resume.
    const std::string headerless =
        writeTempFile("journal_headerless", rows);
    SweepRunner tolerant(tinyExperiment(), 2);
    tolerant.setResume(headerless);
    const std::vector<SweepResult> results = tolerant.run(cells);
    for (const SweepResult &r : results)
        EXPECT_FALSE(r.resumedRow.empty());
}

TEST(SweepMix, CellsRouteThroughRunWorkloadMixDeterministically)
{
    const ExperimentConfig exp = tinyExperiment();
    std::vector<SweepCell> cells;
    SweepCell mix;
    mix.workload = WorkloadSpec::mix(0, exp.numCores);
    ASSERT_EQ(mix.workload.label(), "mix0");
    ASSERT_EQ(mix.workload.kind, WorkloadKind::Mix);
    ASSERT_EQ(mix.workload.mixProfiles.size(), exp.numCores);
    mix.mitigation = MitigationKind::Rrs;
    mix.trh = 1200;
    mix.swapRate = 6;
    cells.push_back(mix);
    SweepCell single;
    single.workload = WorkloadSpec::synthetic("gups");
    single.mitigation = MitigationKind::Rrs;
    single.trh = 1200;
    single.swapRate = 6;
    cells.push_back(single);

    EXPECT_EQ(sweepCsv(cells, 1), sweepCsv(cells, 8));
    SweepRunner runner(exp, 4);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[0].run.aggregateIpc, 0.0);
}

TEST(SweepMix, SpelledMixPointsExpandInListOrder)
{
    // A MIX point is a workload spec: spelled in the list, it expands
    // where it stands, with the per-core draw of its index, whatever
    // else the list holds (so a shard naming mix3,mix4 runs the cells
    // the full grid would).
    SweepGrid grid;
    grid.workloads = splitSpecList("gups,mix3,mix4", 8);
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].workload.label(), "gups");
    EXPECT_TRUE(cells[0].workload.mixProfiles.empty());
    EXPECT_EQ(cells[1].workload, WorkloadSpec::mix(3, 8));
    EXPECT_EQ(cells[2].workload, WorkloadSpec::mix(4, 8));
    EXPECT_EQ(cells[1].workload.mixProfiles.size(), 8u);
    // Distinct MIX points draw distinct per-core profile lists.
    EXPECT_NE(cells[1].workload.mixProfiles,
              cells[2].workload.mixProfiles);
}

TEST(SweepMix, InconsistentLabelOrCoreCountIsFatal)
{
    const ExperimentConfig exp = tinyExperiment();
    SweepCell a;
    a.workload = WorkloadSpec::mix(0, exp.numCores);
    a.mitigation = MitigationKind::Rrs;
    SweepCell b;
    b.workload = WorkloadSpec::mix(1, exp.numCores);
    b.workload.name = a.workload.name; // same label, other profiles
    b.mitigation = MitigationKind::ScaleSrs;
    SweepRunner runner(exp, 2);
    EXPECT_THROW(runner.run({a, b}), FatalError);

    SweepCell c;
    c.workload = WorkloadSpec::mix(0, exp.numCores + 1);
    SweepRunner runner2(exp, 2);
    EXPECT_THROW(runner2.run({c}), FatalError);
}

TEST(SweepCsv, HeaderAndRowShape)
{
    SweepResult r;
    r.cell.workload = WorkloadSpec::synthetic("gups");
    r.cell.mitigation = MitigationKind::Rrs;
    r.cell.trh = 1200;
    r.cell.swapRate = 6;
    r.seed = 0x1234;
    r.run.aggregateIpc = 1.5;
    r.baselineIpc = 2.0;
    r.normalized = 0.75;
    r.run.p50Lat = 31;
    r.run.p99Lat = 95;
    r.run.p999Lat = 127;
    r.run.latSamples = 4242;
    std::ostringstream os;
    SweepRunner::writeCsv(os, {r});
    const std::string csv = os.str();
    EXPECT_NE(csv.find("index,workload_spec,mitigation,tracker,trh,"
                       "rate,axes,seed,"),
              std::string::npos);
    // Schema v6: the Monte-Carlo confidence columns close the
    // header; performance cells write zeros there.
    EXPECT_NE(csv.find(",p50_lat,p99_lat,p999_lat,lat_samples,"
                       "iterations,censored,p_break,ci_lo,ci_hi\n"),
              std::string::npos);
    EXPECT_NE(csv.find("0,gups,rrs,misra-gries,1200,6,closed,"),
              std::string::npos);
    EXPECT_NE(csv.find("0.750000"), std::string::npos);
    EXPECT_NE(csv.find(",31,95,127,4242,0,0,0,0,0\n"),
              std::string::npos);
    // Every data row carries exactly kRowColumns comma-separated
    // fields.
    const std::string row = csv.substr(csv.find('\n') + 1);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(row.begin(), row.end(), ',')),
              SweepRunner::kRowColumns - 1);
}

TEST(WorkloadSpecApi, ParseRoundTripsSyntheticAndTraceSpellings)
{
    const WorkloadSpec synth = WorkloadSpec::parse("gcc", 8);
    EXPECT_EQ(synth.kind, WorkloadKind::Synthetic);
    EXPECT_EQ(synth.label(), "gcc");

    const WorkloadSpec one = WorkloadSpec::parse("trace:/tmp/a.usimm", 8);
    EXPECT_EQ(one.kind, WorkloadKind::TraceFile);
    ASSERT_EQ(one.tracePaths.size(), 1u);
    EXPECT_EQ(one.label(), "trace:/tmp/a.usimm");
    EXPECT_EQ(WorkloadSpec::parse(one.label(), 8), one);

    // Per-core path lists round-trip through the ';' spelling.
    std::string perCore = "trace:";
    for (int c = 0; c < 8; ++c)
        perCore += (c ? ";" : "") + ("/t/c" + std::to_string(c));
    const WorkloadSpec spec = WorkloadSpec::parse(perCore, 8);
    EXPECT_EQ(spec.tracePaths.size(), 8u);
    EXPECT_EQ(spec.label(), perCore);
    EXPECT_EQ(WorkloadSpec::parse(spec.label(), 8), spec);

    // Generator spellings parse into the Generator kind and
    // round-trip through their canonical label.
    const WorkloadSpec gen =
        WorkloadSpec::parse("blend:hotspot:512@hot=0.25@p=0.8"
                            "@shift=50000+attack@0.1", 8);
    EXPECT_EQ(gen.kind, WorkloadKind::Generator);
    EXPECT_EQ(gen.label(),
              "blend:hotspot:512@hot=0.25@p=0.8@shift=50000"
              "+attack@0.1");
    EXPECT_EQ(WorkloadSpec::parse(gen.label(), 8), gen);
}

TEST(WorkloadSpecApi, MalformedTraceSpellingsAreFatal)
{
    // No path at all.
    EXPECT_THROW(WorkloadSpec::parse("trace:", 8), FatalError);
    // Wrong per-core count (neither 1 nor cores).
    EXPECT_THROW(WorkloadSpec::parse("trace:/a;/b;/c", 8), FatalError);
    // Characters the CSV/manifest spelling cannot carry (';' would
    // make a single path re-parse as a per-core list).
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a,b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a;b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a#b.usimm"}),
                 FatalError);
}

/** The one SystemAxes a grid with the lists in @p lists crosses. */
SystemAxes
axesFromLists(const std::vector<std::pair<std::string, std::string>> &lists)
{
    Options opts;
    for (const auto &[name, items] : lists)
        opts.set(name, items);
    SystemAxesGrid grid;
    grid.readLists(opts);
    const std::vector<SystemAxes> axes = grid.axes();
    EXPECT_EQ(axes.size(), 1u);
    return axes.front();
}

TEST(SystemAxesApi, FieldRoundTripsAndRejectsUnknownSpellings)
{
    SystemAxes axes;
    EXPECT_EQ(axes.field(), "closed");
    axes.pagePolicy = PagePolicy::Open;
    EXPECT_EQ(axes.field(), "open");
    axes.tRcNs = 48;
    EXPECT_EQ(axes.field(), "open@trc=48");
    // The list items field() is spelled from read back as the axes.
    EXPECT_EQ(axesFromLists({{"page-policy", "open"}, {"trc", "48"}}),
              axes);
    EXPECT_EQ(axesFromLists({}), SystemAxes{});

    EXPECT_THROW(pagePolicyFromName("half-open"), FatalError);
    EXPECT_THROW(dramPresetFromName("ddr3"), FatalError);
    EXPECT_THROW(axesFromLists({{"trc", "zero"}}), FatalError);
}

TEST(SystemAxesApi, PresetAndTimingKnobSpellingsRoundTrip)
{
    // The DDR5 preset chains right after the policy; overridden
    // knobs follow in the canonical trc, trcd, trp, trefi, trfc
    // order.  The grid lists read back the axes field() spells.
    SystemAxes axes;
    axes.pagePolicy = PagePolicy::Open;
    axes.preset = DramPreset::Ddr5;
    EXPECT_EQ(axes.field(), "open@ddr5");
    EXPECT_EQ(axesFromLists({{"page-policy", "open"}, {"preset", "ddr5"}}),
              axes);

    axes.tRefiNs = 3900;
    EXPECT_EQ(axes.field(), "open@ddr5@trefi=3900");

    axes.tRcNs = 48;
    axes.tRcdNs = 15;
    axes.tRpNs = 15;
    axes.tRfcNs = 295;
    EXPECT_EQ(axes.field(),
              "open@ddr5@trc=48@trcd=15@trp=15@trefi=3900@trfc=295");
    EXPECT_EQ(axesFromLists({{"page-policy", "open"},
                             {"preset", "ddr5"},
                             {"trc", "48"},
                             {"trcd", "15"},
                             {"trp", "15"},
                             {"trefi", "3900"},
                             {"trfc", "295"}}),
              axes);

    // ddr4 and the 2x1x16 organization are the defaults, so field()
    // never spells them.
    EXPECT_EQ(axesFromLists({{"preset", "ddr4"}, {"org", "2x1x16"}})
                  .field(),
              "closed");
}

TEST(SystemAxesApi, MalformedOrInconsistentSpellingsAreFatal)
{
    // A list item off its grammar is fatal, and so is an override
    // past its bound.
    EXPECT_THROW(axesFromLists({{"preset", "ddr3"}}), FatalError);
    EXPECT_THROW(axesFromLists({{"org", "2x2"}}), FatalError);
    EXPECT_THROW(axesFromLists({{"trefi", "-1"}}), FatalError);
    EXPECT_THROW(axesFromLists({{"trefi", "200000"}}), FatalError);
    EXPECT_THROW(axesFromLists({{"trc", "20000"}}), FatalError);
    // tREFI's bound is per-knob: relaxed-refresh points above the
    // 10 us row-timing cap (e.g. 2x DDR4 tREFI) stay spellable.
    EXPECT_EQ(axesFromLists({{"trefi", "15600"}}).tRefiNs, 15600u);

    // Inconsistent timings: a tRC smaller than tRCD + tRP cannot
    // describe a real row cycle.
    SystemAxes shortRc;
    shortRc.tRcNs = 20;
    EXPECT_THROW(shortRc.validate(), FatalError);
    SystemAxes inconsistent;
    inconsistent.tRcNs = 40;
    inconsistent.tRcdNs = 30;
    inconsistent.tRpNs = 20;
    EXPECT_THROW(inconsistent.validate(), FatalError);

    // The fatal names the axes field and the offending timings.
    try {
        inconsistent.validate();
        FAIL() << "inconsistent timings were not rejected";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("closed@trc=40@trcd=30@trp=20"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find("tRCD + tRP"), std::string::npos) << msg;
    }
}

TEST(SystemAxesApi, ValidateBoundsEveryOverride)
{
    // The per-knob bound lives in validate(), so an override read
    // from a CLI list or a manifest is rejected by the grid and by
    // apply() alike.
    SystemAxes axes;
    axes.tRcNs = 20000;
    try {
        axes.validate();
        FAIL() << "tRC of 20000 ns was accepted";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("closed@trc=20000"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trc override of 20000 ns"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("1..10000 ns"), std::string::npos) << msg;
    }
    SystemConfig cfg;
    EXPECT_THROW(axes.apply(cfg), FatalError);
    SweepGrid grid;
    grid.tRcOverrides = {0, 20000};
    EXPECT_THROW(grid.axes(), FatalError);

    SystemAxes refresh;
    refresh.tRefiNs = 100000;
    EXPECT_NO_THROW(refresh.validate());
    refresh.tRefiNs = 100001;
    EXPECT_THROW(refresh.validate(), FatalError);
    // A list item past 32 bits never wraps into range.
    EXPECT_THROW(axesFromLists({{"trc", "4294967296"}}), FatalError);
}

TEST(SystemAxesApi, Ddr5PresetAppliesTheDdr5TimingClass)
{
    SystemAxes axes;
    axes.preset = DramPreset::Ddr5;
    SystemConfig cfg;
    const double ddr4Refi = cfg.timingNs.tREFI;
    axes.apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tREFI, ddr4Refi / 2.0);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tRFC, DramTimingNs::ddr5().tRFC);
    // An override layered on the preset wins over its default.
    axes.tRefiNs = 5000;
    axes.apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tREFI, 5000.0);
    // tRAS is re-derived from the effective tRC and tRP.
    EXPECT_DOUBLE_EQ(cfg.timingNs.tRAS,
                     cfg.timingNs.tRC - cfg.timingNs.tRP);
}

TEST(SweepAxes, GridExpandsAxesBetweenWorkloadAndMitigation)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.tRcOverrides = {0, 48};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 16u);
    ASSERT_EQ(grid.innerCells(), 8u);

    // Axes sit between the workload (outermost) and the mitigation:
    // page policy outermost of the pair, tRC override inner.
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[0].mitigation, MitigationKind::Rrs);
    EXPECT_EQ(cells[1].mitigation, MitigationKind::ScaleSrs);
    EXPECT_EQ(cells[2].axes.field(), "closed@trc=48");
    EXPECT_EQ(cells[4].axes.field(), "open");
    EXPECT_EQ(cells[6].axes.field(), "open@trc=48");
    // The whole axes block repeats for the next workload.
    EXPECT_EQ(cells[8].workload.label(), "gcc");
    EXPECT_EQ(cells[8].axes.field(), "closed");
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(cells[i].workload.label(), "gups") << "cell " << i;
}

TEST(SweepAxes, PresetAndOverrideAxesCrossInDeclarationOrder)
{
    // Policy outermost, then preset, then the five timing overrides
    // (trc, trcd, trp, trefi, trfc) innermost-last.
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.tRefiOverrides = {0, 3900};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    ASSERT_EQ(grid.innerCells(), 8u);
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[1].axes.field(), "closed@trefi=3900");
    EXPECT_EQ(cells[2].axes.field(), "closed@ddr5");
    EXPECT_EQ(cells[3].axes.field(), "closed@ddr5@trefi=3900");
    EXPECT_EQ(cells[4].axes.field(), "open");
    EXPECT_EQ(cells[7].axes.field(), "open@ddr5@trefi=3900");

    // An inconsistent override combination is fatal at expansion,
    // before any simulation starts.
    SweepGrid bad = grid;
    bad.tRcOverrides = {20}; // < tRCD + tRP
    EXPECT_THROW(bad.expand(), FatalError);
}

TEST(SweepAxes, OrgAxisCrossesBetweenPresetAndTimingOverrides)
{
    // The canonical suffix order is also the expansion order:
    // policy, then preset, then org, then the timing overrides.
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.orgs = {"2x1x16", "4x2x32"};
    grid.tRefiOverrides = {0, 3900};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    ASSERT_EQ(grid.innerCells(), 8u);
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[1].axes.field(), "closed@trefi=3900");
    EXPECT_EQ(cells[2].axes.field(), "closed@org=4x2x32");
    EXPECT_EQ(cells[3].axes.field(),
              "closed@org=4x2x32@trefi=3900");
    EXPECT_EQ(cells[4].axes.field(), "closed@ddr5");
    EXPECT_EQ(cells[6].axes.field(), "closed@ddr5@org=4x2x32");
    EXPECT_EQ(cells[7].axes.field(),
              "closed@ddr5@org=4x2x32@trefi=3900");

    // A malformed org spelling is fatal at expansion, before any
    // simulation starts, naming the input verbatim.
    SweepGrid bad = grid;
    bad.orgs = {"2x2"};
    try {
        bad.expand();
        FAIL() << "malformed org was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("2x2"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find("CxRxB"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SystemAxesGridLists, ReadBackWhatTheySpellUnderEitherName)
{
    // Each list goes by one name, its `sweep` flag and manifest key
    // alike, and reads back what it spells from the command line or
    // a manifest file; a list not given keeps its default, and an
    // empty one is fatal, named as its source names it.
    SystemAxesGrid grid;
    grid.pagePolicies = {PagePolicy::Open, PagePolicy::Closed};
    grid.presets = {DramPreset::Ddr5};
    grid.orgs = {"2x2x32", "1x1x16"};
    grid.tRcOverrides = {48};
    grid.tRcdOverrides = {0, 15};
    grid.tRpOverrides = {15};
    grid.tRefiOverrides = {3900, 0};
    grid.tRfcOverrides = {295};
    Options flags;
    std::string lines;
    for (const auto &[name, items] : grid.spellLists()) {
        flags.set(name, items);
        lines += name + "=" + items + "\n";
    }
    const std::string path = writeTempFile("axes_lists", lines);
    for (const Options &opts : {flags, Options::fromFile(path)}) {
        SystemAxesGrid read;
        read.readLists(opts);
        EXPECT_EQ(read.axes(), grid.axes());
        EXPECT_EQ(read.orgs, grid.orgs);
    }
    std::vector<std::string> names;
    for (const auto &list : SystemAxesGrid{}.spellLists())
        names.push_back(list.first + "=" + list.second);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "page-policy=closed", "preset=ddr4",
                         "org=2x1x16", "trc=0", "trcd=0", "trp=0",
                         "trefi=0", "trfc=0"}));

    Options partial;
    partial.set("trcd", "15");
    SystemAxesGrid defaults;
    defaults.readLists(partial);
    SystemAxes only;
    only.tRcdNs = 15;
    EXPECT_EQ(defaults.axes(), std::vector<SystemAxes>{only});

    const std::string emptyPath = writeTempFile("axes_empty", "org=\n");
    Options emptyFlag;
    emptyFlag.set("org", "");
    for (const auto &[opts, message] :
         {std::pair{emptyFlag, std::string("option --org: empty list")},
          std::pair{Options::fromFile(emptyPath),
                    "'" + emptyPath + "': key org: empty list"}}) {
        SystemAxesGrid g;
        try {
            g.readLists(opts);
            ADD_FAILURE() << "an empty org list was read: " << message;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos) << e.what();
        }
    }
}

TEST(SweepAxes, EachOrgVariantNormalizesAgainstItsOwnBaseline)
{
    // Organization variants of the same workload share a trace seed
    // but not a baseline: a 4-channel cell normalizes against the
    // unprotected 4-channel run, never the default-org one.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    dramOrgFromName("4x2x32", cells[1].axes);
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepAxes, EachPresetVariantNormalizesAgainstItsOwnBaseline)
{
    // DDR4 and DDR5 cells of the same workload share a seed but not
    // a baseline: each normalizes against the unprotected run of
    // its own preset.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    cells[1].axes.preset = DramPreset::Ddr5;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepAxes, EachAxesVariantNormalizesAgainstItsOwnBaseline)
{
    // An unprotected cell is its own baseline, per axes variant: both
    // normalize to exactly 1.0 even though the two baselines differ.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    cells[1].axes.pagePolicy = PagePolicy::Open;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    // Same seed on both variants: the trace replays identically, so
    // only the machine differs.
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepTrace, TraceCellsAreThreadCountInvariant)
{
    const test::TraceFixture fx("srs_sweep_trace.usimm", "gups",
                                4000);
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gcc"),
                      WorkloadSpec::parse("trace:" + fx.path, 8)};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    EXPECT_EQ(sweepCsv(cells, 1), sweepCsv(cells, 8));

    SweepRunner runner(tinyExperiment(), 4);
    const std::vector<SweepResult> results = runner.run(cells);
    for (const SweepResult &r : results) {
        EXPECT_GT(r.run.aggregateIpc, 0.0);
        EXPECT_GT(r.baselineIpc, 0.0);
    }
}

TEST(SweepTrace, WrongPerCoreTraceCountOrMissingFileIsFatal)
{
    const ExperimentConfig exp = tinyExperiment();
    std::vector<SweepCell> cells(1);
    cells[0].workload =
        WorkloadSpec::traceFiles({"/a", "/b", "/c"}); // not 1 or 8
    SweepRunner runner(exp, 2);
    EXPECT_THROW(runner.run(cells), FatalError);

    cells[0].workload =
        WorkloadSpec::traceFiles({"/nonexistent/trace.usimm"});
    SweepRunner runner2(exp, 2);
    EXPECT_THROW(runner2.run(cells), FatalError);
}

/**
 * Resuming from a checkpoint holding @p text must fail with the one
 * schema message, quoting the complete line @p line.  The checkpoint
 * is named after the running test, since ctest runs tests in parallel.
 */
void
expectResumeRejects(const std::string &line, const std::string &text)
{
    const std::string name =
        std::string("sweep_stale_")
        + testing::UnitTest::GetInstance()->current_test_info()->name()
        + ".csv";
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(writeTempFile(name.c_str(), text));
    try {
        runner.run(resumeTestCells());
        ADD_FAILURE() << "resume accepted the line: " << line;
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "expected sweep CSV schema v8, found: " + line),
                  std::string::npos)
            << err.what();
    }
}

/** As above, for a checkpoint that holds @p line alone. */
void
expectResumeRejects(const std::string &line)
{
    expectResumeRejects(line, line + "\n");
}

TEST(SweepResume, SchemaV1FilesAreRejectedWithAVersionedError)
{
    // A v1 CSV header (no workload_spec/axes columns), and a v1
    // journal row (15 fields, the seed in column 7) alone in a
    // headerless journal: both fail, neither recomputes silently.
    expectResumeRejects(test::kStaleHeaders[0]);
    expectResumeRejects(test::kStaleRows[0]);
}

TEST(SweepResume, SchemaV2FilesAreRejectedWithAVersionedError)
{
    // A v2 CSV names its 7th identity column `policy`; v3 renamed
    // it to `axes`.
    expectResumeRejects(test::kStaleHeaders[1]);
}

TEST(SweepResume, SchemaV3FilesAreRejectedWithAVersionedError)
{
    // A v3 CSV has the axes column but no tail-latency columns; its
    // rows have 16 fields, the 0x-seed in column 8.
    expectResumeRejects(test::kStaleHeaders[2]);
    expectResumeRejects(test::kStaleRows[1]);
}

TEST(SweepResume, SchemaV4FilesAreRejectedWithAVersionedError)
{
    // A v4 CSV has p50_lat/p99_lat/p999_lat but no lat_samples; its
    // rows have 19 fields.
    expectResumeRejects(test::kStaleHeaders[3]);
    expectResumeRejects(test::kStaleRows[2]);
}

TEST(SweepResume, SchemaV5FilesAreRejectedWithAVersionedError)
{
    // A v5 CSV has lat_samples but none of the v6 iterations/
    // censored/p_break/ci_lo/ci_hi confidence columns; its rows have
    // 20 fields.
    expectResumeRejects(test::kStaleHeaders[4]);
    expectResumeRejects(test::kStaleRows[3]);
}

TEST(SweepResume, MalformedLinesBetweenGoodRowsAreRejected)
{
    // A complete checkpoint line is this build's header or a row of
    // 25 non-empty fields with a numeric index.  A malformed line
    // between good rows (24 fields, an empty last field, an `x`
    // index) fails naming the schema and quoting the line.
    const std::vector<SweepCell> cells = resumeTestCells();
    std::string row1 = syntheticRow(cells, 1);
    row1.pop_back();
    const std::string dropped = row1.substr(0, row1.rfind(','));
    const std::string emptyLast = dropped + ",";
    const std::string xIndexed = "x" + row1.substr(row1.find(','));
    for (const std::string &line : {dropped, emptyLast, xIndexed}) {
        expectResumeRejects(line, std::string(SweepRunner::csvHeader())
                                      + "\n" + syntheticRow(cells, 0)
                                      + line + "\n"
                                      + syntheticRow(cells, 2));
    }
}

TEST(SweepGenerator, ZipfAndBlendCellsAreThreadCountInvariant)
{
    // Generator-backed cells derive their per-cell seed from the
    // canonical label like every other workload, so a zipf and a
    // blend cell must produce byte-identical CSV at any worker
    // count — the invariance the orchestrator's shard split relies
    // on.
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::parse("zipf:4096@s=0.99", 8),
        WorkloadSpec::parse("blend:zipf:4096@s=0.9+attack@0.05", 8),
    };
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::None};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    const std::string csv1 = sweepCsv(cells, 1);
    EXPECT_EQ(csv1, sweepCsv(cells, 8));
    // The identity column carries the canonical spellings, and the
    // percentile columns are live (nonzero for a read-heavy stream).
    EXPECT_NE(csv1.find(",zipf:4096@s=0.99,"), std::string::npos);
    EXPECT_NE(csv1.find(",blend:zipf:4096@s=0.9+attack@0.05,"),
              std::string::npos);

    SweepRunner runner(tinyExperiment(), 4);
    const std::vector<SweepResult> results = runner.run(cells);
    for (const SweepResult &r : results) {
        EXPECT_GT(r.run.aggregateIpc, 0.0);
        EXPECT_GT(r.run.readLatency.total(), 0u);
        EXPECT_GT(r.run.p50Lat, 0u);
        EXPECT_GE(r.run.p99Lat, r.run.p50Lat);
        EXPECT_GE(r.run.p999Lat, r.run.p99Lat);
    }
}

TEST(SweepGenerator, ResumedGeneratorCellsReplayByteIdentical)
{
    // A truncated generator sweep resumes to the uninterrupted
    // bytes: parsed-back identity must validate against the
    // generator labels, and recomputed cells reproduce the same
    // percentiles.
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::parse("hotspot:1024@hot=0.1@p=0.9", 8),
        WorkloadSpec::parse("zipf:2048@s=1.2", 8),
    };
    grid.mitigations = {MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    const std::string full = sweepCsv(cells, 2);

    std::istringstream in(full);
    std::string line, partial;
    for (int i = 0; i < 2 && std::getline(in, line); ++i)
        partial += line + "\n";
    const std::string path =
        writeTempFile("sweep_generator_resume.csv", partial);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_FALSE(results[0].resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
}

TEST(SweepNames, MitigationAndTrackerRoundTrip)
{
    for (const MitigationKind kind :
         {MitigationKind::Rrs, MitigationKind::RrsNoUnswap,
          MitigationKind::Srs, MitigationKind::ScaleSrs,
          MitigationKind::BlockHammer, MitigationKind::Aqua}) {
        EXPECT_EQ(mitigationKindFromName(mitigationKindName(kind)),
                  kind);
    }
    for (const TrackerKind kind :
         {TrackerKind::MisraGries, TrackerKind::Hydra}) {
        EXPECT_EQ(trackerKindFromName(trackerKindName(kind)), kind);
    }
    for (const DramPreset preset :
         {DramPreset::Ddr4, DramPreset::Ddr5}) {
        EXPECT_EQ(dramPresetFromName(dramPresetName(preset)), preset);
    }
    EXPECT_THROW(mitigationKindFromName("bogus"), FatalError);
    EXPECT_THROW(trackerKindFromName("bogus"), FatalError);
    EXPECT_THROW(dramPresetFromName("ddr6"), FatalError);
}

} // namespace
} // namespace srs
