/**
 * @file
 * Orchestrator coverage: shard planning (balance, MIX points as
 * workloads),
 * manifest round-tripping, and the merge path — shard CSVs stitched
 * byte-identically to a single-process sweep, index renumbering,
 * rejection of mismatched or torn shards, and a killed-shard →
 * resume → re-merge roundtrip — plus the plan's shell quoting and
 * the supervisor's skip and give-up contracts in Orchestrator::run.
 * tests/cli_smoke.cmake runs the supervisor end to end, including a
 * shard killed mid-run and relaunched from its journal, and a plan
 * line run through `sh`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/subprocess.hh"
#include "sim/orchestrator.hh"
#include "sim/progress.hh"
#include "sim/sweep.hh"
#include "stale_schema.hh"

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

/** 2 named workloads + 1 MIX point, 2 mitigations x 1 trh x 2 rates. */
SweepGrid
testGrid()
{
    SweepGrid grid;
    grid.workloads = splitSpecList("gups,gcc,mix0",
                                   tinyExperiment().numCores);
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3, 6};
    return grid;
}

/** CSV text of one full run of @p grid at @p threads workers. */
std::string
sweepCsv(const SweepGrid &grid, std::size_t threads)
{
    SweepRunner runner(tinyExperiment(), threads);
    std::ostringstream os;
    SweepRunner::writeCsv(os, runner.run(grid));
    return os.str();
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

/**
 * Run every shard of @p manifest in-process (as `srs_sim sweep` on
 * another machine would) and write its CSV next to the manifest
 * under the test temp dir, with file names prefixed by @p tag.
 * Returns the manifest with the prefixed CSV names patched in.
 */
ShardManifest
runShardsInProcess(ShardManifest manifest, const std::string &tag,
                   std::size_t threads)
{
    for (ShardSpec &shard : manifest.shards) {
        shard.csv = tag + shard.csv;
        SweepRunner runner(manifest.exp, threads);
        std::ofstream out(testing::TempDir() + shard.csv,
                          std::ios::trunc | std::ios::binary);
        SweepRunner::writeCsv(out, runner.run(shard.grid));
    }
    return manifest;
}

/** Temp-dir path merge output of @p manifest as a string. */
std::string
mergedCsv(const ShardManifest &manifest)
{
    std::ostringstream os;
    // TempDir() ends with a separator; strip it for the dir join.
    std::string dir = testing::TempDir();
    if (!dir.empty() && dir.back() == '/')
        dir.pop_back();
    mergeShards(manifest, dir, os);
    return os.str();
}

TEST(ShardPlan, BalancedContiguousAndMixAware)
{
    SweepGrid grid = testGrid();
    grid.workloads.push_back(WorkloadSpec::mix(1, 8)); // gups..mix1
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest = planShards(grid, exp, 3);
    ASSERT_EQ(manifest.shards.size(), 3u);
    const std::size_t inner = grid.innerCells();
    ASSERT_EQ(inner, 4u);

    // 4 workloads over 3 shards: 1 + 1 + 2 (contiguous).
    EXPECT_EQ(manifest.shards[0].grid.workloads,
              std::vector<WorkloadSpec>{WorkloadSpec::synthetic(
                  "gups")});
    EXPECT_EQ(manifest.shards[0].offset, 0u);
    EXPECT_EQ(manifest.shards[0].cells, inner);

    EXPECT_EQ(manifest.shards[1].grid.workloads,
              std::vector<WorkloadSpec>{WorkloadSpec::synthetic(
                  "gcc")});
    EXPECT_EQ(manifest.shards[1].offset, inner);

    // The last shard holds both MIX points, as any two workloads.
    EXPECT_EQ(manifest.shards[2].grid.workloads,
              (std::vector<WorkloadSpec>{WorkloadSpec::mix(0, 8),
                                         WorkloadSpec::mix(1, 8)}));
    EXPECT_EQ(manifest.shards[2].offset, 2 * inner);
    EXPECT_EQ(manifest.shards[2].cells, 2 * inner);
    EXPECT_EQ(manifest.totalCells(), grid.expand().size());

    // Its manifest line spells them, and they read back alike.
    const std::string text = serializeManifest(manifest);
    EXPECT_NE(text.find("\nshard2.workloads=mix0,mix1\n"),
              std::string::npos)
        << text;
    const ShardManifest loaded =
        loadManifest(writeTempFile("manifest_mix", text));
    EXPECT_EQ(loaded.shards[2].grid.workloads,
              manifest.shards[2].grid.workloads);
    EXPECT_EQ(loaded.shards[2].offset, 2 * inner);
    EXPECT_EQ(loaded.shards[2].cells, 2 * inner);
}

TEST(ShardPlan, ShardCountClampsToOuterEntries)
{
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 64);
    EXPECT_EQ(manifest.shards.size(), 3u); // gups, gcc, mix0
    for (const ShardSpec &shard : manifest.shards)
        EXPECT_EQ(shard.cells, testGrid().innerCells());
}

TEST(ShardPlan, EmptyGridOrZeroShardsIsFatal)
{
    SweepGrid empty;
    EXPECT_THROW(planShards(empty, tinyExperiment(), 2), FatalError);
    EXPECT_THROW(planShards(testGrid(), tinyExperiment(), 0),
                 FatalError);
}

TEST(ShardPlan, ZeroSwapRateIsFatalByItsPair)
{
    // Every shard of such a plan would divide by zero in a worker.
    SweepGrid grid = testGrid();
    grid.swapRates = {3, 0};
    try {
        planShards(grid, tinyExperiment(), 2);
        FAIL() << "rate 0 was planned";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("trh=1200 rate=0"),
                  std::string::npos) << err.what();
    }
}

TEST(ShardManifestFile, RoundTripsThroughDisk)
{
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 2);
    const std::string path = testing::TempDir() + "manifest_rt";
    writeManifest(manifest, path);
    const ShardManifest loaded = loadManifest(path);
    EXPECT_EQ(serializeManifest(loaded),
              serializeManifest(manifest));
    EXPECT_EQ(loaded.shards.size(), manifest.shards.size());
    EXPECT_EQ(loaded.exp.seed, manifest.exp.seed);
    EXPECT_EQ(loaded.grid.expand().size(),
              manifest.grid.expand().size());
    std::remove(path.c_str());
}

/** @p text with its first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/** The message loadManifest() fails with on @p text. */
std::string
manifestError(const std::string &name, const std::string &text)
{
    try {
        loadManifest(writeTempFile(name, text));
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(ShardManifestFile, CorruptedTilingIsFatal)
{
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 2);
    const std::string text = serializeManifest(manifest);
    ASSERT_NE(text.find("\nshard0.workloads=gups\n"
                        "shard0.csv=shard0.csv\n"
                        "shard1.workloads=gcc,mix0\n"),
              std::string::npos)
        << text;

    // Shard lists that do not join, in order, into workloads=: out of
    // order, one workload dropped, one named twice.  The slices fix
    // every offset and cell count, so nothing else can disagree.
    const std::string join = "do not join, in order, into workloads=";
    EXPECT_NE(manifestError(
                  "manifest_reordered",
                  replaced(replaced(text, "shard0.workloads=gups",
                                    "shard0.workloads=gcc"),
                           "shard1.workloads=gcc,mix0",
                           "shard1.workloads=gups,mix0"))
                  .find(join),
              std::string::npos);
    EXPECT_NE(manifestError("manifest_dropped",
                            replaced(text, "shard1.workloads=gcc,mix0",
                                     "shard1.workloads=gcc"))
                  .find(join),
              std::string::npos);
    EXPECT_NE(manifestError("manifest_twice",
                            replaced(text, "shard1.workloads=gcc,mix0",
                                     "shard1.workloads=gups,gcc,mix0"))
                  .find(join),
              std::string::npos);
    // An empty shard is fatal by its index.
    EXPECT_NE(manifestError("manifest_empty_shard",
                            replaced(text, "shard0.workloads=gups",
                                     "shard0.workloads="))
                  .find("shard 0 is empty"),
              std::string::npos);
    // Version 6's MIX-range and shard-geometry keys and version 7's
    // `cores` key and axis-list names are unknown keys, named with
    // the file, never silently ignored.
    const std::string oldKeyPath = testing::TempDir() + "manifest_old_key";
    for (const std::string key : {"mix", "mix_base", "shard0.mix",
                                  "shard0.mix_base", "shard0.offset",
                                  "shard0.cells", "cores", "policies",
                                  "presets", "orgs"}) {
        EXPECT_NE(manifestError("manifest_old_key", text + key + "=0\n")
                      .find("'" + oldKeyPath + "': unknown key '" + key
                            + "'"),
                  std::string::npos)
            << key;
    }
    // A MIX spelling off the grammar is fatal, naming it.
    EXPECT_NE(manifestError("manifest_bad_mix",
                            replaced(text, "shard1.workloads=gcc,mix0",
                                     "shard1.workloads=gcc,mix00"))
                  .find("mix<N>"),
              std::string::npos);

    // Future manifest versions are rejected, not misread.
    EXPECT_THROW(
        loadManifest(writeTempFile(
            "manifest_bad_version",
            replaced(text, "version=8", "version=9"))),
        FatalError);

    // A malformed value is fatal, named by the file and its key,
    // never as a command-line flag.  Out-of-range values must not
    // wrap: trh=2^32+1200 is fatal, never a silent trh=1200.
    const std::string path = testing::TempDir() + "manifest_bad_value";
    for (const auto &[from, to, needle] :
         std::vector<std::tuple<std::string, std::string, std::string>>{
             {"trh=1200", "trh=4294968496", "key trh: '4294968496'"},
             {"trh=1200", "trh=-1", "key trh: '-1'"},
             {"cycles=60000", "cycles=6e4", "key cycles: '6e4'"},
             {"trefi=0", "trefi=", "key trefi: empty list"}}) {
        EXPECT_NE(manifestError("manifest_bad_value",
                                replaced(text, from, to))
                      .find("'" + path + "': " + needle),
                  std::string::npos)
            << to;
    }
}

TEST(ShardManifestFile, GridKeysAreTheShardCommandFlags)
{
    // One writer spells the grid: each `key=value` line of the
    // manifest between `version` and `shards` is a `--key=value`
    // flag of the one shard's command, in the same order.
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 1);
    const std::string text = serializeManifest(manifest);
    const std::string dir = testing::TempDir() + "plan_flags_dir";
    std::filesystem::remove_all(dir);
    Orchestrator::Config cfg;
    cfg.dir = dir;
    cfg.simPath = "/opt/srs_sim";
    std::ostringstream plan;
    Orchestrator(manifest, cfg).writePlan(plan);

    const auto from = text.find("\nworkloads=");
    const auto to = text.find("\nshards=");
    ASSERT_NE(from, std::string::npos);
    ASSERT_NE(to, std::string::npos);
    std::string flags;
    std::istringstream lines(text.substr(from + 1, to - from));
    for (std::string line; std::getline(lines, line);)
        flags += " --" + line;
    EXPECT_NE(plan.str().find("/opt/srs_sim sweep" + flags
                              + " --threads=1 --out="),
              std::string::npos)
        << plan.str() << "\nflags:" << flags;
    EXPECT_EQ(text.find("cores="), std::string::npos);
}

TEST(ShardManifestFile, StaleManifestsAreRejectedWithVersionedErrors)
{
    // A version-1 through version-7 manifest must fail with the one
    // version message, quoting what it found, not a key-parsing mess
    // or a cryptic identity mismatch downstream.
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 2);
    const std::string text = serializeManifest(manifest);
    const auto version = text.find("version=8");
    ASSERT_NE(version, std::string::npos);
    for (const int old : {1, 2, 3, 4, 5, 6, 7}) {
        std::string stale = text;
        stale.replace(version, 9,
                      "version=" + std::to_string(old));
        const std::string path = writeTempFile(
            "manifest_v" + std::to_string(old), stale);
        try {
            loadManifest(path);
            FAIL() << "v" << old << " manifest was not rejected";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what())
                          .find("expected version 8, found: version="
                                + std::to_string(old)),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(ShardManifestFile, RoundTripsTraceSpecsAndSystemAxes)
{
    // Trace-file workloads and every system-axes list survive the
    // serialize -> parse -> serialize cycle byte-exactly, each list
    // at a non-default value.
    SweepGrid grid = testGrid();
    grid.workloads.push_back(
        WorkloadSpec::parse("trace:/tmp/srs_manifest_rt.usimm", 8));
    grid.workloads.push_back(
        WorkloadSpec::parse("zipf:4096@s=0.99", 8));
    grid.workloads.push_back(WorkloadSpec::parse(
        "blend:hotspot:1024@hot=0.1@p=0.9+attack@0.05", 8));
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.orgs = {"2x1x16", "2x2x32"};
    grid.tRcOverrides = {0, 48};
    grid.tRcdOverrides = {0, 15};
    grid.tRpOverrides = {0, 15};
    grid.tRefiOverrides = {0, 3900};
    grid.tRfcOverrides = {0, 295};
    const ShardManifest manifest =
        planShards(grid, tinyExperiment(), 2);
    const std::string path =
        writeTempFile("manifest_specs_rt", serializeManifest(manifest));
    const ShardManifest loaded = loadManifest(path);
    EXPECT_EQ(serializeManifest(loaded), serializeManifest(manifest));
    // The axis lists go by their `sweep` flags' names.
    EXPECT_NE(serializeManifest(manifest).find(
                  "\npage-policy=closed,open\npreset=ddr4,ddr5\n"
                  "org=2x1x16,2x2x32\ntrc=0,48\ntrcd=0,15\ntrp=0,15\n"
                  "trefi=0,3900\ntrfc=0,295\n"),
              std::string::npos)
        << serializeManifest(manifest);
    EXPECT_EQ(loaded.grid.workloads, grid.workloads);
    EXPECT_EQ(loaded.grid.pagePolicies, grid.pagePolicies);
    EXPECT_EQ(loaded.grid.presets, grid.presets);
    EXPECT_EQ(loaded.grid.orgs, grid.orgs);
    EXPECT_EQ(loaded.grid.tRcOverrides, grid.tRcOverrides);
    EXPECT_EQ(loaded.grid.tRcdOverrides, grid.tRcdOverrides);
    EXPECT_EQ(loaded.grid.tRpOverrides, grid.tRpOverrides);
    EXPECT_EQ(loaded.grid.tRefiOverrides, grid.tRefiOverrides);
    EXPECT_EQ(loaded.grid.tRfcOverrides, grid.tRfcOverrides);
    EXPECT_EQ(loaded.grid.innerCells(), grid.innerCells());
}

TEST(ShardMerge, PresetAndTimingOverrideAxesMergeByteIdentical)
{
    // The DDR5-preset axis plus a timing override, sharded and
    // merged, must reproduce the single-process CSV byte for byte —
    // the acceptance case behind the Section VIII-5 sweep.
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.tRefiOverrides = {0, 5000};
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 2), "preset_", 8);
    EXPECT_EQ(mergedCsv(manifest), full);
    // Preset and override spellings appear in the identity columns.
    EXPECT_NE(full.find(",closed@ddr5,"), std::string::npos);
    EXPECT_NE(full.find(",closed@ddr5@trefi=5000,"),
              std::string::npos);
    EXPECT_NE(full.find(",closed@trefi=5000,"), std::string::npos);
}

TEST(ShardMerge, PagePolicyAxisMergesByteIdentical)
{
    // The satellite case behind the ported page-policy ablation: a
    // grid sweeping closed vs open page, sharded and merged, must
    // reproduce the single-process CSV byte for byte.
    SweepGrid grid = testGrid();
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "policy_", 8);
    EXPECT_EQ(mergedCsv(manifest), full);
    // Both policy spellings actually appear in the identity columns.
    EXPECT_NE(full.find(",closed,"), std::string::npos);
    EXPECT_NE(full.find(",open,"), std::string::npos);
}

TEST(ShardMerge, GeneratorWorkloadsMergeByteIdentical)
{
    // The tentpole invariance: a zipf + blend grid, sharded and
    // merged, reproduces the single-process CSV — including the
    // schema-v4 percentile columns — byte for byte, because the
    // per-cell seed and the latency histogram are pure functions of
    // the canonical label and the access stream.
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::parse("zipf:4096@s=0.99", 8),
        WorkloadSpec::parse("blend:zipf:4096@s=0.9+attack@0.05", 8),
    };
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::None};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const ShardManifest manifest = runShardsInProcess(
            planShards(grid, exp, 2),
            "gen_t" + std::to_string(threads) + "_", threads);
        EXPECT_EQ(mergedCsv(manifest), full)
            << "threads=" << threads;
    }
    // The generator spellings ride the manifest's workloads= key.
    const ShardManifest manifest = planShards(grid, exp, 2);
    const std::string text = serializeManifest(manifest);
    EXPECT_NE(text.find("zipf:4096@s=0.99"), std::string::npos);
    EXPECT_NE(text.find("blend:zipf:4096@s=0.9+attack@0.05"),
              std::string::npos);
}

TEST(ShardMerge, ByteIdenticalToSingleProcessSweep)
{
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);

    // Shard runs and single-process runs must agree for any thread
    // count on either side.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const ShardManifest manifest = runShardsInProcess(
            planShards(grid, exp, 3),
            "merge_t" + std::to_string(threads) + "_", threads);
        EXPECT_EQ(mergedCsv(manifest), full)
            << "threads=" << threads;
    }
    EXPECT_EQ(sweepCsv(grid, 8), full);
}

TEST(ShardMerge, RenumbersShardLocalIndices)
{
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "renum_", 8);

    // Every shard CSV numbers its rows from 0...
    const std::string shard1 =
        readFile(testing::TempDir() + manifest.shards[1].csv);
    const auto headerEnd = shard1.find('\n');
    EXPECT_EQ(shard1.compare(headerEnd + 1, 2, "0,"), 0);

    // ...and the merge rewrites them to the global cell index: row
    // text of shard 1's first cell appears at its global offset.
    const std::string merged = mergedCsv(manifest);
    const std::string localRow = shard1.substr(
        headerEnd + 1,
        shard1.find('\n', headerEnd + 1) - headerEnd - 1);
    const std::string globalRow =
        std::to_string(manifest.shards[1].offset)
        + localRow.substr(1);
    EXPECT_NE(merged.find("\n" + globalRow + "\n"),
              std::string::npos);
    // The shard-local numbering ("0,gcc,...") must not leak into
    // the merged CSV — global index 0 belongs to another workload.
    EXPECT_EQ(merged.find("\n" + localRow + "\n"),
              std::string::npos);
}

TEST(ShardMerge, MismatchedIdentityPrefixIsFatal)
{
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "mismatch_", 8);

    // Flip the trh field of shard 1's first data row: the row no
    // longer byte-matches the manifest's cell identity.
    const std::string path = testing::TempDir() + manifest.shards[1].csv;
    std::string text = readFile(path);
    const auto at = text.find(",1200,3,");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, ",4800,3,");
    writeTempFile(manifest.shards[1].csv, text);
    EXPECT_THROW(mergedCsv(manifest), FatalError);
    const std::string reason = validateShardCsv(
        manifest.shards[1], exp, path);
    EXPECT_NE(reason.find("identity"), std::string::npos);

    // A manifest with a different seed rejects *every* shard row
    // (the derived seed is part of the identity prefix).
    ShardManifest reseeded = runShardsInProcess(
        planShards(grid, exp, 3), "reseed_", 8);
    reseeded.exp.seed ^= 1;
    EXPECT_THROW(mergedCsv(reseeded), FatalError);
}

TEST(ShardMerge, TornOrShortShardIsFatal)
{
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "torn_", 8);

    const std::string path =
        testing::TempDir() + manifest.shards[2].csv;
    const std::string intact = readFile(path);
    ASSERT_EQ(intact.back(), '\n');

    // Torn: the writer died mid-row (no final newline).
    writeTempFile(manifest.shards[2].csv,
                  intact.substr(0, intact.size() - 3));
    EXPECT_THROW(mergedCsv(manifest), FatalError);
    EXPECT_NE(validateShardCsv(manifest.shards[2], exp, path)
                  .find("torn"),
              std::string::npos);

    // Short: a complete file with a whole row missing.
    const auto lastRow = intact.rfind('\n', intact.size() - 2);
    writeTempFile(manifest.shards[2].csv,
                  intact.substr(0, lastRow + 1));
    EXPECT_THROW(mergedCsv(manifest), FatalError);

    // A missing shard file never merges as empty.
    writeTempFile(manifest.shards[2].csv, intact); // restore
    ShardManifest missing = manifest;
    missing.shards[1].csv = "no_such_shard.csv";
    EXPECT_THROW(mergedCsv(missing), FatalError);
}

TEST(ShardMerge, StaleShardCsvHeaderIsRejectedWithAVersionedError)
{
    // A shard carrying a v1-v5 header, or a v1-v5 row under the
    // current header, must be rejected with the one schema message quoting
    // that line, mirroring the manifest-version check — never merged
    // with reinterpreted columns.
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "stalehdr_", 8);
    const std::string path =
        testing::TempDir() + manifest.shards[0].csv;
    const std::string intact = readFile(path);
    const auto headerEnd = intact.find('\n');
    const auto row0End = intact.find('\n', headerEnd + 1);
    for (const std::string &header : test::kStaleHeaders) {
        writeTempFile(manifest.shards[0].csv,
                      header + intact.substr(headerEnd));
        const std::string reason =
            validateShardCsv(manifest.shards[0], exp, path);
        EXPECT_NE(reason.find("expected sweep CSV schema v8, found: "
                              + header),
                  std::string::npos)
            << reason;
        EXPECT_THROW(mergedCsv(manifest), FatalError);
    }
    for (const std::string &row : test::kStaleRows) {
        writeTempFile(manifest.shards[0].csv,
                      intact.substr(0, headerEnd + 1) + row
                          + intact.substr(row0End));
        EXPECT_NE(validateShardCsv(manifest.shards[0], exp, path)
                      .find("expected sweep CSV schema v8, found: "
                            + row),
                  std::string::npos);
    }
}

TEST(ShardMerge, OrgAxisSurvivesShardingAndMergesByteIdentical)
{
    // An org-bearing grid shards and merges to the bytes of the
    // single-process sweep, org spellings intact in every identity
    // prefix.
    SweepGrid grid = testGrid();
    grid.orgs = {"2x1x16", "4x2x32"};
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);
    const ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "orgmerge_", 8);
    EXPECT_EQ(mergedCsv(manifest), full);
    EXPECT_NE(full.find("@org=4x2x32"), std::string::npos);
    // The org axis round-trips through the manifest bytes too.
    const std::string text = serializeManifest(manifest);
    EXPECT_NE(text.find("\norg=2x1x16,4x2x32\n"), std::string::npos);
    const std::string path = writeTempFile("manifest_orgs", text);
    EXPECT_EQ(serializeManifest(loadManifest(path)), text);
}

TEST(ShardMerge, KilledShardResumesAndRemergesByteIdentical)
{
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    const std::string full = sweepCsv(grid, 1);
    ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "resume_", 8);

    // Simulate shard 1 killed mid-run: all that survives is a
    // checkpoint with one complete row and one torn final line.
    const std::string csvPath =
        testing::TempDir() + manifest.shards[1].csv;
    const std::string intact = readFile(csvPath);
    const auto headerEnd = intact.find('\n');
    const auto row0End = intact.find('\n', headerEnd + 1);
    const std::string journalPath = writeTempFile(
        manifest.shards[1].csv + ".journal",
        intact.substr(headerEnd + 1,
                      row0End + 1 - (headerEnd + 1))
            + intact.substr(row0End + 1,
                            (intact.find('\n', row0End + 1)
                             - row0End - 1) / 2));
    std::remove(csvPath.c_str());
    EXPECT_THROW(mergedCsv(manifest), FatalError);

    // Resume the shard from its journal (what a relaunched
    // `srs_sim sweep --resume` does), re-write its CSV, re-merge.
    SweepRunner runner(exp, 8);
    runner.setResume(journalPath);
    const std::vector<SweepResult> results =
        runner.run(manifest.shards[1].grid.expand());
    EXPECT_FALSE(results[0].resumedRow.empty());
    EXPECT_TRUE(results[1].resumedRow.empty());
    std::ofstream out(csvPath, std::ios::trunc | std::ios::binary);
    SweepRunner::writeCsv(out, results);
    out.close();
    EXPECT_EQ(mergedCsv(manifest), full);
}

TEST(ShardMerge, DuplicatedShardCsvIsFatal)
{
    // Two manifest entries pointing at the same shard CSV (a
    // copy-paste accident in a hand-dispatched run) must never
    // merge: shard 1's slice expects different identity rows than
    // shard 0's file carries.
    const SweepGrid grid = testGrid();
    const ExperimentConfig exp = tinyExperiment();
    ShardManifest manifest = runShardsInProcess(
        planShards(grid, exp, 3), "dupcsv_", 8);
    manifest.shards[1].csv = manifest.shards[0].csv;
    EXPECT_THROW(mergedCsv(manifest), FatalError);

    // The same accident in the manifest *text* — shard 1's slice
    // re-describing shard 0's — breaks the join of the shard lists
    // and is rejected at load time, before any merge.
    const std::string text =
        replaced(serializeManifest(planShards(grid, exp, 3)),
                 "shard1.workloads=gcc", "shard1.workloads=gups");
    EXPECT_THROW(loadManifest(writeTempFile("manifest_dup", text)),
                 FatalError);
}

TEST(OrchestratorPlan, ShellQuoteSurvivesHostileStrings)
{
    // Words of the shell-safe set pass through, so a plan without
    // special bytes prints the bytes it always did.
    EXPECT_EQ(shellQuote("plain"), "plain");
    EXPECT_EQ(shellQuote("/opt/srs-1.0/srs_sim"), "/opt/srs-1.0/srs_sim");
    EXPECT_EQ(shellQuote("--workloads=blend:zipf:64@s=0.9+attack@0.05"),
              "--workloads=blend:zipf:64@s=0.9+attack@0.05");
    // Anything else is one single-quoted word, a ' spelled '\''.
    EXPECT_EQ(shellQuote(""), "''");
    EXPECT_EQ(shellQuote("it's"), "'it'\\''s'");
    EXPECT_EQ(shellQuote("a b;rm -rf"), "'a b;rm -rf'");
    EXPECT_EQ(shellQuote("--workloads=trace:a.usimm;b.usimm"),
              "'--workloads=trace:a.usimm;b.usimm'");
    EXPECT_EQ(shellQuote("$HOME*"), "'$HOME*'");
}

TEST(OrchestratorSummary, TableNamesEveryShardsOutcome)
{
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 3);
    std::vector<ShardRunState> states(3);
    states[0].done = true; // never launched: cached
    states[1].launches = 2;
    states[1].restarts = 1;
    states[1].done = true;
    states[2].launches = 3;
    states[2].restarts = 2;
    states[2].lastError = "killed by signal 9";
    std::ostringstream os;
    writeShardSummary(os, manifest, states, "sum_dir");
    const std::string table = os.str();
    EXPECT_NE(table.find("cached"), std::string::npos) << table;
    EXPECT_NE(table.find("done"), std::string::npos);
    EXPECT_NE(table.find("FAILED"), std::string::npos);
    EXPECT_NE(table.find("sum_dir/shard2.log"), std::string::npos);
    EXPECT_NE(table.find("killed by signal 9"), std::string::npos);
}

TEST(OrchestratorSummary, LastLogLineSkipsBlankTails)
{
    const std::string path = writeTempFile(
        "tail.log", "first line\nthe real tail\r\n\n   \n");
    EXPECT_EQ(lastLogLine(path), "the real tail");
    EXPECT_EQ(lastLogLine(testing::TempDir() + "no_such.log"), "");
    // A multi-line message keeps its indented continuation lines.
    const std::string multi = writeTempFile(
        "multi.log", "progress\nsrs_sim: a different grid\n"
                     "  found:    x\n  expected: y\n");
    EXPECT_EQ(lastLogLine(multi),
              "srs_sim: a different grid\n  found:    x\n  expected: y");
}

TEST(OrchestratorConfig, MissingBinaryOrDirIsFatal)
{
    // Launching real children is cli_smoke's job; here only the
    // configuration contract is checked.
    const ShardManifest manifest =
        planShards(testGrid(), tinyExperiment(), 2);
    EXPECT_THROW(Orchestrator(manifest, Orchestrator::Config{}),
                 FatalError);
    Orchestrator::Config noDir;
    noDir.simPath = "/bin/false";
    EXPECT_THROW(Orchestrator(manifest, noDir), FatalError);
}

TEST(Subprocess, SpawnReportsChildExitFaithfully)
{
    const std::string log = testing::TempDir() + "spawn_test.log";
    std::remove(log.c_str());
    const long ok =
        spawnProcess({"/bin/sh", "-c", "echo spawn-was-here"}, log);
    EXPECT_TRUE(processExitedCleanly(waitProcess(ok)));
    EXPECT_NE(readFile(log).find("spawn-was-here"), std::string::npos);

    const int status =
        waitProcess(spawnProcess({"/bin/sh", "-c", "exit 3"}, log));
    EXPECT_FALSE(processExitedCleanly(status));
    EXPECT_NE(describeProcessExit(status).find("status 3"),
              std::string::npos);
}

/** 2 workloads x 1 mitigation x 1 trh x 1 rate: 2 one-cell shards. */
SweepGrid
twoCellGrid()
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    return grid;
}

TEST(OrchestratorRun, CompletedShardsMergeWithoutLaunching)
{
    // Every shard CSV already validates, so a run over the directory
    // — even with more job slots than shards and a sim path that
    // could never work — launches nothing and stitches the
    // byte-identical merged CSV.
    const ExperimentConfig exp = tinyExperiment();
    const SweepGrid grid = twoCellGrid();
    const ShardManifest manifest = planShards(grid, exp, 2);
    const std::string dir = testing::TempDir() + "orch_done_dir";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const ShardSpec &shard : manifest.shards) {
        SweepRunner runner(exp, 2);
        runner.setJournal(dir + "/" + shard.csv + ".journal");
        std::ofstream out(dir + "/" + shard.csv,
                          std::ios::trunc | std::ios::binary);
        SweepRunner::writeCsv(out, runner.run(shard.grid));
    }

    Orchestrator::Config cfg;
    cfg.dir = dir;
    cfg.simPath = "/bin/false"; // must never be invoked
    cfg.jobs = 4;
    Orchestrator orchestrator(manifest, cfg);
    std::ostringstream merged;
    orchestrator.run(merged);
    EXPECT_EQ(merged.str(), sweepCsv(grid, 1));
    EXPECT_EQ(orchestrator.launches(), 0u);
    EXPECT_EQ(orchestrator.skippedShards(), manifest.shards.size());
    for (const ShardRunState &state : orchestrator.shardStates()) {
        EXPECT_TRUE(state.done);
        EXPECT_EQ(state.restarts, 0u);
    }

    // The supervisor writes no status file: the monitor's snapshot
    // of the shard journals is the one status, and it reads done.
    EXPECT_FALSE(std::filesystem::exists(dir + "/farm.status"));
    const std::vector<ShardStatus> snapshot =
        snapshotFromJournals(manifest, dir);
    ASSERT_EQ(snapshot.size(), 2u);
    for (const ShardStatus &status : snapshot)
        EXPECT_EQ(status.state, ShardState::Done);
}

TEST(OrchestratorRun, ExhaustedRetriesAreFatalWithTheChildsExit)
{
    // A sim that always dies: one relaunch (retries=1), then a fatal
    // that carries the child's exit description.
    const ShardManifest manifest =
        planShards(twoCellGrid(), tinyExperiment(), 1);
    const std::string dir = testing::TempDir() + "orch_fail_dir";
    std::filesystem::remove_all(dir);

    Orchestrator::Config cfg;
    cfg.dir = dir;
    cfg.simPath = "/bin/false";
    cfg.jobs = 1;
    cfg.retries = 1;
    Orchestrator orchestrator(manifest, cfg);
    std::ostringstream merged;
    try {
        orchestrator.run(merged);
        FAIL() << "a shard run by /bin/false cannot succeed";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("failed after 2 attempt(s)"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find("status 1"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_EQ(orchestrator.launches(), 2u);
    EXPECT_EQ(orchestrator.shardStates()[0].restarts, 1u);
    EXPECT_FALSE(orchestrator.shardStates()[0].lastError.empty());
}

} // namespace
} // namespace srs
