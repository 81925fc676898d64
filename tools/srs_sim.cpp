/**
 * @file
 * srs_sim — the command-line front-end of the library.
 *
 * Subcommands:
 *
 *   perf     run one workload under one defense as a one-cell sweep
 *            and print IPC and normalized performance (--csv: the
 *            sweep CSV of that cell):
 *              srs_sim perf --workload=gcc --mitigation=scale-srs
 *                      --trh=1200 --rate=3 [--tracker=misra-gries]
 *                      [--cycles=N] [--epoch=N] [--csv]
 *
 *   attack   evaluate the Juggernaut analytical model (and optional
 *            Monte-Carlo validation) for one configuration — a
 *            one-cell `security` sweep at its default seed; --banks
 *            above 1 is modelled for --defense=rrs without
 *            --montecarlo only:
 *              srs_sim attack --defense=rrs --trh=4800 --rate=6
 *                      [--rounds=N|best] [--open-page] [--banks=B]
 *                      [--montecarlo=ITERS] [--threads=N]
 *
 *   security run the attack models (analytic + optional Monte-Carlo
 *            campaigns) over the same system-axes lists as `sweep`
 *            (SystemAxesGrid, so an empty list is fatal in both) and
 *            emit one schema-v6 CSV row per (axes, defense, trh,
 *            rate[, rounds]) cell — AttackParams are derived from
 *            the axes via attackParamsFromAxes(), never hand-rolled:
 *              srs_sim security --defenses=srs,rrs --trh=4800
 *                      --rates=6 [--rounds=best|N,…]
 *                      [--page-policy=A,B] [--preset=ddr4,ddr5]
 *                      [--org=CxRxB,…] [--trc=NS,…] [--trcd=NS,…]
 *                      [--trp=NS,…] [--trefi=NS,…] [--trfc=NS,…]
 *                      [--montecarlo=ITERS] [--epoch-loop-limit=N]
 *                      [--seed=S] [--threads=N] [--out=FILE]
 *
 *   storage  print the Table IV storage breakdown:
 *              srs_sim storage --trh=1200
 *
 *   trace    export a synthetic workload as a USIMM trace file:
 *              srs_sim trace --workload=gups --records=100000
 *                      --out=gups.usimm
 *
 *   sweep    run a (workload x system-axes x mitigation x TRH x
 *            rate) grid across a thread pool and emit one CSV row
 *            per cell:
 *              srs_sim sweep --workloads=gups,gcc
 *                      --mitigations=rrs,scale-srs --trh=1200,2400
 *                      --rates=3,6 [--tracker=misra-gries]
 *                      [--trace=FILE[;FILE…]] [--page-policy=A,B]
 *                      [--preset=ddr4,ddr5] [--org=CxRxB,…]
 *                      [--trc=NS,…] [--trcd=NS,…] [--trp=NS,…]
 *                      [--trefi=NS,…] [--trfc=NS,…] [--mix=N]
 *                      [--threads=N] [--cycles=N] [--epoch=N]
 *                      [--seed=S] [--out=FILE] [--resume=FILE]
 *                      [--journal=FILE]
 *            --workloads=all sweeps every built-in profile; items
 *            spelled trace:<path>[;<path>…] (or the --trace
 *            shorthand) replay recorded USIMM trace files — one
 *            path for every core, or one per core; items spelled
 *            zipf:<rows>@s=<skew>,
 *            hotspot:<rows>@hot=<frac>@p=<prob>[@shift=<cycles>] or
 *            blend:<spec>+attack@<rate> run generator-backed skewed
 *            multi-tenant streams (Zipf row popularity, migrating
 *            hot sets, victim traffic with an embedded hammer
 *            stream — trace/generators.hh has the grammar); items
 *            spelled mix<N> run MIX point N (--mix=N appends
 *            mix0..mix<N-1>); --page-policy,
 *            --preset, --org (channels x ranks x banks-per-rank
 *            DRAM organizations, e.g. 2x1x16) and the
 *            --trc/--trcd/--trp/--trefi/--trfc
 *            override lists sweep the system axes (closed|open page
 *            management, ddr4|ddr5 timing preset, per-knob ns
 *            overrides, 0 = the preset's default), applied to
 *            protected and baseline runs alike.  Every row ends
 *            with the p50_lat/p99_lat/p999_lat read-latency
 *            percentile columns, the lat_samples count and the
 *            Monte-Carlo confidence columns (zeros for
 *            performance cells; schema v6).  CSV goes to stdout
 *            unless --out is given.  Output is ordered by cell
 *            (workloads outermost, then page policy, preset, org,
 *            the timing overrides, mitigations, trhs,
 *            rates innermost) and is byte-identical for any
 *            --threads value.
 *            Completed cells stream to a journal
 *            (default <out>.journal; --journal=none disables), and
 *            --resume=FILE skips cells already recorded in a
 *            previous journal or (possibly truncated) sweep CSV —
 *            the resumed output is byte-identical to a fresh run.
 *
 *   orchestrate
 *            split a sweep grid into balanced shards, run each as a
 *            supervised `srs_sim sweep` child process (restarting
 *            killed shards from their journals), and stitch the
 *            shard CSVs into one merged CSV that is byte-identical
 *            to a single-process sweep of the same grid.  Takes the
 *            sweep grid flags plus [--shards=S] [--jobs=J]
 *            [--threads=N per shard] [--retries=R] [--dir=DIR]
 *            [--sim=PATH] [--out=FILE]; --plan writes the manifest
 *            and prints the per-shard commands (shell-quoted)
 *            without launching anything, for any scheduler to run
 *            on other machines;
 *            re-running with the same flags and --dir finishes
 *            whatever those runs left undone.
 *
 *   merge    stitch-only: validate the shard CSVs named by an
 *            orchestration manifest (written by `orchestrate`, or
 *            by hand for shards run on other machines) and emit the
 *            merged CSV:
 *              srs_sim merge --manifest=DIR/manifest [--out=FILE]
 *
 *   monitor  report live shard progress by reading the shard
 *            journals alone — no channel to the orchestrator needed:
 *              srs_sim monitor --dir=DIR | --manifest=FILE
 *                      [--watch] [--interval-ms=MS]
 *
 *   list     list the built-in workload profiles.
 *
 * All subcommands reject unknown flags and stray words (a typo is a
 * fatal error, not a silently ignored knob).  docs/sweep-format.md
 * specs the CSV, journal and manifest formats; docs/ARCHITECTURE.md
 * maps the library layers underneath.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/thread_pool.hh"
#include "security/attack_model.hh"
#include "security/security_sweep.hh"
#include "security/storage_model.hh"
#include "sim/experiment.hh"
#include "sim/orchestrator.hh"
#include "sim/progress.hh"
#include "sim/sweep.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace srs;

int
cmdPerf(const Options &opts)
{
    const std::string workload = opts.getString("workload", "gcc");
    const std::string defense = opts.getString("mitigation", "scale-srs");
    SweepCell cell;
    cell.workload = WorkloadSpec::synthetic(workload);
    cell.trh = opts.getUint<std::uint32_t>("trh", 1200);
    cell.swapRate = opts.getUint<std::uint32_t>("rate", 3);
    cell.tracker =
        trackerKindFromName(opts.getString("tracker", "misra-gries"));
    ExperimentConfig exp;
    exp.cycles = opts.getUint("cycles", 1'500'000);
    exp.epochLen = opts.getUint("epoch", exp.cycles / 2);
    const bool csv = opts.getBool("csv", false);
    opts.rejectUnknown();
    cell.mitigation = mitigationKindFromName(defense);

    // A one-cell sweep: the seed, the baseline and the row are those
    // of this cell in `sweep`.
    const std::vector<SweepResult> results = SweepRunner(exp, 1).run({cell});
    if (csv) {
        SweepRunner::writeCsv(std::cout, results);
        if (!std::cout.flush())
            fatal("error writing CSV to stdout");
        return 0;
    }
    const SweepResult &r = results.front();
    std::printf("workload %s under %s (T_RH %u, rate %u)\n",
                workload.c_str(), defense.c_str(), cell.trh,
                cell.swapRate);
    std::printf("  ipc        %.4f (baseline %.4f)\n",
                r.run.aggregateIpc, r.baselineIpc);
    std::printf("  normalized %.4f\n", r.normalized);
    std::printf("  swaps %llu  unswap-swaps %llu  place-backs "
                "%llu  pinned %llu\n",
                static_cast<unsigned long long>(r.run.swaps),
                static_cast<unsigned long long>(r.run.unswapSwaps),
                static_cast<unsigned long long>(r.run.placeBacks),
                static_cast<unsigned long long>(r.run.rowsPinned));
    return 0;
}

/**
 * Parse the sweep grid + experiment flags shared by `sweep` and
 * `orchestrate`: the grid keys (readGridKeys(), the reader of the
 * shard manifest too) plus three shorthands, --workloads=all,
 * --trace and --mix; fatal() on an empty grid, a malformed org, or
 * inconsistent timing axes.
 */
void
parseGridFlags(const Options &opts, SweepGrid &grid,
               ExperimentConfig &exp)
{
    readGridKeys(opts, grid, exp);
    if (opts.getString("workloads", "") == "all") {
        grid.workloads.clear();
        for (const WorkloadProfile &p : allProfiles())
            grid.workloads.push_back(WorkloadSpec::synthetic(p.name));
    }
    // --trace=SPEC[,SPEC…] appends trace-file workloads; each SPEC is
    // a path (all cores) or a ';'-separated per-core path list —
    // shorthand for trace:SPEC inside --workloads.
    for (const std::string &spec :
         splitList(opts.getString("trace", ""))) {
        grid.workloads.push_back(
            WorkloadSpec::parse("trace:" + spec, exp.numCores));
    }
    const std::uint32_t mixes = opts.getUint<std::uint32_t>("mix", 0);
    for (std::uint32_t mix = 0; mix < mixes; ++mix)
        grid.workloads.push_back(WorkloadSpec::mix(mix, exp.numCores));

    if (grid.workloads.empty() || grid.mitigations.empty()
        || grid.trhs.empty() || grid.swapRates.empty()) {
        fatal("sweep grid is empty: need at least one workload, "
              "mitigation, trh and rate");
    }
    // Reject inconsistent timing combinations (e.g. tRC < tRCD +
    // tRP) before any shard or worker starts.
    (void)grid.axes();
}

int
cmdSweep(const Options &opts)
{
    SweepGrid grid;
    ExperimentConfig exp;
    parseGridFlags(opts, grid, exp);
    const std::size_t threads = opts.getUint<std::size_t>("threads", 0);
    const std::string out = opts.getString("out", "");
    const std::string resume = opts.getString("resume", "");
    std::string journal = opts.getString(
        "journal", out.empty() ? "" : out + ".journal");
    if (journal == "none")
        journal.clear();
    opts.rejectUnknown();

    SweepRunner runner(exp, threads);
    runner.setJournal(journal);
    runner.setResume(resume);
    const std::vector<SweepResult> results = runner.run(grid);
    if (out.empty()) {
        SweepRunner::writeCsv(std::cout, results);
        if (!std::cout.flush())
            fatal("error writing CSV to stdout");
    } else {
        std::ofstream file(out);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        SweepRunner::writeCsv(file, results);
        if (!file.flush())
            fatal("error writing CSV to '", out, "'");
        std::fprintf(stderr, "wrote %zu cells to %s (%zu threads)\n",
                     results.size(), out.c_str(),
                     runner.threadCount());
    }
    return 0;
}

/** argv[0] as seen by main(), the --sim fallback for orchestrate. */
std::string gArgv0;

/**
 * Best-effort path of the running binary: /proc/self/exe when the
 * kernel exposes it (Linux), else argv[0].
 */
std::string
selfExePath()
{
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec && !self.empty())
        return self.string();
    return gArgv0;
}

int
cmdOrchestrate(const Options &opts)
{
    SweepGrid grid;
    ExperimentConfig exp;
    parseGridFlags(opts, grid, exp);

    Orchestrator::Config cfg;
    cfg.jobs = opts.getUint<std::size_t>("jobs", 0);
    cfg.shardThreads = opts.getUint<std::size_t>("threads", 1);
    cfg.retries = opts.getUint<std::size_t>("retries", 2);
    // Default shard count: one shard per concurrent job slot.
    const std::size_t shards = opts.getUint<std::size_t>(
        "shards", ThreadPool::resolveThreads(cfg.jobs));
    const std::string out = opts.getString("out", "");
    cfg.dir = opts.getString(
        "dir", out.empty() ? "srs_shards" : out + ".shards");
    cfg.simPath = opts.getString("sim", selfExePath());
    const bool planOnly = opts.getBool("plan", false);
    opts.rejectUnknown();

    const ShardManifest manifest = planShards(grid, exp, shards);
    Orchestrator orchestrator(manifest, cfg);
    if (planOnly) {
        // Write the manifest and print the shard commands for
        // dispatch to other machines; launch nothing.
        orchestrator.writePlan(std::cout);
        return 0;
    }
    if (out.empty()) {
        orchestrator.run(std::cout);
        if (!std::cout.flush())
            fatal("error writing merged CSV to stdout");
    } else {
        std::ofstream file(out, std::ios::trunc | std::ios::binary);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        orchestrator.run(file);
    }
    std::fprintf(stderr,
                 "orchestrate: merged %zu cells from %zu shard(s) "
                 "into %s (%zu launched, %zu already complete)\n",
                 manifest.totalCells(), manifest.shards.size(),
                 out.empty() ? "stdout" : out.c_str(),
                 orchestrator.launches(),
                 orchestrator.skippedShards());
    return 0;
}

int
cmdMerge(const Options &opts)
{
    const std::string manifestPath = opts.getString("manifest", "");
    const std::string out = opts.getString("out", "");
    opts.rejectUnknown();
    if (manifestPath.empty())
        fatal("merge needs --manifest=FILE (written by 'srs_sim "
              "orchestrate', or by hand for remote shards)");

    const ShardManifest manifest = loadManifest(manifestPath);
    const std::string dir =
        std::filesystem::path(manifestPath).parent_path().string();
    if (out.empty()) {
        mergeShards(manifest, dir, std::cout);
        if (!std::cout.flush())
            fatal("error writing merged CSV to stdout");
    } else {
        std::ofstream file(out, std::ios::trunc | std::ios::binary);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        mergeShards(manifest, dir, file);
    }
    std::fprintf(stderr,
                 "merge: stitched %zu cells from %zu shard(s)\n",
                 manifest.totalCells(), manifest.shards.size());
    return 0;
}

int
cmdMonitor(const Options &opts)
{
    std::string manifestPath = opts.getString("manifest", "");
    std::string dir = opts.getString("dir", "");
    const bool watch = opts.getBool("watch", false);
    const std::uint64_t intervalMs =
        opts.getUint("interval-ms", 1000);
    opts.rejectUnknown();
    if (manifestPath.empty() && dir.empty())
        fatal("monitor needs --dir=DIR (the shard directory) or "
              "--manifest=FILE");
    if (manifestPath.empty())
        manifestPath = dir + "/manifest";
    if (dir.empty()) {
        dir = std::filesystem::path(manifestPath)
                  .parent_path()
                  .string();
        if (dir.empty())
            dir = ".";
    }

    const ShardManifest manifest = loadManifest(manifestPath);

    // The snapshot is built from the shard journals alone.
    // Rates/ETAs need two samples, so one-shot JSON reports them as
    // -1 and --watch fills them in from the second refresh on.
    ProgressClock clock(manifest.shards.size());
    for (;;) {
        std::vector<ShardStatus> snapshot =
            snapshotFromJournals(manifest, dir);
        const double now =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        for (ShardStatus &s : snapshot)
            clock.sample(s.index, s.rows, now);
        for (ShardStatus &s : snapshot) {
            s.rowsPerSec = clock.rowsPerSec(s.index);
            s.etaSec = s.state == ShardState::Done
                           ? 0.0
                           : clock.etaSec(s.index, s.cells);
        }
        if (!watch) {
            writeStatusJson(std::cout, snapshot);
            if (!std::cout.flush())
                fatal("error writing status to stdout");
            return 0;
        }
        writeStatusTable(std::cout, snapshot);
        if (fleetDone(snapshot)) {
            std::printf("monitor: fleet complete\n");
            return 0;
        }
        std::printf("\n");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs));
    }
}

/**
 * One `--rounds` item: `best` (the attacker-optimal N) or base-10
 * digits below SecurityGrid::kBestRounds, so no count aliases that
 * sentinel; fatal() quotes anything else.
 */
std::uint64_t
parseRounds(const std::string &item)
{
    if (item == "best")
        return SecurityGrid::kBestRounds;
    const std::optional<std::uint64_t> n =
        parseUnsigned(item, SecurityGrid::kBestRounds - 1);
    if (!n)
        fatal("--rounds: '", item, "' is not 'best' or a round count");
    return *n;
}

int
cmdAttack(const Options &opts)
{
    const std::string defense = opts.getString("defense", "rrs");
    // --open-page / --ddr5 are spelled as a SystemAxes identity and
    // the attack parameters derived from it — one definition of the
    // environment, shared with the sweep cells (Section VIII-5 falls
    // out of the ddr5 preset's halved tREFI).
    SystemAxes axes;
    if (opts.getBool("open-page", false))
        axes.pagePolicy = PagePolicy::Open;
    if (opts.getBool("ddr5", false))
        axes.preset = DramPreset::Ddr5;
    const std::uint32_t trh = opts.getUint<std::uint32_t>("trh", 4800);
    const std::uint32_t rate = opts.getUint<std::uint32_t>("rate", 6);
    const std::uint32_t banks = opts.getUint<std::uint32_t>("banks", 1);
    const std::uint64_t rounds =
        parseRounds(opts.getString("rounds", "best"));
    const std::uint64_t mcIters = opts.getUint("montecarlo", 0);
    const std::size_t mcThreads = opts.getUint<std::size_t>("threads", 0);
    opts.rejectUnknown();

    if (defense != "rrs" && defense != "srs" && defense != "scale-srs")
        fatal("attack model covers 'rrs', 'srs' and 'scale-srs'");
    if (banks > 1 && (defense != "rrs" || mcIters > 0))
        fatal("--banks above 1 is modelled only for --defense=rrs "
              "without --montecarlo");

    // One security cell: the analytic evaluation and the campaign
    // are those of the `security` row for this cell at its default
    // seed (0x5eed).
    SecurityGrid grid;
    grid.pagePolicies = {axes.pagePolicy};
    grid.presets = {axes.preset};
    grid.defenses = {defense == "rrs" ? SecurityDefense::Rrs
                                      : SecurityDefense::Srs};
    grid.trhs = {trh};
    grid.swapRates = {rate};
    grid.rounds = {rounds};
    SecuritySweep sweep(/*baseSeed=*/0x5eed, mcThreads);
    sweep.setIterations(mcIters);
    const SecurityResult cell = sweep.run(grid).front();
    const AttackParams p = attackParamsFromAxes(axes, trh, rate);
    const AttackResult r =
        banks > 1 ? JuggernautModel(p).evaluateRrsMultiBank(banks)
                  : cell.analytic;

    std::printf("%s, T_RH %u, swap rate %u, %u bank(s)%s%s\n",
                defense.c_str(), p.trh, p.swapRate, banks,
                p.actTimeFactor > 1.0 ? ", open page" : "",
                p.epochSec < 64e-3 ? ", ddr5" : "");
    if (!r.feasible) {
        std::printf("  attack infeasible within one refresh epoch\n");
        return 0;
    }
    std::printf("  rounds N        %llu\n",
                static_cast<unsigned long long>(r.rounds));
    std::printf("  required k      %llu\n",
                static_cast<unsigned long long>(r.k));
    std::printf("  guesses G       %.0f per epoch\n", r.guesses);
    std::printf("  p(success)      %.3g per epoch\n", r.pSuccess);
    std::printf("  time-to-break   %.3g days\n",
                r.timeToBreakSec / 86400.0);

    if (mcIters > 0) {
        std::printf("  monte-carlo     %.3g days (%llu iters, "
                    "%llu strata)\n",
                    cell.mc.meanTimeSec / 86400.0,
                    static_cast<unsigned long long>(mcIters),
                    static_cast<unsigned long long>(cell.mc.strata));
    }
    return 0;
}

int
cmdSecurity(const Options &opts)
{
    SecurityGrid grid;
    grid.readLists(opts);
    for (const std::string &d :
         splitList(opts.getString("defenses", "srs,rrs")))
        grid.defenses.push_back(securityDefenseFromName(d));
    grid.trhs =
        splitUint32List(opts.getString("trh", "4800"), opts.name("trh"));
    grid.swapRates =
        splitUint32List(opts.getString("rates", "6"), opts.name("rates"));
    grid.rounds.clear();
    for (const std::string &r :
         splitList(opts.getString("rounds", "best")))
        grid.rounds.push_back(parseRounds(r));
    const std::uint64_t iterations = opts.getUint("montecarlo", 0);
    const std::uint64_t loopLimit =
        opts.getUint("epoch-loop-limit", 100000);
    const std::uint64_t seed = opts.getSeed("seed", 0x5eed);
    const std::size_t threads = opts.getUint<std::size_t>("threads", 0);
    const std::string out = opts.getString("out", "");
    opts.rejectUnknown();

    SecuritySweep sweep(seed, threads);
    sweep.setIterations(iterations);
    sweep.setEpochLoopLimit(loopLimit);
    const std::vector<SecurityResult> results = sweep.run(grid);
    if (out.empty()) {
        SecuritySweep::writeCsv(std::cout, results);
        if (!std::cout.flush())
            fatal("error writing CSV to stdout");
    } else {
        std::ofstream file(out);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        SecuritySweep::writeCsv(file, results);
        if (!file.flush())
            fatal("error writing CSV to '", out, "'");
        std::fprintf(stderr,
                     "wrote %zu security cells to %s (%zu threads)\n",
                     results.size(), out.c_str(),
                     sweep.threadCount());
    }
    return 0;
}

int
cmdStorage(const Options &opts)
{
    StorageParams p;
    p.trh = opts.getUint<std::uint32_t>("trh", 1200);
    opts.rejectUnknown();
    StorageModel model(p);
    std::printf("per-bank storage at T_RH = %u\n%-20s %10s %10s\n",
                p.trh, "structure", "RRS", "Scale-SRS");
    for (const StorageLine &line : model.breakdown()) {
        std::printf("%-20s %9.1fK %9.1fK\n", line.structure.c_str(),
                    line.rrsBytes / 1024.0,
                    line.scaleSrsBytes / 1024.0);
    }
    std::printf("%-20s %9.1fK %9.1fK   (%.1fx)\n", "total",
                model.totalRrsBytes() / 1024.0,
                model.totalScaleSrsBytes() / 1024.0,
                model.savingsRatio());
    std::printf("single-table RIT option (Section VIII-4): %.1fK\n",
                model.ritBytesScaleSrsSingleTable() / 1024.0);
    return 0;
}

int
cmdTrace(const Options &opts)
{
    const std::string workload = opts.getString("workload", "gups");
    const std::string out = opts.getString("out", workload + ".usimm");
    const std::uint64_t records = opts.getUint("records", 100'000);
    const std::uint64_t seed = opts.getSeed("seed", 0xBEEF);
    const std::uint32_t core = opts.getUint<std::uint32_t>("core", 0);
    opts.rejectUnknown();

    const DramOrg org;
    AddressMap map(org);
    SyntheticTrace source(profileByName(workload), map, core, seed);
    TraceWriter writer(out);
    for (std::uint64_t i = 0; i < records; ++i)
        writer.append(source.next());
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(
                    writer.recordsWritten()),
                out.c_str());
    return 0;
}

int
cmdList(const Options &opts)
{
    opts.rejectUnknown();
    std::printf("%-16s %-12s %7s %7s %8s %6s\n", "name", "suite",
                "avgGap", "hotPr", "hotRows", "fpMB");
    for (const WorkloadProfile &p : allProfiles()) {
        std::printf("%-16s %-12s %7.1f %7.2f %8u %6llu\n",
                    p.name.c_str(), p.suite.c_str(), p.avgGap,
                    p.hotProb, p.hotRows,
                    static_cast<unsigned long long>(p.footprintMB));
    }
    return 0;
}

void
usage()
{
    std::printf(
        "usage: srs_sim <subcommand> [--key=value ...]\n"
        "\n"
        "subcommands and their flags (defaults in parentheses):\n"
        "\n"
        "  perf         one workload under one defense: a one-cell sweep\n"
        "    --workload=NAME (gcc)  --mitigation=KIND (scale-srs)\n"
        "    --trh=N (1200)  --rate=N (3)  --tracker=KIND\n"
        "    --cycles=N (1500000)  --epoch=N (cycles/2)\n"
        "    --csv  print the sweep CSV of that cell\n"
        "\n"
        "  sweep        workload x system-axes x mitigation x TRH x\n"
        "               rate grid, one CSV row per cell,\n"
        "               thread-pool parallel\n"
        "    --workloads=A,B|all (gcc); an item trace:<path>[;<path>]\n"
        "    replays USIMM trace file(s), one path or one per core;\n"
        "    generator items: zipf:<rows>@s=<skew>,\n"
        "    hotspot:<rows>@hot=<frac>@p=<prob>[@shift=<cycles>],\n"
        "    blend:<spec>+attack@<rate>; mix<N>: MIX point N\n"
        "    --trace=FILE[;FILE] (none)  shorthand: append a\n"
        "    trace-file workload to the grid\n"
        "    --mitigations=A,B (scale-srs)\n"
        "    --page-policy=closed|open[,..] (closed)\n"
        "    --preset=ddr4|ddr5[,..] (ddr4)  DRAM timing preset\n"
        "    --org=CxRxB[,..] (2x1x16)  DRAM organization:\n"
        "    channels x ranks x banks-per-rank, powers of two in\n"
        "    1..8 / 1..4 / 4..64\n"
        "    --trc=NS,.. --trcd=NS,.. --trp=NS,.. --trefi=NS,..\n"
        "    --trfc=NS,.. (0 = the preset's default timing)\n"
        "    --trh=N,M (1200)\n"
        "    --rates=N,M (3)  --tracker=KIND  --threads=N (all)\n"
        "    --mix=N (0)  shorthand: append mix0..mix<N-1>\n"
        "    --cycles=N  --epoch=N  --seed=S  --out=FILE (stdout)\n"
        "    --journal=FILE|none (<out>.journal)  --resume=FILE\n"
        "\n"
        "  orchestrate  split a sweep grid into shard processes,\n"
        "               supervise them, stitch one merged CSV\n"
        "    (all sweep grid flags above, plus:)\n"
        "    --shards=S (jobs)  --jobs=J (hardware threads)\n"
        "    --threads=N per shard (1)  --retries=R (2)\n"
        "    --dir=DIR (<out>.shards)  --sim=PATH (this binary)\n"
        "    --out=FILE (stdout)  --plan (write manifest + print\n"
        "    shard commands for other machines, launch nothing)\n"
        "\n"
        "  merge        validate + stitch shard CSVs from a manifest\n"
        "    --manifest=FILE (required)  --out=FILE (stdout)\n"
        "\n"
        "  monitor      live shard progress from the shard journals\n"
        "               alone (JSON lines; --watch for a table)\n"
        "    --dir=DIR | --manifest=FILE (one required;\n"
        "    --manifest defaults to <dir>/manifest)\n"
        "    --watch  refresh a table until the fleet completes\n"
        "    --interval-ms=MS (1000)\n"
        "\n"
        "  attack       Juggernaut analytical model / Monte-Carlo\n"
        "               (one `security` cell at seed 0x5eed)\n"
        "    --defense=rrs|srs|scale-srs (rrs)  --trh=N (4800)\n"
        "    --rate=N (6)  --rounds=N|best (best)\n"
        "    --banks=B (1; above 1 only for --defense=rrs\n"
        "    without --montecarlo)\n"
        "    --open-page  --ddr5  --montecarlo=ITERS (0)\n"
        "    --threads=N (all; never changes results)\n"
        "\n"
        "  security     attack-model sweep over the same system axes\n"
        "               as `sweep`, one schema-v6 CSV row per\n"
        "               (axes, defense, trh, rate[, rounds]) cell\n"
        "    --defenses=srs,rrs (srs,rrs)  --trh=N,M (4800)\n"
        "    --rates=N,M (6)  --rounds=best|N[,..] (best; RRS only)\n"
        "    --page-policy=closed|open[,..] (closed)\n"
        "    --preset=ddr4|ddr5[,..] (ddr4)  --org=CxRxB[,..]\n"
        "    --trc=NS,.. --trcd=NS,.. --trp=NS,.. --trefi=NS,..\n"
        "    --trfc=NS,.. (an empty axis list is fatal, as in sweep)\n"
        "    --montecarlo=ITERS (0 = analytic only)\n"
        "    --epoch-loop-limit=N (100000)  --seed=S (0x5eed)\n"
        "    --threads=N (all; never changes results)\n"
        "    --out=FILE (stdout)\n"
        "\n"
        "  storage      Table IV storage breakdown\n"
        "    --trh=N (1200)\n"
        "\n"
        "  trace        export a synthetic workload as a USIMM trace\n"
        "    --workload=NAME (gups)  --records=N (100000)\n"
        "    --seed=S  --core=N (0)  --out=FILE (<workload>.usimm)\n"
        "\n"
        "  list         list the built-in workload profiles\n"
        "\n"
        "Unknown flags are fatal errors.  File formats (sweep CSV,\n"
        "journal, shard manifest): docs/sweep-format.md; library\n"
        "layering: docs/ARCHITECTURE.md.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    gArgv0 = argc > 0 ? argv[0] : "srs_sim";
    const Options opts = Options::fromArgs(argc, argv);
    if (opts.positional().empty()) {
        usage();
        return 1;
    }
    const std::string &cmd = opts.positional().front();
    try {
        if (opts.positional().size() > 1)
            fatal("unexpected argument '", opts.positional()[1],
                  "' after '", cmd, "' (options are --key=value)");
        if (cmd == "perf")
            return cmdPerf(opts);
        if (cmd == "sweep")
            return cmdSweep(opts);
        if (cmd == "orchestrate")
            return cmdOrchestrate(opts);
        if (cmd == "merge")
            return cmdMerge(opts);
        if (cmd == "monitor")
            return cmdMonitor(opts);
        if (cmd == "attack")
            return cmdAttack(opts);
        if (cmd == "security")
            return cmdSecurity(opts);
        if (cmd == "storage")
            return cmdStorage(opts);
        if (cmd == "trace")
            return cmdTrace(opts);
        if (cmd == "list")
            return cmdList(opts);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "srs_sim: %s\n", err.what());
        return 1;
    }
    usage();
    return 1;
}
