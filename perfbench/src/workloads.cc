#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "host_speed.hh"
#include "probes.hh"
#include "security/security_sweep.hh"
#include "sim/orchestrator.hh"
#include "sim/sweep.hh"
#include "trace/generators.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace_log.hh"

namespace perfbench
{

namespace
{

using srs::Cycle;

// Work per timed call, sized so one call takes one to three seconds
// on a 4-core host and a measured run holds several repetitions.  A
// run is one refresh epoch long: at 300k cycles the gcc and blend
// cells reach T_RH/rate activations on a row and swap, gups and comm1
// do not.
constexpr Cycle kCellCycles = 400'000;
constexpr Cycle kSweepCycles = 300'000;
constexpr std::uint64_t kSecurityTrials = 8'000;

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kTracedCellReps = 3;

// The srs_sim CLI defaults: perf/sweep/orchestrate seed their traces
// with ExperimentConfig::seed, `security` with 0x5eed.
constexpr std::uint64_t kSimSeed = 0xBEEF;
constexpr std::uint64_t kSecuritySeed = 0x5eed;

const char *const kSweepWorkloads =
    "gups,gcc,comm1,blend:zipf:4096@s=0.9+attack@0.05";

const char *const kCell = "cell_gups_srs";
const char *const kSweep = "sweep_mixed";
const char *const kSecurity = "security_fig06";

// ------------------------------------------------------------ helpers

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Repeat @p rep until @p seconds have passed, at least kMinReps times. */
template <class F>
void
repeatFor(double seconds, F &&rep)
{
    const std::int64_t start = nowNs();
    for (std::size_t n = 0; n < kMinReps || secondsSince(start) < seconds;
         ++n)
        rep();
}

/** Median host seconds of kSetupReps calls of @p setup. */
template <class F>
double
medianSetup(F &&setup)
{
    std::vector<double> s;
    for (std::size_t k = 0; k < kSetupReps; ++k) {
        const std::int64_t t0 = nowNs();
        setup();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

/** Peak resident set of this process in MB. */
double
peakRssMb()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

srs::ExperimentConfig
experiment(Cycle cycles, std::uint64_t seed)
{
    srs::ExperimentConfig exp;
    exp.cycles = cycles;
    exp.epochLen = cycles;
    exp.seed = seed;
    return exp;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ----------------------------------------------------- the simulation rig

/**
 * One System with a trace on every core, built exactly as the
 * library's runWorkload/runWorkloadGenerator build theirs.  A probed
 * rig wraps each trace and the mitigation listener in the timing
 * probes.
 */
class Rig
{
  public:
    Rig(const srs::SystemConfig &cfg, const srs::WorkloadSpec &spec,
        const srs::ExperimentConfig &exp, bool probed)
        : sys_(std::make_unique<srs::System>(cfg))
    {
        const srs::AddressMap &map = sys_->controller().addressMap();
        for (srs::CoreId c = 0; c < cfg.numCores; ++c) {
            std::unique_ptr<srs::TraceSource> src;
            if (spec.kind == srs::WorkloadKind::Synthetic) {
                src = std::make_unique<srs::SyntheticTrace>(
                    srs::profileByName(spec.name), map, c, exp.seed);
            } else if (spec.kind == srs::WorkloadKind::Generator) {
                src = std::make_unique<srs::GeneratorTrace>(
                    spec.generator, map, c, exp.seed);
            } else {
                srs::fatal("perfbench: unsupported workload '",
                           spec.label(), "'");
            }
            if (probed)
                src = std::make_unique<TimedTrace>(std::move(src),
                                                   traceCalls_);
            sys_->setTrace(c, std::move(src));
        }
        // Baselines run without a listener; keep it that way.
        if (probed && cfg.mitigation != srs::MitigationKind::None) {
            listener_ = std::make_unique<TimedListener>(sys_->mitigation(),
                                                        listenerCalls_);
            sys_->controller().setListener(listener_.get());
        }
    }
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    srs::System &sys() { return *sys_; }
    const HotCounter &traceCalls() const { return traceCalls_; }
    const HotCounter &listenerCalls() const { return listenerCalls_; }

  private:
    HotCounter traceCalls_;
    HotCounter listenerCalls_;
    std::unique_ptr<TimedListener> listener_;
    std::unique_ptr<srs::System> sys_;
};

/** The RunResult the library's runWorkload* would return. */
srs::RunResult
collect(srs::System &sys)
{
    srs::RunResult r;
    r.aggregateIpc = sys.aggregateIpc();
    for (srs::CoreId c = 0; c < sys.config().numCores; ++c)
        r.coreIpc.push_back(sys.coreIpc(c));
    const srs::StatSet &ms = sys.mitigation().stats();
    r.swaps = ms.get("swaps") + ms.get("quarantine_moves");
    r.unswapSwaps = ms.get("unswap_swaps");
    r.placeBacks = ms.get("place_backs") + ms.get("lazy_restores");
    r.rowsPinned = ms.get("rows_pinned");
    r.latentActivations = sys.controller().stats().get("latent_activations");
    r.maxRowActivations = sys.maxEpochActivations();
    r.readLatency = sys.controller().readLatency();
    r.p50Lat = r.readLatency.quantilePermille(500);
    r.p99Lat = r.readLatency.quantilePermille(990);
    r.p999Lat = r.readLatency.quantilePermille(999);
    r.latSamples = r.readLatency.total();
    return r;
}

/** Simulated per-layer counts, summed over System runs. */
struct SimCounts
{
    std::map<std::string, double> sums;
    srs::LatencyHistogram readLatency;
    std::uint64_t maxRowActs = 0;

    void
    add(srs::System &sys, const srs::RunResult &r)
    {
        const srs::StatSet &s = sys.controller().stats();
        for (const char *name :
             {"activations", "reads_issued", "writes_issued", "row_hits",
              "row_conflicts", "refreshes", "forced_precharges",
              "idle_closes"})
            sums[std::string("memctrl.") + name] +=
                static_cast<double>(s.get(name));
        std::uint64_t skips = 0;
        for (const auto &[name, value] : s.all()) {
            if (name.rfind("p2_skip_", 0) == 0)
                skips += value;
        }
        sums["memctrl.p2_skips"] += static_cast<double>(skips);
        sums["mitigation.swaps"] += static_cast<double>(r.swaps);
        sums["mitigation.unswap_swaps"] += static_cast<double>(r.unswapSwaps);
        sums["mitigation.place_backs"] += static_cast<double>(r.placeBacks);
        sums["mitigation.latent_activations"] +=
            static_cast<double>(r.latentActivations);
        sums["cache.rows_pinned"] += static_cast<double>(r.rowsPinned);
        sums["cache.pinned_absorbed"] +=
            static_cast<double>(sys.stats().get("pinned_absorbed"));
        // System keeps its cores private; IPC x cycles recovers the
        // retired-instruction count exactly (IPC = retired / now).
        std::uint64_t retired = 0;
        for (srs::CoreId c = 0; c < sys.config().numCores; ++c)
            retired += static_cast<std::uint64_t>(std::llround(
                sys.coreIpc(c) * static_cast<double>(sys.now())));
        sums["cpu.retired_instrs"] += static_cast<double>(retired);
        readLatency.merge(r.readLatency);
        maxRowActs = std::max(maxRowActs, r.maxRowActivations);
    }

    void
    merge(const SimCounts &o)
    {
        for (const auto &[k, v] : o.sums)
            sums[k] += v;
        readLatency.merge(o.readLatency);
        maxRowActs = std::max(maxRowActs, o.maxRowActs);
    }
};

/** Metrics plus, for each ratio, the base it was computed from. */
struct LayerReport
{
    std::map<std::string, double> &metrics;
    std::map<std::string, std::string> bases;

    void
    set(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    void
    ratio(const std::string &name, double num, const std::string &numName,
          double den, const std::string &denName, double scale = 1.0)
    {
        metrics[name] = perfbench::ratio(num * scale, den);
        bases[name] = numName + " " + fmt(num) + " / " + denName + " "
                      + fmt(den);
    }
};

/**
 * The system/trace/mitigation/memctrl/cache metrics from the
 * self-time table and the simulated counts, per run (@p runs traced
 * System runs are averaged).
 */
void
reportSimLayers(LayerReport &rep, const std::vector<SelfTimeRow> &rows,
                const SimCounts &counts, double runs)
{
    for (const auto &[name, value] : counts.sums)
        rep.set(name, value);
    rep.set("memctrl.read_p50_cycles",
            static_cast<double>(counts.readLatency.quantilePermille(500)));
    rep.set("memctrl.read_p99_cycles",
            static_cast<double>(counts.readLatency.quantilePermille(990)));
    rep.set("mitigation.max_row_acts", static_cast<double>(counts.maxRowActs));

    const SelfTimeRow trace = findRow(rows, "TraceSource::next");
    const SelfTimeRow listener = findRow(rows, "MemCtrlListener");
    const SelfTimeRow run = findRow(rows, "System::run");
    const SelfTimeRow build = findRow(rows, "System::System");
    const double records = static_cast<double>(trace.count) / runs;
    const double calls = static_cast<double>(listener.count) / runs;
    rep.set("trace.records", records);
    rep.set("trace.self_s", trace.selfS / runs);
    rep.ratio("trace.ns_per_record", trace.selfS / runs, "trace.self_s",
              records, "trace.records", 1e9);
    rep.set("mitigation.calls", calls);
    rep.set("mitigation.self_s", listener.selfS / runs);
    rep.ratio("mitigation.ns_per_call", listener.selfS / runs,
              "mitigation.self_s", calls, "mitigation.calls", 1e9);
    rep.set("system.construct_s", build.totalS / runs);
    rep.set("system.run_s", run.totalS / runs);
    rep.set("system.run_self_s", run.selfS / runs);
    const double cmds = counts.sums.at("memctrl.activations")
                        + counts.sums.at("memctrl.reads_issued")
                        + counts.sums.at("memctrl.writes_issued");
    rep.set("system.dram_cmds", cmds);
    rep.ratio("system.ns_per_dram_cmd", run.selfS / runs,
              "system.run_self_s", cmds, "system.dram_cmds", 1e9);
}

/** Write the span file and the self-time / per-layer table. */
std::vector<std::string>
writeTraceFiles(const RunOptions &o, const SpanLog &log,
                const std::vector<SelfTimeRow> &rows,
                const LayerReport &rep)
{
    const std::filesystem::path dir =
        std::filesystem::path(o.workDir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string stem = (dir / log.runId()).string();
    writeSpanFile(stem + ".spans.jsonl", log);

    std::ofstream out(stem + ".layers.txt");
    out << "# perfbench traced run " << log.runId() << "\n# "
        << o.fingerprint << "\n\n"
        << "# self-time table (host seconds; hot boundaries count calls)\n";
    char line[256];
    std::snprintf(line, sizeof(line), "%-28s %12s %14s %14s\n", "span",
                  "count", "total_s", "self_s");
    out << line;
    for (const SelfTimeRow &r : rows) {
        std::snprintf(line, sizeof(line), "%-28s %12llu %14.6f %14.6f\n",
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.count), r.totalS,
                      r.selfS);
        out << line;
    }
    out << "\n# per-layer metrics (host = measured time, simulated = "
           "exact model output)\n";
    for (const MetricDef &m : perLayerMetrics()) {
        const auto it = rep.metrics.find(m.name);
        const double v = it == rep.metrics.end() ? 0.0 : it->second;
        out << m.name << " = " << fmt(v) << ' ' << m.unit << " ("
            << m.source << ')';
        const auto base = rep.bases.find(m.name);
        if (base != rep.bases.end())
            out << "  from " << base->second;
        out << '\n';
    }
    if (!out.flush())
        srs::fatal("perfbench: error writing '", stem, ".layers.txt'");
    return {"trace files: " + stem + ".spans.jsonl, " + stem + ".layers.txt"};
}

std::string
csvOf(const std::vector<srs::SweepResult> &results)
{
    std::ostringstream os;
    srs::SweepRunner::writeCsv(os, results);
    return os.str();
}

std::string
csvOf(const std::vector<srs::SecurityResult> &results)
{
    std::ostringstream os;
    srs::SecuritySweep::writeCsv(os, results);
    return os.str();
}

/**
 * One named rate for the notes: @p work per second at reference host
 * speed, the raw host rate, and every call's raw and normalized time.
 */
std::string
rateNote(const std::string &name, const std::string &unit, double work,
         const std::string &call, const HostSpeedSeries &series)
{
    const auto list = [](const std::vector<double> &values) {
        std::string s;
        for (const double v : values) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), " %.4f", v);
            s += buf;
        }
        return s;
    };
    return name + " = " + fmt(work / median(series.normalized())) + " "
           + unit + " at reference host speed (raw host rate "
           + fmt(work / median(series.raw())) + ", host slowdown "
           + fmt(series.slowdown()) + "); median of "
           + std::to_string(series.raw().size()) + " " + call
           + " calls\n  raw s:" + list(series.raw())
           + "\n  normalized s:" + list(series.normalized());
}

/** Digest of CSV data rows, the same for every pass of a workload. */
std::string
rowsDigest(const std::vector<std::string> &rows)
{
    std::string joined;
    for (const std::string &row : rows)
        joined += row + '\n';
    return hex(fnv1a(joined)) + " (" + std::to_string(rows.size())
           + " CSV rows)";
}

// ---------------------------------------------------------------- cell

std::string
runDigest(const srs::RunResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ipc=%.17g swaps=%llu max_row_acts=%llu p50=%llu "
                  "p99=%llu p999=%llu reads=%llu",
                  r.aggregateIpc, static_cast<unsigned long long>(r.swaps),
                  static_cast<unsigned long long>(r.maxRowActivations),
                  static_cast<unsigned long long>(r.p50Lat),
                  static_cast<unsigned long long>(r.p99Lat),
                  static_cast<unsigned long long>(r.p999Lat),
                  static_cast<unsigned long long>(r.latSamples));
    return hex(fnv1a(buf)) + " (" + buf + ")";
}

RunOutcome
cellWorkload(const RunOptions &o, std::uint64_t seed)
{
    const srs::ExperimentConfig exp = experiment(kCellCycles, seed);
    const srs::SystemConfig cfg =
        srs::makeSystemConfig(exp, srs::MitigationKind::Srs, 1200, 6);
    const srs::WorkloadSpec spec = srs::WorkloadSpec::synthetic("gups");
    RunOutcome out;

    // The library's own entry point is the reference output.
    const srs::RunResult ref =
        srs::runWorkload(cfg, srs::profileByName("gups"), exp);

    if (!o.trace) {
        const double setup =
            medianSetup([&] { Rig rig(cfg, spec, exp, false); });
        HostSpeedSeries series(1);
        repeatFor(o.seconds, [&] {
            Rig rig(cfg, spec, exp, false);
            series.measure([&] { rig.sys().run(exp.cycles); });
            out.tally.check(sameRunResult(collect(rig.sys()), ref));
        });
        const double cycles = static_cast<double>(exp.cycles);
        out.metrics["work_per_sec"] = cycles / median(series.normalized());
        out.metrics["setup_s"] = setup / series.slowdown();
        out.metrics["peak_rss_mb"] = peakRssMb();
        out.notes.push_back(rateNote("cycles_per_sec", "cycles/s", cycles,
                                     "System::run", series));
        out.notes.push_back("digest " + std::string(kCell) + " "
                            + runDigest(ref));
        return out;
    }

    SpanLog log(std::string(kCell) + "-seed" + std::to_string(seed));
    const std::uint64_t root = log.open(std::string("workload:") + kCell, 0);
    std::vector<double> plain, traced;
    SimCounts counts;
    // Untraced and traced runs alternate, so host-speed drift hits
    // both sides of the overhead estimate alike.
    for (std::size_t k = 0; k < kTracedCellReps; ++k) {
        {
            Rig rig(cfg, spec, exp, false);
            const std::uint64_t run = log.open("untraced System::run", root);
            rig.sys().run(exp.cycles);
            log.close(run);
            plain.push_back(log.seconds(run));
        }
        const std::uint64_t cell = log.open("cell", root);
        const std::uint64_t build = log.open("System::System", cell);
        Rig rig(cfg, spec, exp, true);
        log.close(build);
        const std::uint64_t run = log.open("System::run", cell);
        rig.sys().run(exp.cycles);
        log.close(run);
        log.close(cell);
        traced.push_back(log.seconds(run));
        log.addHot("TraceSource::next", run, rig.traceCalls());
        log.addHot("MemCtrlListener", run, rig.listenerCalls());
        const srs::RunResult res = collect(rig.sys());
        out.tally.check(sameRunResult(res, ref));
        if (k == 0)
            counts.add(rig.sys(), res);
    }
    log.close(root);

    const std::vector<SelfTimeRow> rows = selfTimes(log.spans(), log.hots());
    LayerReport rep{out.metrics, {}};
    reportSimLayers(rep, rows, counts, kTracedCellReps);
    rep.set("model.aggregate_ipc", ref.aggregateIpc);
    rep.ratio("tracing_overhead_pct", median(traced) - median(plain),
              "traced-untraced System::run s", median(plain),
              "untraced System::run s", 100.0);
    out.notes = writeTraceFiles(o, log, rows, rep);
    out.notes.push_back("digest " + std::string(kCell) + " "
                        + runDigest(ref));
    return out;
}

// --------------------------------------------------------------- sweeps

srs::SweepGrid
sweepGrid(std::uint32_t cores)
{
    srs::SweepGrid g;
    g.workloads = srs::splitSpecList(kSweepWorkloads, cores);
    g.pagePolicies = {srs::PagePolicy::Closed, srs::PagePolicy::Open};
    g.mitigations = {srs::MitigationKind::Rrs, srs::MitigationKind::ScaleSrs};
    g.trhs = {1200};
    g.swapRates = {6};
    return g;
}

/**
 * The runs of a sweep, grouped as SweepRunner groups them: one
 * unprotected baseline per distinct (workload, axes), then every
 * cell (all protected in the benchmark grid, so none reuses its
 * baseline).
 */
struct SweepRuns
{
    std::vector<std::size_t> groupOf;   ///< cell -> baseline group
    std::vector<std::size_t> groupCell; ///< group -> its first cell
};

SweepRuns
sweepRuns(const std::vector<srs::SweepCell> &cells)
{
    SweepRuns runs;
    std::map<std::pair<std::string, std::string>, std::size_t> index;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto key = std::make_pair(cells[i].workload.label(),
                                        cells[i].axes.field());
        const auto [it, fresh] = index.emplace(key, runs.groupCell.size());
        if (fresh)
            runs.groupCell.push_back(i);
        runs.groupOf.push_back(it->second);
    }
    return runs;
}

/** Experiment and machine of one sweep run, as SweepRunner builds them. */
std::pair<srs::ExperimentConfig, srs::SystemConfig>
sweepRun(const srs::SweepCell &cell, bool baseline,
         const srs::ExperimentConfig &exp, std::uint64_t seed)
{
    srs::ExperimentConfig e = exp;
    e.seed = srs::SweepRunner::cellSeed(seed, cell.workload.label());
    // Baselines ignore trh/rate; the sweep passes 4800/6.
    const srs::SystemConfig cfg =
        baseline ? srs::makeSystemConfig(e, srs::MitigationKind::None, 4800,
                                         6, srs::TrackerKind::MisraGries,
                                         cell.axes)
                 : srs::makeSystemConfig(e, cell.mitigation, cell.trh,
                                         cell.swapRate, cell.tracker,
                                         cell.axes);
    return {e, cfg};
}

/** Build (and drop) the System of every run of @p cells. */
void
constructSweepSystems(const std::vector<srs::SweepCell> &cells,
                      const srs::ExperimentConfig &exp, std::uint64_t seed)
{
    const SweepRuns runs = sweepRuns(cells);
    for (const std::size_t i : runs.groupCell) {
        const auto [e, cfg] = sweepRun(cells[i], true, exp, seed);
        Rig rig(cfg, cells[i].workload, e, false);
    }
    for (const srs::SweepCell &cell : cells) {
        const auto [e, cfg] = sweepRun(cell, false, exp, seed);
        Rig rig(cfg, cell.workload, e, false);
    }
}

/**
 * One operation per expected cell: the row must carry the cell's
 * identity prefix and equal @p reference byte for byte.
 */
Tally
checkSweepRows(const std::vector<srs::SweepCell> &cells, std::uint64_t seed,
               const std::vector<std::string> &reference,
               const std::vector<std::string> &rows)
{
    Tally t;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string prefix = srs::SweepRunner::identityPrefix(
            i, cells[i],
            srs::SweepRunner::cellSeed(seed, cells[i].workload.label()));
        t.check(i < rows.size() && i < reference.size()
                && rows[i] == reference[i] && rows[i].rfind(prefix, 0) == 0);
    }
    for (std::size_t i = cells.size(); i < rows.size(); ++i)
        t.check(false);
    return t;
}

/** Run the orchestrator in a fresh @p dir; empty rows when it fails. */
std::vector<std::string>
runSharded(const srs::ShardManifest &manifest, const RunOptions &o,
           const std::string &dir, std::size_t threads,
           std::size_t *launches = nullptr)
{
    srs::Orchestrator::Config cfg;
    cfg.simPath = o.simPath;
    cfg.dir = dir;
    cfg.jobs = threads;
    cfg.shardThreads = 1;
    cfg.retries = 0;
    srs::Orchestrator orch(manifest, cfg);
    std::ostringstream merged;
    try {
        orch.run(merged);
    } catch (const srs::FatalError &err) {
        std::fprintf(stderr, "perfbench: orchestrator failed: %s\n",
                     err.what());
        return {};
    }
    if (launches)
        *launches = orch.launches();
    return csvDataRows(merged.str());
}

RunOutcome
sweepTraced(const RunOptions &o, std::uint64_t seed);

RunOutcome
sweepWorkload(const RunOptions &o, std::uint64_t seed)
{
    if (o.trace)
        return sweepTraced(o, seed);

    const srs::ExperimentConfig exp = experiment(kSweepCycles, seed);
    RunOutcome out;
    // Set-up: the grid and every run's System with its traces.
    const double setup = medianSetup([&] {
        const srs::SweepGrid g = sweepGrid(exp.numCores);
        constructSweepSystems(g.expand(), exp, seed);
        srs::SweepRunner runner(exp, o.threads);
    });

    const std::vector<srs::SweepCell> cells = sweepGrid(exp.numCores).expand();
    HostSpeedSeries series(o.threads);
    std::vector<std::vector<std::string>> reps;
    repeatFor(o.seconds, [&] {
        srs::SweepRunner runner(exp, o.threads);
        std::vector<srs::SweepResult> res;
        series.measure([&] { res = runner.run(cells); });
        reps.push_back(csvDataRows(csvOf(res)));
    });
    // Every repetition must repeat the first (the traced run checks
    // the shard pass against it).
    for (const std::vector<std::string> &rows : reps)
        out.tally.add(checkSweepRows(cells, seed, reps.front(), rows));

    const double n = static_cast<double>(cells.size());
    out.metrics["work_per_sec"] = n / median(series.normalized());
    out.metrics["setup_s"] = setup / series.slowdown();
    out.metrics["peak_rss_mb"] = peakRssMb();
    out.notes.push_back(rateNote("sweep_cells_per_sec", "cells/s", n,
                                 "SweepRunner::run", series));
    out.notes.push_back("digest " + std::string(kSweep) + " "
                        + rowsDigest(reps.front()));
    return out;
}

/** One traced System run of a sweep re-execution. */
struct RunSlot
{
    srs::RunResult result;
    SimCounts counts;
    double seconds = 0.0;
    bool ok = false;
};

RunOutcome
sweepTraced(const RunOptions &o, std::uint64_t seed)
{
    const std::size_t threads = o.threads;
    const std::string workload = kSweep;
    const srs::ExperimentConfig exp = experiment(kSweepCycles, seed);
    const srs::SweepGrid grid = sweepGrid(exp.numCores);
    const std::vector<srs::SweepCell> cells = grid.expand();
    const std::string dir = o.workDir + "/shards";
    RunOutcome out;
    SpanLog log(workload + "-seed" + std::to_string(seed));
    const std::uint64_t root = log.open("workload:" + workload, 0);

    // The untraced calls, each one span.
    std::uint64_t span = log.open("SweepRunner::run", root);
    const std::string csv =
        csvOf(srs::SweepRunner(exp, threads).run(cells));
    log.close(span);
    const double sweepWall = log.seconds(span);
    const std::vector<std::string> expected = csvDataRows(csv);

    const srs::ShardManifest manifest = srs::planShards(grid, exp, threads);
    std::filesystem::remove_all(dir);
    std::size_t launches = 0;
    span = log.open("Orchestrator::run", root);
    const std::vector<std::string> sharded =
        runSharded(manifest, o, dir, threads, &launches);
    log.close(span);
    const double orchWall = log.seconds(span);
    out.tally.add(compareRows(expected, sharded));

    span = log.open("mergeShards", root);
    out.tally.add(checkShardDir(manifest, dir, expected));
    log.close(span);
    const double mergeS = log.seconds(span);
    std::filesystem::remove_all(dir);

    // Cell-by-cell re-execution with the same two phases as the sweep:
    // one baseline per (workload, axes), then every protected cell.
    const SweepRuns runs = sweepRuns(cells);
    const std::vector<std::size_t> &groupOf = runs.groupOf;
    const std::vector<std::size_t> &groupCell = runs.groupCell;
    std::vector<RunSlot> baseSlots(groupCell.size()), cellSlots(cells.size());
    const std::uint64_t reexec = log.open("reexecute", root);
    const auto traceRun = [&](const srs::SweepCell &cell, bool baseline,
                              RunSlot &slot) {
        const auto [e, cfg] = sweepRun(cell, baseline, exp, seed);
        const std::uint64_t id =
            log.open(baseline ? "baseline" : "cell", reexec);
        try {
            const std::uint64_t build = log.open("System::System", id);
            Rig rig(cfg, cell.workload, e, true);
            log.close(build);
            const std::uint64_t run = log.open("System::run", id);
            rig.sys().run(e.cycles);
            log.close(run);
            log.addHot("TraceSource::next", run, rig.traceCalls());
            log.addHot("MemCtrlListener", run, rig.listenerCalls());
            slot.result = collect(rig.sys());
            slot.counts.add(rig.sys(), slot.result);
            slot.ok = true;
        } catch (const srs::FatalError &err) {
            std::fprintf(stderr, "perfbench: %s\n", err.what());
        }
        log.close(id);
        slot.seconds = log.seconds(id);
    };
    {
        srs::ThreadPool pool(threads);
        for (std::size_t g = 0; g < groupCell.size(); ++g) {
            pool.submit([&, g] {
                traceRun(cells[groupCell[g]], true, baseSlots[g]);
            });
        }
        pool.wait();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            pool.submit([&, i] {
                traceRun(cells[i], false, cellSlots[i]);
            });
        }
        pool.wait();
    }
    log.close(reexec);
    const double reexecWall = log.seconds(reexec);
    log.close(root);

    // Every re-executed row must reproduce its untraced row.
    std::vector<double> normalized;
    double criticalPath = 0.0;
    SimCounts counts;
    for (const RunSlot &s : baseSlots)
        counts.merge(s.counts);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunSlot &base = baseSlots[groupOf[i]];
        const RunSlot &slot = cellSlots[i];
        srs::SweepResult r;
        r.cell = cells[i];
        r.seed = srs::SweepRunner::cellSeed(seed, cells[i].workload.label());
        r.run = slot.result;
        r.baselineIpc = base.result.aggregateIpc;
        r.normalized = r.baselineIpc > 0.0
                           ? r.run.aggregateIpc / r.baselineIpc
                           : 1.0;
        out.tally.check(base.ok && slot.ok && i < expected.size()
                        && srs::SweepRunner::formatRow(i, r) == expected[i]);
        normalized.push_back(r.normalized);
        counts.merge(slot.counts);
        criticalPath = std::max(criticalPath, base.seconds + slot.seconds);
    }

    // Price each shard's slice with the traced per-run times.
    double runSum = 0.0;
    std::map<std::string, double> costOf; // workload label -> seconds
    for (std::size_t g = 0; g < groupCell.size(); ++g) {
        runSum += baseSlots[g].seconds;
        costOf[cells[groupCell[g]].workload.label()] += baseSlots[g].seconds;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        runSum += cellSlots[i].seconds;
        costOf[cells[i].workload.label()] += cellSlots[i].seconds;
    }
    double maxShard = 0.0, sumShard = 0.0;
    for (const srs::ShardSpec &shard : manifest.shards) {
        double cost = 0.0;
        for (const srs::WorkloadSpec &w : shard.grid.workloads)
            cost += costOf[w.label()];
        maxShard = std::max(maxShard, cost);
        sumShard += cost;
    }

    const std::vector<SelfTimeRow> rows = selfTimes(log.spans(), log.hots());
    LayerReport rep{out.metrics, {}};
    reportSimLayers(rep, rows, counts, 1.0);
    const double nThreads = static_cast<double>(threads);
    rep.set("sweep.runs", static_cast<double>(groupCell.size() + cells.size()));
    rep.set("sweep.wall_s", sweepWall);
    rep.set("sweep.run_s_sum", runSum);
    rep.set("sweep.critical_path_s", criticalPath);
    rep.ratio("sweep.pool_efficiency", runSum, "sweep.run_s_sum",
              nThreads * sweepWall, "threads x sweep.wall_s");
    rep.set("sweep.overhead_s",
            sweepWall - std::max(runSum / nThreads, criticalPath));
    rep.set("orchestrator.wall_s", orchWall);
    rep.set("orchestrator.overhead_s", orchWall - sweepWall);
    rep.set("orchestrator.merge_s", mergeS);
    rep.set("orchestrator.launches", static_cast<double>(launches));
    rep.ratio("orchestrator.shard_imbalance", maxShard, "max shard cost s",
              sumShard / static_cast<double>(manifest.shards.size()),
              "mean shard cost s");
    rep.set("model.normalized_geomean", srs::geoMean(normalized));
    rep.ratio("tracing_overhead_pct", reexecWall - sweepWall,
              "traced re-execution - SweepRunner::run s", sweepWall,
              "SweepRunner::run s", 100.0);
    out.notes = writeTraceFiles(o, log, rows, rep);
    out.notes.push_back("digest " + workload + " " + rowsDigest(expected));
    return out;
}

// ------------------------------------------------------------- security

srs::SecurityGrid
securityGrid()
{
    srs::SecurityGrid g;
    g.defenses = {srs::SecurityDefense::Rrs};
    g.trhs = {2400};
    g.swapRates = {6};
    g.rounds = {0, 300, 600, 900, srs::SecurityGrid::kBestRounds};
    return g;
}

std::string
roundsKey(const srs::SecurityCell &cell)
{
    return cell.bestRounds ? "best" : "n" + std::to_string(cell.rounds);
}

/** A cell's campaign ran every requested trial and is reliable. */
bool
campaignOk(const srs::SecurityResult &r)
{
    return r.mc.iterations == kSecurityTrials && r.mc.reliable;
}

RunOutcome
securityWorkload(const RunOptions &o, std::uint64_t seed)
{
    const std::size_t threads = o.threads;
    const std::vector<srs::SecurityCell> cells = securityGrid().expand();
    const double trials =
        static_cast<double>(cells.size() * kSecurityTrials);
    RunOutcome out;

    if (!o.trace) {
        // Set-up: the grid, each cell's attack parameters and analytic
        // evaluation (the campaign's inputs), and the worker pool.
        const double setup = medianSetup([&] {
            for (const srs::SecurityCell &c : securityGrid().expand()) {
                const srs::JuggernautModel model(
                    srs::attackParamsFromAxes(c.axes, c.trh, c.swapRate));
                (void)(c.bestRounds ? model.bestRrs()
                                    : model.evaluateRrs(c.rounds));
            }
            srs::SecuritySweep sweep(seed, threads);
            sweep.setIterations(kSecurityTrials);
        });
        HostSpeedSeries series(threads);
        std::vector<std::string> reference;
        repeatFor(o.seconds, [&] {
            srs::SecuritySweep sweep(seed, threads);
            sweep.setIterations(kSecurityTrials);
            std::vector<srs::SecurityResult> res;
            series.measure([&] { res = sweep.run(cells); });
            const std::vector<std::string> rows = csvDataRows(csvOf(res));
            if (reference.empty())
                reference = rows;
            for (std::size_t i = 0; i < cells.size(); ++i)
                out.tally.check(campaignOk(res[i]) && rows[i] == reference[i]);
        });
        out.metrics["work_per_sec"] = trials / median(series.normalized());
        out.metrics["setup_s"] = setup / series.slowdown();
        out.metrics["peak_rss_mb"] = peakRssMb();
        out.notes.push_back(rateNote("mc_trials_per_sec", "trials/s", trials,
                                     "SecuritySweep::run", series));
        out.notes.push_back("digest " + std::string(kSecurity) + " "
                            + rowsDigest(reference));
        return out;
    }

    SpanLog log(std::string(kSecurity) + "-seed" + std::to_string(seed));
    const std::uint64_t root =
        log.open(std::string("workload:") + kSecurity, 0);
    std::uint64_t span = log.open("SecuritySweep::run", root);
    srs::SecuritySweep sweep(seed, threads);
    sweep.setIterations(kSecurityTrials);
    const std::vector<srs::SecurityResult> res = sweep.run(cells);
    log.close(span);
    const double wall = log.seconds(span);
    const std::string csv = csvOf(res);
    const std::vector<std::string> expected = csvDataRows(csv);

    // Each cell alone, on as many threads as the grid run had.
    std::vector<double> cellS(cells.size(), 0.0);
    std::vector<std::string> rows(cells.size());
    std::vector<srs::SecurityResult> single(cells.size());
    const std::uint64_t reexec = log.open("reexecute", root);
    {
        srs::ThreadPool pool(threads);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            pool.submit([&, i] {
                const std::uint64_t id =
                    log.open("SecuritySweep::run(cell)", reexec);
                try {
                    srs::SecuritySweep one(seed, 1);
                    one.setIterations(kSecurityTrials);
                    single[i] =
                        one.run(std::vector<srs::SecurityCell>{cells[i]})
                            .front();
                    rows[i] = srs::SecuritySweep::formatRow(i, single[i]);
                } catch (const srs::FatalError &err) {
                    std::fprintf(stderr, "perfbench: %s\n", err.what());
                }
                log.close(id);
                cellS[i] = log.seconds(id);
            });
        }
        pool.wait();
    }
    log.close(reexec);
    const double reexecWall = log.seconds(reexec);

    span = log.open("SecuritySweep::run(analytic)", root);
    srs::SecuritySweep analytic(seed, threads);
    analytic.setIterations(0);
    (void)analytic.run(cells);
    log.close(span);
    const double analyticS = log.seconds(span);
    log.close(root);

    LayerReport rep{out.metrics, {}};
    double cellSum = 0.0, iteratedS = 0.0, draws = 0.0, total = 0.0;
    double censored = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const srs::SecurityResult &r = res[i];
        out.tally.check(campaignOk(r) && campaignOk(single[i])
                        && i < expected.size() && rows[i] == expected[i]);
        cellSum += cellS[i];
        total += static_cast<double>(r.mc.iterations);
        censored += static_cast<double>(r.mc.censored);
        rep.set("security.cell_s." + roundsKey(cells[i]), cellS[i]);
        rep.set("model.p_break." + roundsKey(cells[i]), r.mc.pBreak);
        // MonteCarloAttack iterates epoch by epoch while the per-epoch
        // success probability exceeds 1 / epochLoopLimit (1e5).
        if (r.analytic.feasible && r.analytic.k > 0
            && r.analytic.pSuccess > 1.0 / 100000.0) {
            iteratedS += cellS[i];
            draws += std::round(
                r.mc.meanEpochs
                * static_cast<double>(r.mc.iterations - r.mc.censored));
        }
    }
    rep.set("security.wall_s", wall);
    rep.set("security.trials", total);
    rep.set("security.epoch_draws", draws);
    rep.ratio("security.ns_per_epoch_draw", iteratedS,
              "epoch-iterated cell_s sum", draws, "security.epoch_draws",
              1e9);
    rep.ratio("security.pool_efficiency", cellSum, "cell_s sum",
              static_cast<double>(threads) * wall,
              "threads x security.wall_s");
    rep.set("security.censored", censored);
    rep.set("security.analytic_s", analyticS);
    rep.ratio("tracing_overhead_pct", reexecWall - wall,
              "per-cell re-execution - SecuritySweep::run s", wall,
              "SecuritySweep::run s", 100.0);
    const std::vector<SelfTimeRow> tableRows =
        selfTimes(log.spans(), log.hots());
    out.notes = writeTraceFiles(o, log, tableRows, rep);
    out.notes.push_back("digest " + std::string(kSecurity) + " "
                        + rowsDigest(expected));
    return out;
}

} // namespace

// ------------------------------------------------------------ catalogue

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {kCell, kSweep, kSecurity};
    return names;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"work_per_sec", "1/s", "higher", "host"},
        {"setup_s", "s", "lower", "host"},
        {"peak_rss_mb", "MB", "lower", "host"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"trace.records", "count", "lower", "simulated"},
            {"trace.self_s", "s", "lower", "host"},
            {"trace.ns_per_record", "ns", "lower", "host"},
            {"system.construct_s", "s", "lower", "host"},
            {"system.run_s", "s", "lower", "host"},
            {"system.run_self_s", "s", "lower", "host"},
            {"system.dram_cmds", "count", "lower", "simulated"},
            {"system.ns_per_dram_cmd", "ns", "lower", "host"},
            {"cpu.retired_instrs", "count", "higher", "simulated"},
        };
        for (const char *name :
             {"activations", "reads_issued", "writes_issued", "row_hits",
              "row_conflicts", "refreshes", "forced_precharges",
              "idle_closes", "p2_skips"})
            d.push_back({std::string("memctrl.") + name, "count", "lower",
                         "simulated"});
        d.push_back({"memctrl.read_p50_cycles", "cycles", "lower", "simulated"});
        d.push_back({"memctrl.read_p99_cycles", "cycles", "lower", "simulated"});
        const std::vector<MetricDef> rest = {
            {"mitigation.calls", "count", "lower", "simulated"},
            {"mitigation.self_s", "s", "lower", "host"},
            {"mitigation.ns_per_call", "ns", "lower", "host"},
            {"mitigation.swaps", "count", "lower", "simulated"},
            {"mitigation.unswap_swaps", "count", "lower", "simulated"},
            {"mitigation.place_backs", "count", "lower", "simulated"},
            {"mitigation.latent_activations", "count", "lower", "simulated"},
            {"mitigation.max_row_acts", "count", "lower", "simulated"},
            {"cache.rows_pinned", "count", "lower", "simulated"},
            {"cache.pinned_absorbed", "count", "higher", "simulated"},
            {"sweep.runs", "count", "lower", "simulated"},
            {"sweep.wall_s", "s", "lower", "host"},
            {"sweep.run_s_sum", "s", "lower", "host"},
            {"sweep.critical_path_s", "s", "lower", "host"},
            {"sweep.pool_efficiency", "ratio", "higher", "host"},
            {"sweep.overhead_s", "s", "lower", "host"},
            {"orchestrator.wall_s", "s", "lower", "host"},
            {"orchestrator.overhead_s", "s", "lower", "host"},
            {"orchestrator.merge_s", "s", "lower", "host"},
            {"orchestrator.launches", "count", "lower", "host"},
            {"orchestrator.shard_imbalance", "ratio", "lower", "host"},
            {"security.wall_s", "s", "lower", "host"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        const char *keys[] = {"n0", "n300", "n600", "n900", "best"};
        for (const char *k : keys)
            d.push_back({std::string("security.cell_s.") + k, "s", "lower",
                         "host"});
        const std::vector<MetricDef> tail = {
            {"security.trials", "count", "higher", "simulated"},
            {"security.epoch_draws", "count", "lower", "simulated"},
            {"security.ns_per_epoch_draw", "ns", "lower", "host"},
            {"security.pool_efficiency", "ratio", "higher", "host"},
            {"security.censored", "count", "lower", "simulated"},
            {"security.analytic_s", "s", "lower", "host"},
            {"model.aggregate_ipc", "ipc", "higher", "simulated"},
            {"model.normalized_geomean", "ratio", "higher", "simulated"},
        };
        d.insert(d.end(), tail.begin(), tail.end());
        for (const char *k : keys)
            d.push_back({std::string("model.p_break.") + k, "prob", "lower",
                         "simulated"});
        d.push_back({"tracing_overhead_pct", "%", "lower", "host"});
        return d;
    }();
    return defs;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

RunOutcome
runBenchmark(const RunOptions &o)
{
    const auto seed = [&o](std::uint64_t fallback) {
        return o.seedGiven ? o.seed : fallback;
    };
    if (o.workload == kCell)
        return cellWorkload(o, seed(kSimSeed));
    if (o.workload == kSweep)
        return sweepWorkload(o, seed(kSimSeed));
    if (o.workload == kSecurity)
        return securityWorkload(o, seed(kSecuritySeed));
    srs::fatal("perfbench: unknown workload '", o.workload, "'");
}

} // namespace perfbench
