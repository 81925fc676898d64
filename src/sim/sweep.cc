#include "sim/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/thread_pool.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace srs
{

std::size_t
SweepGrid::innerCells() const
{
    return axesCount() * mitigations.size() * trhs.size()
           * swapRates.size();
}

std::vector<SweepCell>
SweepGrid::expand() const
{
    const std::vector<SystemAxes> axisList = axes();
    std::vector<SweepCell> cells;
    cells.reserve(workloads.size() * innerCells());
    for (const WorkloadSpec &spec : workloads) {
        for (const SystemAxes &a : axisList) {
            for (const MitigationKind m : mitigations) {
                for (const std::uint32_t trh : trhs) {
                    for (const std::uint32_t rate : swapRates) {
                        SweepCell cell;
                        cell.workload = spec;
                        cell.axes = a;
                        cell.mitigation = m;
                        cell.trh = trh;
                        cell.swapRate = rate;
                        cell.tracker = tracker;
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** Split one CSV line into its comma-separated fields. */
std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> fields;
    std::string::size_type start = 0;
    for (;;) {
        const auto comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

/** "0x%016llx" spelling shared by headers and error messages. */
std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The tag every journal header comment starts with. */
constexpr const char *kJournalHeaderTag = "# srs_sim sweep journal ";

/** How a journal header of this build's schema begins. */
std::string
journalSchemaTag()
{
    return std::string(kJournalHeaderTag) + "schema="
           + std::to_string(SweepRunner::kSchemaVersion) + " ";
}

/** The one message for a line this build's schema does not allow. */
std::string
schemaMismatch(const std::string &line)
{
    return "expected sweep CSV schema v"
           + std::to_string(SweepRunner::kSchemaVersion)
           + ", found: " + line;
}

} // namespace

std::uint64_t
SweepRunner::cellSeed(std::uint64_t base, const std::string &workloadLabel)
{
    return splitmix64(base ^ splitmix64(fnv1a(workloadLabel)));
}

std::uint64_t
SweepRunner::gridDigest(const std::vector<SweepCell> &cells,
                        std::uint64_t baseSeed)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string prefix = identityPrefix(
            i, cells[i],
            cellSeed(baseSeed, cells[i].workload.label()));
        for (const char c : prefix) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

std::string
SweepRunner::journalHeader(const std::vector<SweepCell> &cells,
                           std::uint64_t baseSeed)
{
    return journalSchemaTag() + "cells=" + std::to_string(cells.size())
           + " grid=" + hex64(gridDigest(cells, baseSeed))
           + " seed=" + hex64(baseSeed);
}

std::string
SweepRunner::checkLine(const std::string &line)
{
    if (line == csvHeader())
        return "";
    const std::vector<std::string> fields = splitFields(line);
    const auto nonEmpty = [](const std::string &f) { return !f.empty(); };
    if (fields.size() == kRowColumns
        && std::all_of(fields.begin(), fields.end(), nonEmpty)
        && fields[0].find_first_not_of("0123456789")
               == std::string::npos)
        return "";
    return schemaMismatch(line);
}

std::string
SweepRunner::checkRow(const std::string &line,
                      const std::vector<SweepCell> &cells,
                      std::uint64_t baseSeed, std::size_t &index)
{
    const std::string err = checkLine(line);
    if (!err.empty())
        return err;
    const std::string field = line.substr(0, line.find(','));
    const unsigned long long i = std::strtoull(field.c_str(), nullptr, 10);
    if (i >= cells.size()) {
        return "row index " + field + " is outside this "
               + std::to_string(cells.size()) + "-cell grid";
    }
    index = static_cast<std::size_t>(i);
    const std::string expected = identityPrefix(
        index, cells[index],
        cellSeed(baseSeed, cells[index].workload.label()));
    if (line.compare(0, expected.size(), expected) != 0) {
        return "row " + field + " does not match the identity of its "
               "cell (another grid or seed?)\n  row:      " + line
               + "\n  expected: " + expected + "...";
    }
    return "";
}

std::string
SweepRunner::checkJournalHeader(const std::string &line,
                                const std::string &expected)
{
    if (line.rfind(kJournalHeaderTag, 0) != 0 || line == expected)
        return "";
    if (line.rfind(journalSchemaTag(), 0) != 0)
        return schemaMismatch(line);
    return "journal header describes a different grid (cells, grid "
           "digest or seed)\n  found:    " + line
           + "\n  expected: " + expected;
}

std::string
SweepRunner::identityPrefix(std::size_t index, const SweepCell &cell,
                            std::uint64_t seed)
{
    return identityPrefix(index, cell.workload.label(),
                          mitigationKindName(cell.mitigation),
                          trackerKindName(cell.tracker), cell.trh,
                          cell.swapRate, cell.axes, seed);
}

std::string
SweepRunner::identityPrefix(std::size_t index, const std::string &label,
                            const std::string &mitigation,
                            const std::string &tracker, std::uint32_t trh,
                            std::uint32_t rate, const SystemAxes &axes,
                            std::uint64_t seed)
{
    // Assembled from strings (not one bounded snprintf) because a
    // per-core trace spec's label can be arbitrarily long.
    char numbers[64];
    std::snprintf(numbers, sizeof(numbers), ",%u,%u,", trh, rate);
    char seedField[32];
    std::snprintf(seedField, sizeof(seedField), "0x%016llx,",
                  static_cast<unsigned long long>(seed));
    std::string prefix = std::to_string(index);
    prefix += ',';
    prefix += label;
    prefix += ',';
    prefix += mitigation;
    prefix += ',';
    prefix += tracker;
    prefix += numbers;
    prefix += axes.field();
    prefix += ',';
    prefix += seedField;
    return prefix;
}

const char *
SweepRunner::csvHeader()
{
    return "index,workload_spec,mitigation,tracker,trh,rate,axes,"
           "seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,"
           "place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,"
           "p999_lat,lat_samples,iterations,censored,p_break,ci_lo,"
           "ci_hi";
}

SweepRunner::SweepRunner(const ExperimentConfig &exp, std::size_t threads)
    : exp_(exp), threads_(ThreadPool::resolveThreads(threads))
{
}

void
SweepRunner::setJournal(const std::string &path)
{
    journalPath_ = path;
}

void
SweepRunner::setResume(const std::string &path)
{
    resumePath_ = path;
}

std::size_t
SweepRunner::threadCount() const
{
    return threads_;
}

std::vector<SweepResult>
SweepRunner::run(const SweepGrid &grid)
{
    return run(grid.expand());
}

void
SweepRunner::loadResume(const std::vector<SweepCell> &cells,
                        std::vector<SweepResult> &results,
                        std::vector<char> &done) const
{
    std::ifstream in(resumePath_);
    if (!in)
        fatal("cannot open resume file '", resumePath_, "'");
    const std::string header = journalHeader(cells, exp_.seed);
    std::string line;
    while (std::getline(in, line)) {
        // An interrupted writer can leave a torn final line — every
        // complete row ends with '\n', so a line that ran into EOF
        // instead may be cut anywhere (even mid-digit of the last
        // field, where it still splits into 25 plausible fields).
        // Never trust it; the cell is simply recomputed.
        if (in.eof() || line.empty() || line == csvHeader())
            continue;
        std::size_t i = 0;
        const std::string err = line[0] == '#'
                                    ? checkJournalHeader(line, header)
                                    : checkRow(line, cells, exp_.seed, i);
        if (!err.empty())
            fatal("resume file '", resumePath_, "': ", err);
        if (line[0] == '#')
            continue;
        const std::vector<std::string> fields = splitFields(line);
        SweepResult &r = results[i];
        r.cell = cells[i];
        r.seed = cellSeed(exp_.seed, cells[i].workload.label());
        r.run.aggregateIpc = std::strtod(fields[8].c_str(), nullptr);
        r.baselineIpc = std::strtod(fields[9].c_str(), nullptr);
        r.normalized = std::strtod(fields[10].c_str(), nullptr);
        r.run.swaps = std::strtoull(fields[11].c_str(), nullptr, 10);
        r.run.unswapSwaps =
            std::strtoull(fields[12].c_str(), nullptr, 10);
        r.run.placeBacks =
            std::strtoull(fields[13].c_str(), nullptr, 10);
        r.run.rowsPinned =
            std::strtoull(fields[14].c_str(), nullptr, 10);
        r.run.maxRowActivations =
            std::strtoull(fields[15].c_str(), nullptr, 10);
        r.run.p50Lat = std::strtoull(fields[16].c_str(), nullptr, 10);
        r.run.p99Lat = std::strtoull(fields[17].c_str(), nullptr, 10);
        r.run.p999Lat =
            std::strtoull(fields[18].c_str(), nullptr, 10);
        r.run.latSamples =
            std::strtoull(fields[19].c_str(), nullptr, 10);
        r.resumedRow = line;
        done[i] = 1;
    }
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepCell> &cells)
{
    // Check every cell's T_S and resolve every workload spec before
    // any simulation starts, so a zero swap rate, a typo'd profile
    // name or an unreadable trace file is a clean fatal() in the
    // calling thread, not a worker abort.  A label reused with a
    // different spec is rejected (the label keys both the trace seed
    // and the shared baseline), and each distinct trace file is
    // parsed exactly once, shared by every cell and core that
    // replays it.
    struct Workload
    {
        WorkloadSpec spec;
        const WorkloadProfile *single = nullptr;
        std::vector<WorkloadProfile> perCore;
        std::vector<SharedTraceRecords> traces;
    };
    std::vector<Workload> workloads;
    std::unordered_map<std::string, std::size_t> workloadIndex;
    std::unordered_map<std::string, SharedTraceRecords> traceCache;
    std::vector<std::size_t> keyOf(cells.size());
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const SweepCell &cell = cells[ci];
        checkSwapThreshold(cell.trh, cell.swapRate);
        const std::string label = cell.workload.label();
        const auto it = workloadIndex.find(label);
        if (it != workloadIndex.end()) {
            if (workloads[it->second].spec != cell.workload) {
                fatal("sweep cell ", ci, ": label '", label,
                      "' reused with a different workload spec");
            }
            keyOf[ci] = it->second;
            continue;
        }
        Workload w;
        w.spec = cell.workload;
        switch (cell.workload.kind) {
          case WorkloadKind::Synthetic:
            w.single = &profileByName(cell.workload.name);
            break;
          case WorkloadKind::Mix:
            if (cell.workload.mixProfiles.size() != exp_.numCores) {
                fatal("sweep cell ", ci, " ('", label, "'): ",
                      cell.workload.mixProfiles.size(),
                      " per-core profiles but the experiment has ",
                      exp_.numCores, " cores");
            }
            for (const std::string &name : cell.workload.mixProfiles)
                w.perCore.push_back(profileByName(name));
            break;
          case WorkloadKind::TraceFile:
            if (cell.workload.tracePaths.size() != 1
                && cell.workload.tracePaths.size() != exp_.numCores) {
                fatal("sweep cell ", ci, " ('", label, "'): ",
                      cell.workload.tracePaths.size(),
                      " trace paths but the experiment has ",
                      exp_.numCores, " cores (want 1 shared path or "
                      "one per core)");
            }
            for (const std::string &path : cell.workload.tracePaths) {
                auto cached = traceCache.find(path);
                if (cached == traceCache.end()) {
                    cached = traceCache
                                 .emplace(path, loadTraceRecords(path))
                                 .first;
                }
                w.traces.push_back(cached->second);
            }
            break;
          case WorkloadKind::Generator:
            // Nothing to preload; the spec itself drives the trace.
            // Geometry bounds are checked at GeneratorTrace
            // construction, against the cell's actual machine.
            break;
        }
        keyOf[ci] = workloads.size();
        workloadIndex.emplace(label, workloads.size());
        workloads.push_back(std::move(w));
    }

    std::vector<SweepResult> results(cells.size());
    std::vector<char> done(cells.size(), 0);
    if (!resumePath_.empty())
        loadResume(cells, results, done);

    // The journal is rewritten each run: resumed rows first, so the
    // file is a complete checkpoint even after repeated interruptions.
    std::ofstream journal;
    std::mutex journalMutex;
    if (!journalPath_.empty()) {
        journal.open(journalPath_, std::ios::trunc);
        if (!journal)
            fatal("cannot open journal '", journalPath_,
                  "' for writing");
        journal << journalHeader(cells, exp_.seed) << '\n';
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (done[i])
                journal << results[i].resumedRow << '\n';
        }
        if (!journal.flush())
            fatal("error writing resumed rows to journal '",
                  journalPath_, "'");
    }
    const auto journalAppend = [&](std::size_t i) {
        if (!journal.is_open())
            return;
        const std::string row = formatRow(i, results[i]);
        std::lock_guard<std::mutex> lock(journalMutex);
        journal << row << '\n';
        if (!journal.flush())
            fatal("error appending to journal '", journalPath_, "'");
    };

    // One simulation of workload @p w (baseline or protected).
    const auto simulate = [this](const Workload &w,
                                 const SystemConfig &cfg,
                                 const ExperimentConfig &exp) {
        switch (w.spec.kind) {
          case WorkloadKind::Synthetic:
            return runWorkload(cfg, *w.single, exp);
          case WorkloadKind::Mix:
            return runWorkloadMix(cfg, w.perCore, exp);
          case WorkloadKind::TraceFile:
            return runWorkloadTrace(cfg, w.traces, exp);
          case WorkloadKind::Generator:
            return runWorkloadGenerator(cfg, w.spec.generator, exp);
        }
        fatal("unreachable workload kind");
    };

    ThreadPool pool(threads_);

    // A FatalError escaping a worker would std::terminate the whole
    // process, so jobs trap it; the first message (in cell order) is
    // re-raised on the calling thread after the phase completes.
    std::mutex errorMutex;
    std::size_t errorAt = cells.size() + workloads.size();
    std::string errorMsg;
    const auto record = [&](std::size_t at, const std::string &msg) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (at < errorAt) {
            errorAt = at;
            errorMsg = msg;
        }
    };
    const auto rethrow = [&] {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!errorMsg.empty())
            throw FatalError(errorMsg);
    };

    // Baselines are shared per distinct (workload, system axes)
    // pair: the axes overlay changes the unprotected machine too, so
    // an open-page cell normalizes against an open-page baseline.
    struct BaselineGroup
    {
        std::size_t workload;
        SystemAxes axes;
    };
    std::vector<BaselineGroup> groups;
    std::map<std::pair<std::size_t, std::string>, std::size_t>
        groupIndex;
    std::vector<std::size_t> groupOf(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto key =
            std::make_pair(keyOf[i], cells[i].axes.field());
        const auto it = groupIndex.find(key);
        if (it != groupIndex.end()) {
            groupOf[i] = it->second;
            continue;
        }
        groupOf[i] = groups.size();
        groupIndex.emplace(key, groups.size());
        groups.push_back(BaselineGroup{keyOf[i], cells[i].axes});
    }

    // Phase 1: one unprotected baseline per (workload, axes) group
    // that still has pending cells.  The baseline ignores trh/rate
    // (no mitigation is wired), so any values work.
    std::vector<char> groupNeeded(groups.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!done[i])
            groupNeeded[groupOf[i]] = 1;
    }
    std::vector<RunResult> baseline(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!groupNeeded[i])
            continue;
        pool.submit([this, &workloads, &groups, &baseline, &simulate,
                     &record, i] {
            try {
                const Workload &w = workloads[groups[i].workload];
                ExperimentConfig exp = exp_;
                exp.seed = cellSeed(exp_.seed, w.spec.label());
                const SystemConfig cfg = makeSystemConfig(
                    exp, MitigationKind::None, 4800, 6,
                    TrackerKind::MisraGries, groups[i].axes);
                baseline[i] = simulate(w, cfg, exp);
            } catch (const FatalError &err) {
                record(i, err.what());
            }
        });
    }
    pool.wait();
    rethrow();

    // Fill one finished cell: identity, baseline normalization, and
    // one journal line.  Safe concurrently — each call touches only
    // its own slot and the journal lock serializes the append.
    const auto finishCell = [&](std::size_t i) {
        SweepResult &r = results[i];
        r.cell = cells[i];
        r.seed = cellSeed(exp_.seed, cells[i].workload.label());
        const RunResult &base = baseline[groupOf[i]];
        if (cells[i].mitigation == MitigationKind::None)
            r.run = base;
        r.baselineIpc = base.aggregateIpc;
        r.normalized = r.baselineIpc > 0.0
                           ? r.run.aggregateIpc / r.baselineIpc
                           : 1.0;
        journalAppend(i);
    };

    // Unprotected cells replay the phase-1 baseline bit-for-bit
    // (same seed, same config), so reuse it instead of re-running.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!done[i] && cells[i].mitigation == MitigationKind::None)
            finishCell(i);
    }

    // Phase 2: every pending cell, each writing its pre-assigned slot.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (done[i] || cells[i].mitigation == MitigationKind::None)
            continue;
        pool.submit([this, &cells, &workloads, &keyOf, &results,
                     &simulate, &finishCell, &record, i] {
            try {
                const SweepCell &cell = cells[i];
                const Workload &w = workloads[keyOf[i]];
                ExperimentConfig exp = exp_;
                exp.seed = cellSeed(exp_.seed, cell.workload.label());
                const SystemConfig cfg = makeSystemConfig(
                    exp, cell.mitigation, cell.trh, cell.swapRate,
                    cell.tracker, cell.axes);
                results[i].run = simulate(w, cfg, exp);
                finishCell(i);
            } catch (const FatalError &err) {
                record(i, err.what());
            }
        });
    }
    pool.wait();
    rethrow();
    return results;
}

std::string
SweepRunner::formatRow(std::size_t index, const SweepResult &r)
{
    // Performance cells have no Monte-Carlo campaign behind them;
    // the v6 confidence columns are fixed zeros (security cells —
    // security/security_sweep.hh — fill them in).
    char payload[256];
    std::snprintf(
        payload, sizeof(payload),
        "%.6f,%.6f,%.6f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,0,0,0,0,0",
        r.run.aggregateIpc, r.baselineIpc, r.normalized,
        static_cast<unsigned long long>(r.run.swaps),
        static_cast<unsigned long long>(r.run.unswapSwaps),
        static_cast<unsigned long long>(r.run.placeBacks),
        static_cast<unsigned long long>(r.run.rowsPinned),
        static_cast<unsigned long long>(r.run.maxRowActivations),
        static_cast<unsigned long long>(r.run.p50Lat),
        static_cast<unsigned long long>(r.run.p99Lat),
        static_cast<unsigned long long>(r.run.p999Lat),
        static_cast<unsigned long long>(r.run.latSamples));
    return identityPrefix(index, r.cell, r.seed) + payload;
}

void
SweepRunner::writeCsv(std::ostream &os,
                      const std::vector<SweepResult> &results)
{
    os << csvHeader() << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        if (r.resumedRow.empty())
            os << formatRow(i, r) << '\n';
        else
            os << r.resumedRow << '\n';
    }
}

void
readGridKeys(const Options &opts, SweepGrid &grid, ExperimentConfig &exp)
{
    grid.workloads = splitSpecList(opts.getString("workloads", "gcc"),
                                   exp.numCores);
    for (const std::string &m :
         splitList(opts.getString("mitigations", "scale-srs")))
        grid.mitigations.push_back(mitigationKindFromName(m));
    grid.readLists(opts);
    grid.trhs =
        splitUint32List(opts.getString("trh", "1200"), opts.name("trh"));
    grid.swapRates =
        splitUint32List(opts.getString("rates", "3"), opts.name("rates"));
    grid.tracker =
        trackerKindFromName(opts.getString("tracker", "misra-gries"));
    exp.cycles = opts.getUint("cycles", 1'500'000);
    exp.epochLen = opts.getUint("epoch", exp.cycles / 2);
    exp.seed = opts.getSeed("seed", exp.seed);
}

std::vector<std::pair<std::string, std::string>>
spellGridKeys(const SweepGrid &grid, const ExperimentConfig &exp)
{
    std::vector<std::string> mitigations;
    for (const MitigationKind kind : grid.mitigations)
        mitigations.push_back(mitigationKindName(kind));
    std::vector<std::pair<std::string, std::string>> keys = {
        {"workloads", joinSpecList(grid.workloads)},
        {"mitigations", joinList(mitigations)},
    };
    for (auto &list : grid.spellLists())
        keys.push_back(std::move(list));
    keys.insert(keys.end(),
                {{"trh", joinUint32List(grid.trhs)},
                 {"rates", joinUint32List(grid.swapRates)},
                 {"tracker", trackerKindName(grid.tracker)},
                 {"cycles", std::to_string(exp.cycles)},
                 {"epoch", std::to_string(exp.epochLen)},
                 {"seed", std::to_string(exp.seed)}});
    return keys;
}

std::string
joinSpecList(const std::vector<WorkloadSpec> &specs)
{
    std::vector<std::string> labels;
    for (const WorkloadSpec &spec : specs)
        labels.push_back(spec.label());
    return joinList(labels);
}

std::vector<WorkloadSpec>
splitSpecList(const std::string &value, std::uint32_t cores)
{
    std::vector<WorkloadSpec> specs;
    for (const std::string &item : splitList(value))
        specs.push_back(WorkloadSpec::parse(item, cores));
    return specs;
}

MitigationKind
mitigationKindFromName(const std::string &name)
{
    if (name == "none" || name == "baseline")
        return MitigationKind::None;
    if (name == "rrs")
        return MitigationKind::Rrs;
    if (name == "rrs-no-unswap")
        return MitigationKind::RrsNoUnswap;
    if (name == "srs")
        return MitigationKind::Srs;
    if (name == "scale-srs")
        return MitigationKind::ScaleSrs;
    if (name == "blockhammer")
        return MitigationKind::BlockHammer;
    if (name == "aqua")
        return MitigationKind::Aqua;
    fatal("unknown mitigation '", name,
          "' (want none|rrs|rrs-no-unswap|srs|scale-srs|blockhammer|"
          "aqua)");
}

TrackerKind
trackerKindFromName(const std::string &name)
{
    if (name == "misra-gries")
        return TrackerKind::MisraGries;
    if (name == "hydra")
        return TrackerKind::Hydra;
    fatal("unknown tracker '", name, "' (want misra-gries|hydra)");
}

const char *
trackerKindName(TrackerKind kind)
{
    switch (kind) {
      case TrackerKind::MisraGries: return "misra-gries";
      case TrackerKind::Hydra:      return "hydra";
    }
    return "?";
}

} // namespace srs
