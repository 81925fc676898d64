#include "sim/orchestrator.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/subprocess.hh"
#include "common/thread_pool.hh"
#include "sim/system.hh"

namespace srs
{

namespace
{

/**
 * Longest wait for a running shard to exit, in milliseconds; the
 * supervisor then polls every running shard again.
 */
constexpr std::uint64_t kPollMs = 200;

std::string
shardKey(std::size_t index, const char *field)
{
    return "shard" + std::to_string(index) + "." + field;
}

/**
 * Read one shard CSV, validate it against @p shard / @p exp, and
 * append its data rows (shard-local numbering, no newlines) to
 * @p rows when given.  Returns an empty string on success, else the
 * reason the shard must be rejected.
 */
std::string
loadShardRows(const ShardSpec &shard, const ExperimentConfig &exp,
              const std::string &path, std::vector<std::string> *rows)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open shard CSV '" + path + "'";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    if (text.empty())
        return "shard CSV '" + path + "' is empty";
    if (text.back() != '\n') {
        return "shard CSV '" + path
               + "' is torn: no final newline (writer died mid-row)";
    }

    std::vector<std::string> lines;
    std::string::size_type start = 0;
    while (start < text.size()) {
        const auto nl = text.find('\n', start);
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    const std::string headerErr = SweepRunner::checkLine(lines.front());
    if (!headerErr.empty())
        return "shard CSV '" + path + "': " + headerErr;
    if (lines.front() != SweepRunner::csvHeader())
        return "shard CSV '" + path + "' does not start with the sweep "
               "CSV header";

    // Row k of a shard CSV is the shard's cell k.
    const std::vector<SweepCell> cells = shard.grid.expand();
    for (std::size_t k = 1; k < lines.size(); ++k) {
        std::size_t index = 0;
        std::string err =
            SweepRunner::checkRow(lines[k], cells, exp.seed, index);
        if (err.empty() && index != k - 1) {
            err = "row " + std::to_string(k - 1) + " holds cell "
                  + std::to_string(index) + " (rows must follow the "
                  "shard's cell order)";
        }
        if (!err.empty())
            return "shard CSV '" + path + "': " + err;
        if (rows)
            rows->push_back(lines[k]);
    }
    if (lines.size() - 1 != cells.size()) {
        return "shard CSV '" + path + "' has "
               + std::to_string(lines.size() - 1) + " data rows, "
               "manifest expects " + std::to_string(cells.size());
    }
    return "";
}

} // namespace

std::size_t
ShardManifest::totalCells() const
{
    std::size_t total = 0;
    for (const ShardSpec &shard : shards)
        total += shard.cells;
    return total;
}

ShardManifest
planShards(const SweepGrid &grid, const ExperimentConfig &exp,
           std::size_t shardCount)
{
    const std::size_t outer = grid.workloads.size();
    const std::size_t inner = grid.innerCells();
    if (outer == 0 || inner == 0) {
        fatal("cannot shard an empty sweep grid: need at least one "
              "workload, page policy, mitigation, trh and rate");
    }
    if (shardCount == 0)
        fatal("--shards must be at least 1");
    for (const std::uint32_t trh : grid.trhs) {
        for (const std::uint32_t rate : grid.swapRates)
            checkSwapThreshold(trh, rate);
    }
    const std::size_t count = std::min(shardCount, outer);

    ShardManifest manifest;
    manifest.grid = grid;
    manifest.exp = exp;
    for (std::size_t k = 0; k < count; ++k) {
        // Balanced contiguous partition of the workloads: shard k
        // covers [k*outer/count, (k+1)*outer/count).
        const std::size_t begin = k * outer / count;
        const std::size_t end = (k + 1) * outer / count;
        ShardSpec shard;
        shard.grid = grid;
        shard.grid.workloads.assign(grid.workloads.begin() + begin,
                                    grid.workloads.begin() + end);
        shard.offset = begin * inner;
        shard.cells = (end - begin) * inner;
        shard.csv = "shard" + std::to_string(k) + ".csv";
        manifest.shards.push_back(std::move(shard));
    }
    return manifest;
}

void
writeManifest(const ShardManifest &manifest, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        fatal("cannot open manifest '", path, "' for writing");
    out << serializeManifest(manifest);
    if (!out.flush())
        fatal("error writing manifest '", path, "'");
}

std::string
serializeManifest(const ShardManifest &manifest)
{
    std::ostringstream out;
    out << "# srs_sim shard manifest (docs/sweep-format.md)\n"
        << "version=" << SweepRunner::kSchemaVersion << '\n';
    for (const auto &[key, value] :
         spellGridKeys(manifest.grid, manifest.exp))
        out << key << '=' << value << '\n';
    out << "shards=" << manifest.shards.size() << '\n';
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        const ShardSpec &shard = manifest.shards[k];
        out << shardKey(k, "workloads") << '='
            << joinSpecList(shard.grid.workloads) << '\n'
            << shardKey(k, "csv") << '=' << shard.csv << '\n';
    }
    return out.str();
}

ShardManifest
loadManifest(const std::string &path)
{
    const Options opts = Options::fromFile(path);
    const std::string version = opts.getString("version", "");
    if (version != std::to_string(SweepRunner::kSchemaVersion)) {
        fatal("manifest '", path, "': expected version ",
              SweepRunner::kSchemaVersion, ", found: version=", version);
    }

    ShardManifest manifest;
    SweepGrid &grid = manifest.grid;
    readGridKeys(opts, grid, manifest.exp);

    const std::uint64_t shardCount = opts.getUint("shards", 0);
    if (shardCount == 0)
        fatal("manifest '", path, "': no shards");

    // Each shard is a non-empty slice of the workloads; in order the
    // slices join into the full list, which fixes every offset.
    const std::size_t inner = grid.innerCells();
    std::vector<WorkloadSpec> joined;
    for (std::size_t k = 0; k < shardCount; ++k) {
        ShardSpec shard;
        shard.grid = grid;
        shard.grid.workloads = splitSpecList(
            opts.getString(shardKey(k, "workloads"), ""),
            manifest.exp.numCores);
        if (shard.grid.workloads.empty())
            fatal("manifest '", path, "': shard ", k, " is empty");
        shard.offset = joined.size() * inner;
        shard.cells = shard.grid.workloads.size() * inner;
        shard.csv = opts.getString(shardKey(k, "csv"),
                                   "shard" + std::to_string(k)
                                       + ".csv");
        joined.insert(joined.end(), shard.grid.workloads.begin(),
                      shard.grid.workloads.end());
        manifest.shards.push_back(std::move(shard));
    }
    if (joined != grid.workloads) {
        fatal("manifest '", path, "': the shard workload lists do not "
              "join, in order, into workloads=");
    }
    opts.rejectUnknown();
    return manifest;
}

std::string
validateShardCsv(const ShardSpec &shard, const ExperimentConfig &exp,
                 const std::string &path)
{
    return loadShardRows(shard, exp, path, nullptr);
}

void
mergeShards(const ShardManifest &manifest, const std::string &dir,
            std::ostream &out)
{
    std::vector<std::string> rows;
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        const ShardSpec &shard = manifest.shards[k];
        const std::string path =
            dir.empty() ? shard.csv : dir + "/" + shard.csv;
        const std::string err =
            loadShardRows(shard, manifest.exp, path, &rows);
        if (!err.empty())
            fatal("merge: shard ", k, ": ", err);
    }

    // The shards' rows in order are the grid's: each shard-local
    // index becomes the global cell index, and every byte after the
    // first comma passes through untouched.
    out << SweepRunner::csvHeader() << '\n';
    for (std::size_t i = 0; i < rows.size(); ++i)
        out << i << rows[i].substr(rows[i].find(',')) << '\n';
    if (!out.flush())
        fatal("merge: error writing merged CSV");
}

Orchestrator::Orchestrator(ShardManifest manifest, Config config)
    : manifest_(std::move(manifest)), config_(std::move(config))
{
    if (config_.simPath.empty())
        fatal("orchestrator: no srs_sim binary path configured");
    if (config_.dir.empty())
        fatal("orchestrator: no shard directory configured");
}

std::vector<std::string>
Orchestrator::shardCommand(std::size_t index) const
{
    const ShardSpec &shard = manifest_.shards[index];
    const std::string csv = config_.dir + "/" + shard.csv;

    std::vector<std::string> cmd = {config_.simPath, "sweep"};
    for (const auto &[key, value] : spellGridKeys(shard.grid, manifest_.exp))
        cmd.push_back("--" + key + "=" + value);
    cmd.push_back("--threads=" + std::to_string(config_.shardThreads));
    cmd.push_back("--out=" + csv);
    cmd.push_back("--journal=" + csv + ".journal");
    // A previous attempt's checkpoint seeds a resume, so a killed
    // shard never recomputes its finished cells: the journal when it
    // exists, else the CSV (whole, short or torn).
    for (const std::string &checkpoint : {csv + ".journal", csv}) {
        if (std::filesystem::exists(checkpoint)) {
            cmd.push_back("--resume=" + checkpoint);
            break;
        }
    }
    return cmd;
}

void
prepareShardDir(const ShardManifest &manifest, const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create shard directory '", dir, "': ",
              ec.message());
    }

    // The manifest is the shard directory's identity: reusing a
    // directory that belongs to a *different* orchestration must be
    // an error, not a silent mix of incompatible checkpoints.
    const std::string manifestPath = dir + "/manifest";
    const std::string serialized = serializeManifest(manifest);
    if (std::filesystem::exists(manifestPath)) {
        std::ifstream in(manifestPath, std::ios::binary);
        std::ostringstream existing;
        existing << in.rdbuf();
        if (existing.str() != serialized) {
            fatal("'", manifestPath, "' describes a different "
                  "orchestration (grid, seed or shard count "
                  "changed); use a fresh --dir");
        }
    } else {
        writeManifest(manifest, manifestPath);
    }
}

std::string
lastLogLine(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::string line, last;
    while (std::getline(in, line)) {
        while (!line.empty()
               && (line.back() == '\r' || line.back() == ' '
                   || line.back() == '\t'))
            line.pop_back();
        if (line.empty())
            continue;
        // An indented line continues the message above it.
        if (line.front() == ' ' && !last.empty())
            last += '\n' + line;
        else
            last = line;
    }
    return last;
}

std::string
shellQuote(const std::string &s)
{
    const bool plain =
        !s.empty()
        && std::all_of(s.begin(), s.end(), [](const char c) {
               return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                      || (c >= '0' && c <= '9')
                      || std::string_view("_@%+=:,./-").find(c)
                             != std::string_view::npos;
           });
    if (plain)
        return s;
    // 'foo'\''bar': close the quote, emit a literal ', reopen.
    std::string out = "'";
    for (const char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    return out + '\'';
}

void
writeShardSummary(std::ostream &out, const ShardManifest &manifest,
                  const std::vector<ShardRunState> &states,
                  const std::string &dir)
{
    out << "shard summary:\n"
           "  shard     cells  launches  restarts  status  log\n";
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        const ShardRunState state =
            k < states.size() ? states[k] : ShardRunState{};
        // A completed shard that never needed a launch this run was
        // picked up from a previous attempt's validated CSV.
        const char *status = state.done
                                 ? (state.launches == 0 ? "cached"
                                                        : "done")
                                 : "FAILED";
        char row[64];
        std::snprintf(row, sizeof(row), "  %5zu  %8zu  %8zu  %8zu  ",
                      k, manifest.shards[k].cells, state.launches,
                      state.restarts);
        out << row << status << (std::strlen(status) < 6 ? "    " : "  ")
            << dir << "/shard" << k << ".log\n";
        if (!state.lastError.empty())
            out << "         last error: " << state.lastError << '\n';
    }
    out.flush();
}

void
Orchestrator::writePlan(std::ostream &out)
{
    prepareShardDir(manifest_, config_.dir);
    const std::string manifestPath = config_.dir + "/manifest";
    out << "# manifest: " << manifestPath << '\n'
        << "# run each shard (any machine, same binary), collect "
           "the CSVs next to the manifest,\n"
        << "# then: " << shellQuote(config_.simPath) << " merge "
        << shellQuote("--manifest=" + manifestPath) << '\n';
    for (std::size_t k = 0; k < manifest_.shards.size(); ++k) {
        const std::vector<std::string> cmd = shardCommand(k);
        for (std::size_t a = 0; a < cmd.size(); ++a)
            out << (a > 0 ? " " : "") << shellQuote(cmd[a]);
        out << '\n';
    }
    if (!out.flush())
        fatal("orchestrator: error writing the shard plan");
}

void
Orchestrator::run(std::ostream &mergedOut)
{
    prepareShardDir(manifest_, config_.dir);
    const std::size_t jobs = ThreadPool::resolveThreads(config_.jobs);
    const std::size_t n = manifest_.shards.size();
    states_.assign(n, ShardRunState{});
    launches_ = 0;
    skipped_ = 0;
    // Each running shard's child pid; -1 while it is not running.
    std::vector<long> pids(n, -1);

    const auto localPath = [&](const std::string &name) {
        return config_.dir + "/" + name;
    };
    const auto logPath = [&](std::size_t k) {
        return localPath("shard" + std::to_string(k) + ".log");
    };

    // Reap every in-flight child before a fatal() — orphans would
    // keep writing into the shard directory and race a re-run.
    // Their journals survive, so no completed cell is lost.
    const auto teardown = [&] {
        for (long &pid : pids) {
            if (pid >= 0) {
                killProcess(pid);
                waitProcess(pid);
                pid = -1;
            }
        }
    };

    // Shards whose CSVs already validate (a previous run finished
    // them) are never launched.
    std::deque<std::size_t> pending;
    for (std::size_t k = 0; k < n; ++k) {
        const ShardSpec &shard = manifest_.shards[k];
        if (!validateShardCsv(shard, manifest_.exp, localPath(shard.csv))
                 .empty()) {
            pending.push_back(k);
            continue;
        }
        states_[k].done = true;
        ++skipped_;
        std::fprintf(stderr,
                     "orchestrator: shard %zu already complete (%zu "
                     "cells)\n",
                     k, shard.cells);
    }

    const auto launch = [&](std::size_t k) {
        const std::vector<std::string> cmd = shardCommand(k);
        pids[k] = spawnProcess(cmd, logPath(k));
        ++launches_;
        ++states_[k].launches;
        std::fprintf(stderr,
                     "orchestrator: shard %zu of %zu launched (pid "
                     "%ld, %zu cells%s)\n",
                     k, n, pids[k], manifest_.shards[k].cells,
                     cmd.back().starts_with("--resume=") ? ", resumed"
                                                         : "");
    };

    // A failed shard goes back in the queue and resumes from its
    // journal; fatal() (with the other children torn down and the
    // child's last words) once its retries run out.  A journal the
    // shard cannot resume from (another grid's, a stale schema) fails
    // every relaunch, and its last log line names it.
    const auto handleFailure = [&](std::size_t k,
                                   const std::string &err) {
        states_[k].lastError = err;
        if (states_[k].launches > config_.retries) {
            teardown();
            const std::string tail = lastLogLine(logPath(k));
            writeShardSummary(std::cerr, manifest_, states_,
                              config_.dir);
            fatal("orchestrator: shard ", k, " failed after ",
                  states_[k].launches, " attempt(s): ", err,
                  tail.empty()
                      ? ""
                      : "\n  shard's last log line: " + tail,
                  "\n  (see ", logPath(k), ")");
        }
        ++states_[k].restarts;
        std::fprintf(stderr,
                     "orchestrator: shard %zu failed (%s), relaunching "
                     "from its journal (attempt %zu/%zu)\n",
                     k, err.c_str(), states_[k].launches + 1,
                     config_.retries + 1);
        pending.push_back(k);
    };

    for (;;) {
        std::vector<long> running;
        for (const long pid : pids) {
            if (pid >= 0)
                running.push_back(pid);
        }
        while (!pending.empty() && running.size() < jobs) {
            launch(pending.front());
            running.push_back(pids[pending.front()]);
            pending.pop_front();
        }
        if (running.empty())
            break;

        // A shard's exit ends the wait early, so its job slot is
        // refilled at once instead of at the next poll.
        waitForExit(running, kPollMs);
        for (std::size_t k = 0; k < n; ++k) {
            int status = 0;
            if (pids[k] < 0 || !pollProcess(pids[k], status))
                continue;
            pids[k] = -1;
            const ShardSpec &shard = manifest_.shards[k];
            const std::string err =
                processExitedCleanly(status)
                    ? validateShardCsv(shard, manifest_.exp,
                                       localPath(shard.csv))
                    : describeProcessExit(status);
            if (!err.empty()) {
                handleFailure(k, err);
                continue;
            }
            states_[k].done = true;
            std::fprintf(stderr, "orchestrator: shard %zu done\n", k);
        }
    }

    writeShardSummary(std::cerr, manifest_, states_, config_.dir);
    mergeShards(manifest_, config_.dir, mergedOut);
}

} // namespace srs
