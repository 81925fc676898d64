#include "sim/progress.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace srs
{

namespace
{

/** "%.2f" / "%.1f" with "-1" for unknown (negative) values. */
std::string
fmtRate(double v)
{
    if (v < 0)
        return "-1";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

std::string
fmtSec(double v)
{
    if (v < 0)
        return "-1";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

std::string
fmtPct(std::size_t rows, std::size_t cells)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f",
                  cells > 0 ? 100.0 * static_cast<double>(rows)
                                  / static_cast<double>(cells)
                            : 0.0);
    return buf;
}

} // namespace

JournalScan
scanShardJournal(const std::string &path,
                 const std::vector<SweepCell> &cells,
                 std::uint64_t baseSeed)
{
    JournalScan scan;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return scan;
    scan.exists = true;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::string header = SweepRunner::journalHeader(cells, baseSeed);

    std::string::size_type start = 0;
    while (start < text.size()) {
        const auto nl = text.find('\n', start);
        if (nl == std::string::npos)
            break; // torn final line: the writer died mid-row
        const std::string line = text.substr(start, nl - start);
        start = nl + 1;
        if (line.empty() || line == SweepRunner::csvHeader())
            continue;
        std::size_t index = 0;
        scan.error =
            line[0] == '#'
                ? SweepRunner::checkJournalHeader(line, header)
                : SweepRunner::checkRow(line, cells, baseSeed, index);
        if (!scan.error.empty())
            return scan;
        if (line[0] != '#')
            ++scan.rows;
    }
    // A resumed journal re-records completed rows first; never
    // report more progress than the shard has cells.
    scan.rows = std::min(scan.rows, cells.size());
    return scan;
}

const char *
shardStateName(ShardState state)
{
    switch (state) {
      case ShardState::Pending: return "pending";
      case ShardState::Running: return "running";
      case ShardState::Done:    return "done";
    }
    return "?";
}

ProgressClock::ProgressClock(std::size_t shardCount)
    : tracks_(shardCount)
{
}

void
ProgressClock::sample(std::size_t shard, std::size_t rows,
                      double nowSec)
{
    if (shard >= tracks_.size())
        return;
    Track &t = tracks_[shard];
    if (!t.seeded) {
        t.seeded = true;
        t.firstRows = t.lastRows = rows;
        t.firstSec = t.lastSec = nowSec;
        return;
    }
    if (rows > t.lastRows) {
        t.lastRows = rows;
        t.lastSec = nowSec;
    }
    if (rows < t.firstRows) {
        // A restart rewrote the journal shorter (different resume
        // point); restart the measurement instead of reporting a
        // negative rate.
        t.firstRows = t.lastRows = rows;
        t.firstSec = t.lastSec = nowSec;
    }
}

double
ProgressClock::rowsPerSec(std::size_t shard) const
{
    if (shard >= tracks_.size())
        return -1.0;
    const Track &t = tracks_[shard];
    if (!t.seeded || t.lastRows <= t.firstRows
        || t.lastSec <= t.firstSec)
        return -1.0;
    return static_cast<double>(t.lastRows - t.firstRows)
           / (t.lastSec - t.firstSec);
}

double
ProgressClock::etaSec(std::size_t shard, std::size_t cells) const
{
    if (shard >= tracks_.size())
        return -1.0;
    const Track &t = tracks_[shard];
    if (t.seeded && t.lastRows >= cells)
        return 0.0;
    const double rate = rowsPerSec(shard);
    if (rate <= 0)
        return -1.0;
    return static_cast<double>(cells - t.lastRows) / rate;
}

void
writeStatusJson(std::ostream &os,
                const std::vector<ShardStatus> &shards)
{
    std::size_t pending = 0, running = 0, done = 0;
    std::size_t rows = 0, cells = 0;
    double fleetRate = 0.0;
    bool anyRate = false;
    for (const ShardStatus &s : shards) {
        os << "{\"type\":\"shard\",\"shard\":" << s.index
           << ",\"state\":\"" << shardStateName(s.state)
           << "\",\"rows\":" << s.rows << ",\"cells\":" << s.cells
           << ",\"pct\":" << fmtPct(s.rows, s.cells)
           << ",\"rows_per_sec\":" << fmtRate(s.rowsPerSec)
           << ",\"eta_sec\":" << fmtSec(s.etaSec) << "}\n";
        switch (s.state) {
          case ShardState::Pending: ++pending; break;
          case ShardState::Running: ++running; break;
          case ShardState::Done:    ++done; break;
        }
        rows += s.rows;
        cells += s.cells;
        if (s.state != ShardState::Done && s.rowsPerSec > 0) {
            fleetRate += s.rowsPerSec;
            anyRate = true;
        }
    }
    double fleetEta = -1.0;
    if (rows >= cells)
        fleetEta = 0.0;
    else if (anyRate && fleetRate > 0)
        fleetEta = static_cast<double>(cells - rows) / fleetRate;
    os << "{\"type\":\"fleet\",\"shards\":" << shards.size()
       << ",\"pending\":" << pending << ",\"running\":" << running
       << ",\"done\":" << done << ",\"rows\":" << rows
       << ",\"cells\":" << cells << ",\"pct\":" << fmtPct(rows, cells)
       << ",\"rows_per_sec\":"
       << (anyRate ? fmtRate(fleetRate) : "-1") << ",\"eta_sec\":"
       << fmtSec(fleetEta) << "}\n";
    os.flush();
}

void
writeStatusTable(std::ostream &os,
                 const std::vector<ShardStatus> &shards)
{
    os << "shard  state     rows/cells     pct  rows/s       eta\n";
    std::size_t rows = 0, cells = 0, done = 0;
    for (const ShardStatus &s : shards) {
        char head[64];
        std::snprintf(head, sizeof(head), "%5zu  %-7s", s.index,
                      shardStateName(s.state));
        char mid[80];
        std::snprintf(mid, sizeof(mid), "  %5zu/%-5zu  %5s%%",
                      s.rows, s.cells,
                      fmtPct(s.rows, s.cells).c_str());
        os << head << mid << "  " << (s.rowsPerSec < 0
                                          ? std::string("     -")
                                          : fmtRate(s.rowsPerSec))
           << "  " << (s.etaSec < 0 ? std::string("       -")
                                    : fmtSec(s.etaSec) + "s")
           << '\n';
        rows += s.rows;
        cells += s.cells;
        done += s.state == ShardState::Done ? 1 : 0;
    }
    os << "fleet: " << done << "/" << shards.size() << " shards, "
       << rows << "/" << cells << " rows (" << fmtPct(rows, cells)
       << "%)\n";
    os.flush();
}

bool
fleetDone(const std::vector<ShardStatus> &shards)
{
    for (const ShardStatus &s : shards) {
        if (s.state != ShardState::Done)
            return false;
    }
    return true;
}

std::vector<ShardStatus>
snapshotFromJournals(const ShardManifest &manifest,
                     const std::string &dir)
{
    std::vector<ShardStatus> statuses;
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        const ShardSpec &shard = manifest.shards[k];
        const std::string journal =
            dir + "/" + shard.csv + ".journal";
        const JournalScan scan = scanShardJournal(
            journal, shard.grid.expand(), manifest.exp.seed);
        if (!scan.error.empty()) {
            fatal("shard ", k, " journal '", journal, "': ",
                  scan.error);
        }
        ShardStatus status;
        status.index = k;
        status.rows = scan.rows;
        status.cells = shard.cells;
        if (scan.rows >= shard.cells) {
            status.state = ShardState::Done;
            status.etaSec = 0.0;
        } else if (scan.exists) {
            status.state = ShardState::Running;
        }
        statuses.push_back(std::move(status));
    }
    return statuses;
}

} // namespace srs
