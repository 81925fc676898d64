#include "checks.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace perfbench
{

namespace
{

std::vector<std::string>
lines(std::istream &in)
{
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** A row past its index column (the bytes the merge must not touch). */
std::string
pastIndex(const std::string &row)
{
    const std::size_t comma = row.find(',');
    return comma == std::string::npos ? row : row.substr(comma);
}

} // namespace

std::vector<std::string>
csvDataRows(const std::string &csv)
{
    std::istringstream in(csv);
    std::vector<std::string> rows = lines(in);
    if (!rows.empty())
        rows.erase(rows.begin());
    return rows;
}

Tally
compareRows(const std::vector<std::string> &expected,
            const std::vector<std::string> &actual)
{
    Tally t;
    for (std::size_t i = 0; i < expected.size(); ++i)
        t.check(i < actual.size() && actual[i] == expected[i]);
    for (std::size_t i = expected.size(); i < actual.size(); ++i)
        t.check(false);
    return t;
}

Tally
checkShardDir(const srs::ShardManifest &manifest, const std::string &dir,
              const std::vector<std::string> &expected)
{
    try {
        std::ostringstream merged;
        srs::mergeShards(manifest, dir, merged);
        return compareRows(expected, csvDataRows(merged.str()));
    } catch (const srs::FatalError &) {
        // Fall through to per-shard accounting below.
    }
    Tally t;
    for (const srs::ShardSpec &shard : manifest.shards) {
        const std::string path = dir + "/" + shard.csv;
        if (!srs::validateShardCsv(shard, manifest.exp, path).empty()) {
            for (std::size_t j = 0; j < shard.cells; ++j)
                t.check(false);
            continue;
        }
        std::ifstream in(path);
        std::vector<std::string> rows = lines(in);
        rows.erase(rows.begin());
        for (std::size_t j = 0; j < shard.cells; ++j) {
            const std::size_t g = shard.offset + j;
            t.check(g < expected.size()
                    && pastIndex(rows[j]) == pastIndex(expected[g]));
        }
    }
    return t;
}

bool
sameRunResult(const srs::RunResult &a, const srs::RunResult &b)
{
    return a.aggregateIpc == b.aggregateIpc && a.coreIpc == b.coreIpc
           && a.swaps == b.swaps && a.unswapSwaps == b.unswapSwaps
           && a.placeBacks == b.placeBacks
           && a.latentActivations == b.latentActivations
           && a.maxRowActivations == b.maxRowActivations
           && a.rowsPinned == b.rowsPinned && a.readLatency == b.readLatency
           && a.p50Lat == b.p50Lat && a.p99Lat == b.p99Lat
           && a.p999Lat == b.p999Lat && a.latSamples == b.latSamples;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace perfbench
