/**
 * @file
 * Correctness checks of the benchmark.  Every check is one attempted
 * operation; a broken check is a failed operation, never a crash.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/orchestrator.hh"

namespace perfbench
{

/** Attempted and failed operations. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; failed unless @p ok. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    void
    add(const Tally &other)
    {
        attempted += other.attempted;
        failed += other.failed;
    }
};

/** The data rows of a CSV text (header line dropped). */
std::vector<std::string> csvDataRows(const std::string &csv);

/**
 * One operation per expected row: failed when the actual row at the
 * same position is missing or differs by any byte.  Surplus actual
 * rows count as failed operations too.
 */
Tally compareRows(const std::vector<std::string> &expected,
                  const std::vector<std::string> &actual);

/**
 * Check the shard CSVs of @p manifest in @p dir against the
 * in-process rows @p expected, one operation per row.  The shards are
 * stitched with mergeShards(); when the merge rejects a shard, every
 * row of each shard that fails validateShardCsv() is failed and the
 * rows of the valid shards are compared past their index column.
 */
Tally checkShardDir(const srs::ShardManifest &manifest,
                    const std::string &dir,
                    const std::vector<std::string> &expected);

/** Field-by-field equality of two runs (histogram included). */
bool sameRunResult(const srs::RunResult &a, const srs::RunResult &b);

/** 64-bit FNV-1a digest, for printing simulated outputs compactly. */
std::uint64_t fnv1a(const std::string &bytes);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
