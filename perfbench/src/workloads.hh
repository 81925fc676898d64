/**
 * @file
 * The benchmark's workloads and metric catalogue.
 *
 * Every workload is a closed batch job driven from this process with
 * at most `threads` worker threads or shard processes.  An untimed
 * run (trace off) repeats the workload's timed call for the requested
 * number of seconds and reports medians; a traced run re-executes the
 * workload with spans around each layer's public entry points and
 * reports per-layer metrics.  Every time is host time; simulated
 * statistics are deterministic and only checked and reported.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hh"

namespace perfbench
{

/** One metric of BENCHMARK.json. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; ///< "higher" or "lower"
    std::string source; ///< "host" (measured) or "simulated" (exact)
};

const std::vector<std::string> &workloadNames();
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** What to run. */
struct RunOptions
{
    std::string workload;
    /** Workload seed; unset = the srs_sim CLI default of the layer. */
    std::uint64_t seed = 0;
    bool seedGiven = false;
    /** Measuring time of an untraced run. */
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory (shard dirs, span files). */
    std::string workDir;
    /** srs_sim binary the orchestrator forks for each shard. */
    std::string simPath;
    /** Worker threads / shard processes (nproc). */
    std::size_t threads = 1;
    /** Machine fingerprint line, copied into the traced-run table. */
    std::string fingerprint;
};

/** Outcome of one run. */
struct RunOutcome
{
    Tally tally;
    /** Metric name -> value (end-to-end or per-layer, by mode). */
    std::map<std::string, double> metrics;
    /** Lines printed before the result (digests, named rates). */
    std::vector<std::string> notes;
};

/** Run one workload; fatal() on an unknown workload name. */
RunOutcome runBenchmark(const RunOptions &opts);

/** Median of @p values (0 for none). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
