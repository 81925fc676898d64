/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.  All
 * multi-configuration benches run their grids through SweepRunner
 * (sim/sweep.hh), which owns the baseline runs and normalization.
 *
 * Environment knobs:
 *  - SRS_BENCH_CYCLES:  simulated CPU cycles per run (default 1.2M;
 *                       at least 20002, so both epochs are nonzero)
 *  - SRS_BENCH_FULL:    nonzero -> run every workload in the profile
 *                       table instead of the representative subset
 *  - SRS_BENCH_THREADS: sweep worker threads for the multi-config
 *                       benches (default 0 = hardware concurrency)
 *
 * The counts are base-10 digits (common/options.hh parseUnsigned);
 * any other value exits 1 naming the knob.
 */

#ifndef SRS_BENCH_BENCH_UTIL_HH
#define SRS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/options.hh"
#include "sim/experiment.hh"
#include "trace/profiles.hh"

namespace srs::bench
{

/**
 * Count knob @p name, or @p def when unset; exits 1 naming the knob
 * unless its value is base-10 digits in @p min..@p max.
 */
inline std::uint64_t
countKnob(const char *name, std::uint64_t def, std::uint64_t min,
          std::uint64_t max)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return def;
    const std::optional<std::uint64_t> v = parseUnsigned(env, max);
    if (!v || *v < min) {
        std::fprintf(stderr,
                     "%s='%s': want base-10 digits in %llu..%llu\n",
                     name, env, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max));
        std::exit(1);
    }
    return *v;
}

/** Experiment config honouring the environment knobs. */
inline ExperimentConfig
benchExperiment()
{
    ExperimentConfig exp;
    // Two full refresh epochs per run so epoch-boundary work (lazy
    // place-backs, the no-unswap restore burst) lands inside the
    // measurement window.  Below 20002 cycles the epoch would be 0
    // (the 64 ms default) or wrap around.
    exp.cycles = countKnob("SRS_BENCH_CYCLES", 1'200'000, 20'002,
                           std::numeric_limits<Cycle>::max());
    exp.epochLen = exp.cycles / 2 - 10'000;
    return exp;
}

/** Sweep worker-thread count honouring SRS_BENCH_THREADS. */
inline std::size_t
benchThreads()
{
    // 0 = hardware concurrency
    return countKnob("SRS_BENCH_THREADS", 0, 0,
                     std::numeric_limits<std::size_t>::max());
}

/** Representative per-suite workload subset used by default. */
inline std::vector<WorkloadProfile>
benchWorkloads()
{
    if (const char *env = std::getenv("SRS_BENCH_FULL");
        env != nullptr && env[0] != '0') {
        return allProfiles();
    }
    std::vector<WorkloadProfile> out;
    for (const char *name :
         {"gups", "gcc", "hmmer", "mcf", "xz_17", "comm1"}) {
        out.push_back(profileByName(name));
    }
    return out;
}

/** The default workload subset as sweep-grid WorkloadSpecs. */
inline std::vector<WorkloadSpec>
benchWorkloadSpecs()
{
    std::vector<WorkloadSpec> specs;
    for (const WorkloadProfile &w : benchWorkloads())
        specs.push_back(WorkloadSpec::synthetic(w.name));
    return specs;
}

/** Pretty header for a bench section. */
inline void
header(const char *title)
{
    std::printf("\n==== %s ====\n", title);
}

/** Format seconds as days for the security figures. */
inline double
toDays(double sec)
{
    return sec / 86400.0;
}

} // namespace srs::bench

#endif // SRS_BENCH_BENCH_UTIL_HH
