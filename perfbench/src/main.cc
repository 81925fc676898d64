/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR]
 *   perfbench --describe
 *
 * Prints a machine fingerprint, the workload's named rates and a
 * digest of its simulated output, then as the last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1.  --describe prints the workload and metric catalogue.
 * Exit status is 0 whenever a result line was printed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

std::string
jsonDefs(const std::vector<MetricDef> &defs)
{
    std::string s = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        s += (i ? ", " : "") + std::string("{\"name\": \"") + defs[i].name
             + "\", \"unit\": \"" + defs[i].unit + "\", \"better\": \""
             + defs[i].better + "\", \"source\": \"" + defs[i].source + "\"}";
    }
    return s + "]";
}

void
describe()
{
    std::string names = "[";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        names += (i ? ", \"" : "\"") + workloadNames()[i] + "\"";
    std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n",
                names.c_str(), jsonDefs(endToEndMetrics()).c_str(),
                jsonDefs(perLayerMetrics()).c_str());
}

/** nproc, CPU model, compiler and build type. */
std::string
fingerprint(std::size_t threads)
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    return "machine nproc=" + std::to_string(std::thread::hardware_concurrency())
           + " threads=" + std::to_string(threads) + " cpu=\"" + model
           + "\" compiler=\"" + __VERSION__ + "\" build=" PERFBENCH_BUILD_TYPE;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] | --describe\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    if (value.empty() || *end != '\0' || value[0] == '-')
        usage("bad value '" + value + "' for " + flag);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions o;
    o.workDir = ".bench_build/work";
    o.simPath = PERFBENCH_SRS_SIM;
    bool haveWorkload = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--describe") {
            describe();
            return 0;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = parseUint(flag, value);
            o.seedGiven = true;
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUint(flag, value));
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--work-dir") {
            o.workDir = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!haveWorkload || !haveSeconds || !haveTrace)
        usage("--workload, --seconds and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");
    o.threads = std::max(1u, std::thread::hardware_concurrency());
    o.fingerprint = fingerprint(o.threads);

    RunOutcome out;
    try {
        out = runBenchmark(o);
    } catch (const srs::FatalError &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }

    std::printf("%s\n", o.fingerprint.c_str());
    for (const std::string &note : out.notes)
        std::printf("%s\n", note.c_str());

    // Every catalogue metric of the mode is reported; a layer the
    // workload does not exercise reads 0.  A missing or non-finite
    // end-to-end metric makes the run incorrect.
    bool correct = out.tally.failed == 0 && out.tally.attempted > 0;
    std::string metrics;
    for (const MetricDef &m : o.trace ? perLayerMetrics() : endToEndMetrics()) {
        const auto it = out.metrics.find(m.name);
        double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            v = 0.0;
            correct = false;
        }
        if (!o.trace && (it == out.metrics.end() || v <= 0.0))
            correct = false;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name
                   + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit
                   + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.tally.attempted),
                static_cast<unsigned long long>(out.tally.failed),
                metrics.c_str());
    return 0;
}
