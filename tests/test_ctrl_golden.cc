/**
 * @file
 * Controller-counter golden: rebuilds a small grid of cells and
 * byte-compares a dump of every memory-controller and mitigation
 * counter against tests/golden/ctrl_counters.txt.
 *
 * The golden sweep CSV (golden_regression) pins only RunResult
 * columns.  This dump also pins what the scheduler decides on the
 * way there — row hits, idle closes, forced precharges, read
 * forwarding and the pass-2 skip classes — so a controller rewrite
 * that keeps IPC but reorders commands or side effects is caught by
 * name.  On a mismatch the regenerated dump is written into the build
 * directory (ctrl_counters_regen.txt) and named in the failure
 * message; if the change is intentional, copy it over the committed
 * file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "trace/synthetic.hh"

namespace srs
{
namespace
{

const char *const kWorkloads[] = {
    "gups", "zipf:4096@s=0.99", "blend:zipf:4096@s=0.9+attack@0.05"};
const char *const kAxes[] = {"closed", "open@org=2x2x32"};
const char *const kMitigations[] = {"rrs", "scale-srs", "blockhammer"};

/** Run one cell and append its counter dump to @p out. */
void
dumpCell(const std::string &workload, const std::string &axesText,
         const std::string &mitigation, std::ostringstream &out)
{
    ExperimentConfig exp;
    exp.cycles = 60'000;
    exp.epochLen = 15'000;
    const WorkloadSpec spec = WorkloadSpec::parse(workload, exp.numCores);
    const SystemConfig cfg = makeSystemConfig(
        exp, mitigationKindFromName(mitigation), /*trh=*/60,
        /*swapRate=*/6, TrackerKind::MisraGries,
        SystemAxes::parse(axesText));

    System sys(cfg);
    const AddressMap &map = sys.controller().addressMap();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        if (spec.kind == WorkloadKind::Generator) {
            sys.setTrace(c, std::make_unique<GeneratorTrace>(
                                spec.generator, map, c, exp.seed));
        } else {
            sys.setTrace(c, std::make_unique<SyntheticTrace>(
                                profileByName(spec.name), map, c,
                                exp.seed));
        }
    }
    sys.run(exp.cycles);

    char ipc[40];
    std::snprintf(ipc, sizeof(ipc), "%.17g", sys.aggregateIpc());
    out << "cell " << workload << ' ' << axesText << ' ' << mitigation
        << "\n  ipc " << ipc << '\n';
    for (const auto &[name, value] : sys.controller().stats().all())
        out << "  ctrl." << name << ' ' << value << '\n';
    const LatencyHistogram &lat = sys.controller().readLatency();
    out << "  lat.p50 " << lat.quantilePermille(500) << '\n'
        << "  lat.p99 " << lat.quantilePermille(990) << '\n'
        << "  lat.p999 " << lat.quantilePermille(999) << '\n'
        << "  lat.samples " << lat.total() << '\n';
    for (const auto &[name, value] : sys.mitigation().stats().all())
        out << "  mit." << name << ' ' << value << '\n';
}

TEST(CtrlCountersGolden, GridMatchesCommittedDump)
{
    std::ostringstream dump;
    for (const char *workload : kWorkloads)
        for (const char *axes : kAxes)
            for (const char *mitigation : kMitigations)
                dumpCell(workload, axes, mitigation, dump);

    const std::string golden =
        std::string(SRS_TEST_SOURCE_DIR) + "/tests/golden/ctrl_counters.txt";
    std::ifstream in(golden, std::ios::binary);
    std::ostringstream committed;
    committed << in.rdbuf();
    if (committed.str() == dump.str())
        return;

    const std::string regen =
        std::string(SRS_TEST_BINARY_DIR) + "/ctrl_counters_regen.txt";
    std::ofstream(regen, std::ios::binary) << dump.str();
    FAIL() << "controller counters differ from the committed reference "
           << golden << " (regenerated copy: " << regen
           << ").  If the change is intentional, copy the regenerated "
              "file over the reference and commit it.";
}

} // namespace
} // namespace srs
