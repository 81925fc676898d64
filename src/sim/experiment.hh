/**
 * @file
 * Experiment harness: builds Systems from workload profiles, runs
 * them for a fixed cycle budget, and reports normalized performance
 * against the unprotected baseline — the methodology behind every
 * performance figure (4, 12, 14, 15, 16).
 *
 * Multi-configuration grids should go through SweepRunner
 * (sim/sweep.hh), which fans these primitives across a thread pool
 * with deterministic per-cell seeding; the functions here run one
 * simulation on the calling thread.
 */

#ifndef SRS_SIM_EXPERIMENT_HH
#define SRS_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/system.hh"
#include "sim/workload_spec.hh"
#include "trace/generators.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace srs
{

/** Result of one simulation run. */
struct RunResult
{
    /** Sum of per-core IPCs over the measured window. */
    double aggregateIpc = 0.0;
    /** Per-core IPC, indexed by core id. */
    std::vector<double> coreIpc;
    /** Row swaps performed by the mitigation (AQUA: quarantine moves). */
    std::uint64_t swaps = 0;
    /** Immediate unswap operations (RRS-style restores). */
    std::uint64_t unswapSwaps = 0;
    /** Epoch-boundary place-backs plus lazy restores. */
    std::uint64_t placeBacks = 0;
    /** Activations that landed on not-yet-restored (latent) rows. */
    std::uint64_t latentActivations = 0;
    /** Hottest row's activation count in any single epoch. */
    std::uint64_t maxRowActivations = 0;
    /** Rows parked in the LLC pin buffer (Scale-SRS outliers). */
    std::uint64_t rowsPinned = 0;
    /**
     * Read-latency histogram (one sample per completed demand read,
     * in CPU cycles) — the source of the percentile columns, kept so
     * equivalence tests can compare whole distributions.  Rows parsed
     * back from a resume file carry only the percentiles below.
     */
    LatencyHistogram readLatency;
    /** p50/p99/p999 read latency (cycles; histogram bucket upper
     *  bounds — the CSV schema v4 tail-latency columns). */
    std::uint64_t p50Lat = 0;
    std::uint64_t p99Lat = 0;
    std::uint64_t p999Lat = 0;
    /** Completed demand reads behind the percentiles
     *  (readLatency.total() — the CSV schema v5 `lat_samples`
     *  column; survives a resume-file round trip). */
    std::uint64_t latSamples = 0;
};

/** Knobs of the experiment harness. */
struct ExperimentConfig
{
    /** CPU cycles to simulate per run; IPC covers all of them. */
    Cycle cycles = 3'000'000;
    /** Scaled-down refresh interval for tractable runs (default:
     *  1 ms at 3.2 GHz; thresholds stay unscaled — see "Why the
     *  epoch is scaled and T_RH is not" in docs/REPRODUCING.md). */
    Cycle epochLen = 3'200'000;
    /** Cores per simulated system (the paper evaluates 8). */
    std::uint32_t numCores = 8;
    /** Trace/RIT base seed; equal seeds replay equal runs. */
    std::uint64_t seed = 0xBEEFULL;
};

/**
 * Build the SystemConfig for one (mitigation, trh, swapRate) point.
 *
 * @param exp      shared harness knobs (cores, epoch, seed)
 * @param kind     mitigation to wire (MitigationKind::None for the
 *                 unprotected baseline)
 * @param trh      Row Hammer threshold T_RH
 * @param swapRate swaps per T_SWAP window (the paper's rate knob)
 * @param tracker  aggressor tracker implementation
 * @param axes     system-variant overlay (page policy, DRAM timing
 *                 overrides); applied identically to protected and
 *                 baseline configurations so normalization compares
 *                 like with like
 * @return a SystemConfig ready for System construction
 */
SystemConfig makeSystemConfig(const ExperimentConfig &exp,
                              MitigationKind kind, std::uint32_t trh,
                              std::uint32_t swapRate,
                              TrackerKind tracker
                              = TrackerKind::MisraGries,
                              const SystemAxes &axes = {});

/**
 * Run one workload (same profile on every core, rate mode) on a
 * configured system.
 *
 * @param sysCfg  system under test (makeSystemConfig())
 * @param profile synthetic benchmark profile driving every core
 * @param exp     cycle budget and trace seed
 * @return aggregate statistics of the run
 */
RunResult runWorkload(const SystemConfig &sysCfg,
                      const WorkloadProfile &profile,
                      const ExperimentConfig &exp);

/**
 * Run a MIX workload (per-core profiles).
 *
 * @param sysCfg  system under test
 * @param perCore one profile per core; size must equal
 *                sysCfg.numCores
 * @param exp     cycle budget and trace seed
 * @return aggregate statistics of the run
 */
RunResult runWorkloadMix(const SystemConfig &sysCfg,
                         const std::vector<WorkloadProfile> &perCore,
                         const ExperimentConfig &exp);

/**
 * Replay recorded USIMM trace(s) (the paper's Pin-trace workflow).
 * Each core loops its trace like USIMM rate mode; the parsed records
 * are shared, not copied, so N cores replaying one file reference a
 * single image (loadTraceRecords()).
 *
 * @param sysCfg  system under test
 * @param perCore one parsed trace per core, or a single entry
 *                replayed by every core
 * @param exp     cycle budget (the trace itself is the
 *                access stream, so exp.seed does not reshape it)
 * @return aggregate statistics of the run
 */
RunResult runWorkloadTrace(const SystemConfig &sysCfg,
                           const std::vector<SharedTraceRecords> &perCore,
                           const ExperimentConfig &exp);

/**
 * Run a generator-backed workload (Zipf / hotspot / blend — see
 * trace/generators.hh): every core drives one GeneratorTrace of the
 * same spec, decorrelated per core exactly like SyntheticTrace.
 *
 * @param sysCfg system under test
 * @param gen    generator identity (parsed from its spelling)
 * @param exp    cycle budget and trace seed
 * @return aggregate statistics of the run
 */
RunResult runWorkloadGenerator(const SystemConfig &sysCfg,
                               const GeneratorSpec &gen,
                               const ExperimentConfig &exp);

/**
 * Geometric mean, the figure-of-merit for suite averages.
 *
 * @param values strictly positive samples (normalized IPCs)
 * @return the geometric mean, or 0.0 for an empty input
 */
double geoMean(const std::vector<double> &values);

} // namespace srs

#endif // SRS_SIM_EXPERIMENT_HH
