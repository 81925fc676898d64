/**
 * @file
 * Host-speed probe.
 *
 * The benchmark host may be shared: on a 4-vCPU 2.0 GHz Xeon host,
 * one simulator call ran at 0.6 s or 1.0 s depending on what other
 * tenants were doing, in phases lasting seconds to minutes.  Medians
 * inside one run cannot remove that.  The probe is a fixed piece of
 * work compiled into the benchmark — a branchy scan over a 1 MB
 * queue-like array, the shape of the memory controller's request
 * scan — timed right before and after every timed call, on as many
 * threads as the call uses (on the calling thread for one).  A timed
 * call is then reported at the reference host speed kNominalProbeS:
 * seconds x kNominalProbeS / probe seconds.  The probe code never
 * changes with the simulator, so a faster or slower simulator still
 * shows in full.  The probe tracks the host only roughly: it narrows
 * the drift between runs but can widen the spread in quiet periods.
 */

#ifndef PERFBENCH_HOST_SPEED_HH
#define PERFBENCH_HOST_SPEED_HH

#include <cstddef>
#include <vector>

#include "trace_log.hh"

namespace perfbench
{

/** Probe seconds on the reference host (a quiet 2.0 GHz Xeon vCPU). */
constexpr double kNominalProbeS = 0.05;

/** Run the probe on @p threads threads at once; @return mean seconds. */
double probeHost(std::size_t threads);

/**
 * Timed calls bracketed by host probes: call i ran between probe i
 * and probe i+1.
 */
class HostSpeedSeries
{
  public:
    explicit HostSpeedSeries(std::size_t threads);

    /** Time @p call, then probe the host again. */
    template <class F>
    void
    measure(F &&call)
    {
        const std::int64_t t0 = nowNs();
        call();
        raw_.push_back(secondsSince(t0));
        probes_.push_back(probeHost(threads_));
    }

    /** Raw host seconds of each call. */
    const std::vector<double> &raw() const { return raw_; }

    /** Each call at reference host speed. */
    std::vector<double> normalized() const;

    /** Median probe seconds / kNominalProbeS (> 1: slower host). */
    double slowdown() const;

  private:
    std::size_t threads_;
    std::vector<double> probes_;
    std::vector<double> raw_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HH
