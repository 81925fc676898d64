/**
 * @file
 * In-memory span log of the benchmark's traced run.
 *
 * Spans are recorded only around calls the benchmark makes into the
 * simulator's public API (a workload, a SweepRunner::run call, one
 * System::run, ...).  Each span carries a name, start, end and parent;
 * every span of one workload run shares the log's run id.  Boundaries
 * crossed millions of times per run (TraceSource::next, the
 * MemCtrlListener hooks) are kept as a count plus total nanoseconds
 * under their parent span instead of one span per call.  Nothing is
 * written until the run ends.
 */

#ifndef PERFBENCH_TRACE_LOG_HH
#define PERFBENCH_TRACE_LOG_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since an arbitrary fixed origin. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Host seconds elapsed since @p startNs (a nowNs() value). */
inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** One timed interval; parent 0 = a root span. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Count and total time of one hot per-call boundary. */
struct HotCounter
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

/** A HotCounter folded under the span its calls happened in. */
struct HotTotal
{
    std::string name;
    std::uint64_t parent = 0;
    HotCounter counter;
};

/** Thread-safe span recorder of one workload run. */
class SpanLog
{
  public:
    explicit SpanLog(std::string runId);

    /** Open a span now; @return its id (never 0). */
    std::uint64_t open(const std::string &name, std::uint64_t parent);

    /** Close span @p id now. */
    void close(std::uint64_t id);

    /** Record a finished span with explicit bounds (synthetic spans). */
    std::uint64_t add(const std::string &name, std::uint64_t parent,
                      std::int64_t startNs, std::int64_t endNs);

    /** Fold a hot boundary's count and time under span @p parent. */
    void addHot(const std::string &name, std::uint64_t parent,
                const HotCounter &counter);

    /** Duration of span @p id in seconds (0 while still open). */
    double seconds(std::uint64_t id) const;

    std::vector<Span> spans() const;
    std::vector<HotTotal> hots() const;
    const std::string &runId() const { return runId_; }

  private:
    const std::string runId_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<HotTotal> hots_;
};

/** Per-name totals of the self-time table. */
struct SelfTimeRow
{
    std::string name;
    std::uint64_t count = 0; ///< spans, or calls of a hot boundary
    double totalS = 0.0;     ///< summed durations
    double selfS = 0.0;      ///< summed self times
};

/**
 * Self time of every span — its duration minus the part of that
 * interval covered by its child spans (the union, so children that
 * ran in parallel are not double-subtracted) and minus the hot
 * totals recorded under it — summed per name.  Hot boundaries get
 * their own rows with self time equal to their total.  Rows come in
 * order of first appearance.
 */
std::vector<SelfTimeRow> selfTimes(const std::vector<Span> &spans,
                                   const std::vector<HotTotal> &hots);

/** The row named @p name, or an all-zero row. */
SelfTimeRow findRow(const std::vector<SelfTimeRow> &rows,
                    const std::string &name);

/**
 * Write the spans and hot totals as JSON lines (times relative to the
 * first span's start) to @p path; fatal on I/O error.
 */
void writeSpanFile(const std::string &path, const SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_TRACE_LOG_HH
