/**
 * @file
 * Forwarding wrappers that time the simulator's hot per-call
 * boundaries from outside: each core's TraceSource (installed with
 * System::setTrace) and the mitigation's MemCtrlListener hooks
 * (installed with MemoryController::setListener).  Both only count
 * calls and add up host nanoseconds into a HotCounter; the wrapped
 * object's behaviour, and so every simulated statistic, is unchanged.
 *
 * Mitigation::tick and Mitigation::onEpochEnd are called by System
 * directly, not through the listener, so they stay inside the
 * System::run self time.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <memory>
#include <utility>

#include "cpu/core.hh"
#include "memctrl/controller.hh"
#include "trace_log.hh"

namespace perfbench
{

/** Times every next() call of the wrapped trace. */
class TimedTrace final : public srs::TraceSource
{
  public:
    TimedTrace(std::unique_ptr<srs::TraceSource> inner, HotCounter &counter)
        : inner_(std::move(inner)), counter_(counter)
    {
    }

    srs::TraceRecord
    next() override
    {
        const std::int64_t t0 = nowNs();
        const srs::TraceRecord r = inner_->next();
        counter_.ns += nowNs() - t0;
        ++counter_.calls;
        return r;
    }

  private:
    std::unique_ptr<srs::TraceSource> inner_;
    HotCounter &counter_;
};

/** Times remapRow / onActivate / actAllowedAt of the wrapped listener. */
class TimedListener final : public srs::MemCtrlListener
{
  public:
    TimedListener(srs::MemCtrlListener &inner, HotCounter &counter)
        : inner_(inner), counter_(counter)
    {
    }

    srs::RowId
    remapRow(std::uint32_t channel, std::uint32_t bank,
             srs::RowId logical) override
    {
        const std::int64_t t0 = nowNs();
        const srs::RowId r = inner_.remapRow(channel, bank, logical);
        stop(t0);
        return r;
    }

    void
    onActivate(std::uint32_t channel, std::uint32_t bank,
               srs::RowId physRow, srs::Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onActivate(channel, bank, physRow, now);
        stop(t0);
    }

    srs::Cycle
    actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                 srs::RowId physRow, srs::Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        const srs::Cycle r = inner_.actAllowedAt(channel, bank, physRow, now);
        stop(t0);
        return r;
    }

    bool
    concurrentChannelQueriesSafe() const override
    {
        // The shared counter makes concurrent queries unsafe; the
        // controller then keeps its serial loop (same results).
        return false;
    }

  private:
    void
    stop(std::int64_t t0)
    {
        counter_.ns += nowNs() - t0;
        ++counter_.calls;
    }

    srs::MemCtrlListener &inner_;
    HotCounter &counter_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
