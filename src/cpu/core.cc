#include "cpu/core.hh"

#include "common/logging.hh"

namespace srs
{

Core::Core(CoreId id, const CoreConfig &cfg, TraceSource &trace,
           CoreMemoryInterface &mem)
    : id_(id), cfg_(cfg), trace_(trace), mem_(mem)
{
    SRS_ASSERT(cfg_.robSize > 0 && cfg_.fetchWidth > 0 &&
               cfg_.retireWidth > 0, "degenerate core config");
}

void
Core::tick(Cycle now)
{
    // Retire in program order.
    std::uint32_t retiredNow = 0;
    while (retiredNow < cfg_.retireWidth && !rob_.empty() &&
           rob_.front().doneAt <= now) {
        rob_.pop_front();
        ++retired_;
        ++retiredNow;
    }

    // Fetch.
    std::uint32_t fetched = 0;
    for (std::uint32_t f = 0; f < cfg_.fetchWidth; ++f) {
        if (rob_.size() >= cfg_.robSize || !fetchOne(now))
            break;
        ++fetched;
    }

    // Wake policy.  Any progress demands a tick next cycle.
    // Otherwise the ROB was full, or the memory refused the access at
    // the fetch point, and the head could not retire.  Every cycle
    // until the head completes is then provably a no-op: nothing can
    // retire in order, fetch stays blocked, and the trace source is
    // untouched.  The one exception is a refusal that lifts first,
    // and the memory hierarchy reports that through wake().
    if (retiredNow > 0 || fetched > 0) {
        wakeAt_ = now + 1;
        return;
    }
    wakeAt_ = rob_.empty() ? kNoCycle : rob_.front().doneAt;
}

bool
Core::fetchOne(Cycle now)
{
    if (!recordValid_) {
        current_ = trace_.next();
        gapLeft_ = current_.nonMemGap;
        memOpPendingIssue_ = true;
        recordValid_ = true;
    }

    if (gapLeft_ > 0) {
        rob_.push_back(RobEntry{0, now + cfg_.pipelineDepth});
        --gapLeft_;
        return true;
    }

    SRS_ASSERT(memOpPendingIssue_, "record exhausted without mem op");
    if (current_.addr == kInvalidAddr) {
        // Pure-compute record (finite trace sources emit these after
        // exhaustion): retires like a non-memory instruction.
        rob_.push_back(RobEntry{0, now + cfg_.pipelineDepth});
        recordValid_ = false;
        memOpPendingIssue_ = false;
        return true;
    }
    Cycle latency = 0;
    const std::uint64_t token =
        (static_cast<std::uint64_t>(id_) << 48) | nextToken_;
    const auto outcome = mem_.access(current_.addr, current_.isWrite,
                                     id_, token, now, latency);
    switch (outcome) {
      case CoreMemoryInterface::Outcome::Hit:
        rob_.push_back(RobEntry{0, now + latency});
        break;
      case CoreMemoryInterface::Outcome::Pending:
        rob_.push_back(RobEntry{token, kNoCycle});
        ++nextToken_;
        break;
      case CoreMemoryInterface::Outcome::Reject:
        return false; // structural stall; retried at the next tick
    }
    if (current_.isWrite)
        ++memWrites_;
    else
        ++memReads_;
    recordValid_ = false;
    memOpPendingIssue_ = false;
    return true;
}

void
Core::complete(std::uint64_t token, Cycle now)
{
    for (RobEntry &e : rob_) {
        if (e.token == token) {
            SRS_ASSERT(e.doneAt == kNoCycle, "double completion");
            e.doneAt = now;
            e.token = 0;
            // A sleeping core can retire this entry (head) or resume
            // fetch next cycle; re-arm the wake.
            wake(now + 1);
            return;
        }
    }
    panic("completion for unknown token ", token);
}

double
Core::ipc(Cycle elapsed) const
{
    return elapsed == 0
        ? 0.0
        : static_cast<double>(retired_) / static_cast<double>(elapsed);
}

} // namespace srs
