#include "dram/bank.hh"

#include <algorithm>

#include "common/logging.hh"

namespace srs
{

Bank::Bank(const DramTiming &timing, std::uint32_t rowsPerBank)
    : timing_(timing), rowsPerBank_(rowsPerBank)
{
}

Cycle
Bank::issue(DramCommand cmd, RowId row, Cycle now, bool autoPre)
{
    SRS_ASSERT(canIssue(cmd, row, now), "illegal ", commandName(cmd),
               " at cycle ", now);
    switch (cmd) {
      case DramCommand::Activate:
        openRow_ = row;
        chargeActivation(row);
        rdReady_ = now + timing_.tRCD;
        wrReady_ = now + timing_.tRCD;
        preReady_ = now + timing_.tRAS;
        actReady_ = now + timing_.tRC;
        return now + timing_.tRCD;

      case DramCommand::Read: {
        const Cycle dataDone = now + timing_.tCAS + timing_.tBL;
        rdReady_ = std::max(rdReady_, now + timing_.tCCD);
        wrReady_ = std::max(wrReady_, dataDone + timing_.tWTR);
        preReady_ = std::max(preReady_, now + timing_.tRTP);
        if (autoPre) {
            // RD-AP: the bank self-precharges tRTP after the column
            // access; the next ACT may come tRP later.
            actReady_ = std::max(actReady_,
                                 now + timing_.tRTP + timing_.tRP);
            openRow_ = kInvalidRow;
        }
        return dataDone;
      }

      case DramCommand::Write: {
        const Cycle restored =
            now + timing_.tCWL + timing_.tBL + timing_.tWR;
        wrReady_ = std::max(wrReady_, now + timing_.tCCD);
        rdReady_ = std::max(rdReady_, now + timing_.tCWL + timing_.tBL +
                                          timing_.tWTR);
        preReady_ = std::max(preReady_, restored);
        if (autoPre) {
            actReady_ = std::max(actReady_, restored + timing_.tRP);
            openRow_ = kInvalidRow;
        }
        return now + timing_.tCWL + timing_.tBL;
      }

      case DramCommand::Precharge:
        openRow_ = kInvalidRow;
        actReady_ = std::max(actReady_, now + timing_.tRP);
        return now + timing_.tRP;

      case DramCommand::Refresh:
        actReady_ = std::max(actReady_, now + timing_.tRFC);
        preReady_ = std::max(preReady_, now + timing_.tRFC);
        return now + timing_.tRFC;
    }
    panic("unreachable command");
}

Cycle
Bank::blockFor(Cycle now, Cycle duration)
{
    SRS_ASSERT(!blocked(now), "bank already mid-migration");
    blockedUntil_ = std::max(now, actReady_) + duration;
    // A migration streams rows through the bank; afterwards the bank
    // is precharged and immediately usable.
    openRow_ = kInvalidRow;
    actReady_ = std::max(actReady_, blockedUntil_);
    preReady_ = std::max(preReady_, blockedUntil_);
    rdReady_ = std::max(rdReady_, blockedUntil_);
    wrReady_ = std::max(wrReady_, blockedUntil_);
    return blockedUntil_;
}

void
Bank::chargeActivation(RowId row, std::uint32_t count)
{
    SRS_ASSERT(row < rowsPerBank_, "activation to nonexistent row");
    auto &cell = actCounts_[row];
    cell += count;
    totalActs_ += count;
    if (cell > maxActs_) {
        maxActs_ = cell;
        maxActRow_ = row;
    }
}

std::uint64_t
Bank::activationsOf(RowId row) const
{
    const auto it = actCounts_.find(row);
    return it == actCounts_.end() ? 0 : it->second;
}

void
Bank::resetEpochCounters()
{
    actCounts_.clear();
    maxActs_ = 0;
    maxActRow_ = kInvalidRow;
    totalActs_ = 0;
}

} // namespace srs
