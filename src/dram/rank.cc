#include "dram/rank.hh"

#include <algorithm>

#include "common/logging.hh"

namespace srs
{

Rank::Rank(const DramTiming &timing, const DramOrg &org)
    : timing_(timing)
{
    banks_.reserve(org.banksPerRank);
    for (std::uint32_t i = 0; i < org.banksPerRank; ++i)
        banks_.emplace_back(timing, org.rowsPerBank);
    actWindow_.fill(0);
}

Cycle
Rank::issue(DramCommand cmd, std::uint32_t bankIdx, RowId row, Cycle now,
            bool autoPre)
{
    SRS_ASSERT(canIssue(cmd, bankIdx, row, now),
               "rank rejects ", commandName(cmd));
    if (cmd == DramCommand::Activate) {
        actWindow_[actWindowHead_] = now;
        actWindowHead_ = (actWindowHead_ + 1) % actWindow_.size();
        lastAct_ = now;
        ++actCount_;
    }
    if (cmd == DramCommand::Read || cmd == DramCommand::Write) {
        const Cycle dataStart = now +
            (cmd == DramCommand::Read ? timing_.tCAS : timing_.tCWL);
        reserveBus(dataStart, timing_.tBL);
    }
    return banks_[bankIdx].issue(cmd, row, now, autoPre);
}

bool
Rank::canRefresh(Cycle now) const
{
    if (refreshing(now))
        return false;
    for (const Bank &b : banks_) {
        if (b.rowOpen() || b.blocked(now) || now < b.actReadyAt())
            return false;
    }
    return true;
}

Cycle
Rank::refresh(Cycle now)
{
    SRS_ASSERT(canRefresh(now), "refresh while rank busy");
    refreshUntil_ = now + timing_.tRFC;
    ++refreshCount_;
    for (Bank &b : banks_)
        b.issue(DramCommand::Refresh, 0, now);
    return refreshUntil_;
}

void
Rank::reserveBus(Cycle start, Cycle len)
{
    busBusyUntil_ = std::max(busBusyUntil_, start + len);
}

} // namespace srs
