#include "rowswap/indirection.hh"

#include "common/logging.hh"

namespace srs
{

RowIndirection::RowIndirection(std::uint32_t rowsPerBank)
    : rowsPerBank_(rowsPerBank)
{
    SRS_ASSERT(rowsPerBank_ > 1, "bank needs at least two rows");
}

RowId
RowIndirection::remap(RowId logical) const
{
    const auto it = log2phys_.find(logical);
    return it == log2phys_.end() ? logical : it->second;
}

RowId
RowIndirection::logicalAt(RowId phys) const
{
    const auto it = phys2log_.find(phys);
    return it == phys2log_.end() ? phys : it->second;
}

bool
RowIndirection::displaced(RowId phys) const
{
    return phys2log_.find(phys) != phys2log_.end();
}

void
RowIndirection::setMapping(RowId logical, RowId phys, std::uint32_t epoch)
{
    if (logical == phys) {
        log2phys_.erase(logical);
        epochTag_.erase(logical);
        // phys2log for this slot is rewritten by the caller.
        phys2log_.erase(phys);
        return;
    }
    log2phys_[logical] = phys;
    phys2log_[phys] = logical;
    epochTag_[logical] = epoch;
}

void
RowIndirection::swapPhysical(RowId p, RowId q, std::uint32_t epoch)
{
    SRS_ASSERT(p < rowsPerBank_ && q < rowsPerBank_, "row out of range");
    SRS_ASSERT(p != q, "self-swap");
    const RowId lp = logicalAt(p);
    const RowId lq = logicalAt(q);
    // Clear both slots' reverse entries first so setMapping's identity
    // erasure cannot clobber the other slot's fresh state.
    phys2log_.erase(p);
    phys2log_.erase(q);
    setMapping(lp, q, epoch);
    setMapping(lq, p, epoch);
}

RowId
RowIndirection::findStale(std::uint32_t epoch) const
{
    for (const auto &[logical, tag] : epochTag_) {
        if (tag < epoch)
            return logical;
    }
    return kInvalidRow;
}

std::uint64_t
RowIndirection::staleCount(std::uint32_t epoch) const
{
    std::uint64_t n = 0;
    for (const auto &[logical, tag] : epochTag_) {
        if (tag < epoch)
            ++n;
    }
    return n;
}

} // namespace srs
