#include "rowswap/compact_rit.hh"

#include "common/logging.hh"

namespace srs
{

CompactRit::CompactRit(std::uint32_t rowsPerBank,
                       const CatSizing &sizing, std::uint64_t seed)
    : rowsPerBank_(rowsPerBank), table_(sizing, seed)
{
    SRS_ASSERT(rowsPerBank_ > 1, "bank needs at least two rows");
}

RowId
CompactRit::remap(RowId logical) const
{
    const auto phys = table_.lookup(logical);
    return phys.has_value() ? *phys : logical;
}

RowId
CompactRit::logicalAt(RowId phys) const
{
    // Walk the permutation cycle through @p phys.  Starting at the
    // slot's home row, each forward probe moves one hop around the
    // cycle; the predecessor of @p phys is its resident.  A home
    // (identity) slot terminates on the first probe.
    ++walks_;
    RowId cur = phys;
    std::uint64_t hops = 0;
    do {
        ++hops;
        SRS_ASSERT(hops <= rowsPerBank_, "broken permutation cycle");
        const auto next = table_.lookup(cur);
        if (!next.has_value()) {
            // cur is at home; the walk only reaches an undisplaced
            // row when it is the starting slot itself.
            SRS_ASSERT(cur == phys, "cycle escaped the permutation");
            break;
        }
        if (*next == phys)
            break;
        cur = *next;
    } while (true);
    walkProbes_ += hops;
    if (hops > maxWalk_)
        maxWalk_ = hops;
    return cur;
}

bool
CompactRit::displaced(RowId phys) const
{
    // Slot P is occupied by a foreign row exactly when logical row P
    // is itself displaced (permutation fixed-point argument).
    return table_.lookup(phys).has_value();
}

bool
CompactRit::setMapping(RowId logical, RowId phys)
{
    if (logical == phys) {
        table_.erase(logical);
        return true;
    }
    return table_.insert(logical, phys);
}

bool
CompactRit::swapPhysical(RowId p, RowId q)
{
    SRS_ASSERT(p < rowsPerBank_ && q < rowsPerBank_, "row out of range");
    SRS_ASSERT(p != q, "self-swap");
    const RowId lp = logicalAt(p);
    const RowId lq = logicalAt(q);
    const RowId oldLp = remap(lp);
    if (!setMapping(lp, q)) {
        ++rejects_;
        return false;
    }
    if (!setMapping(lq, p)) {
        // Roll back the first mapping so the permutation stays
        // consistent; the caller must pick a different partner.
        setMapping(lp, oldLp);
        ++rejects_;
        return false;
    }
    return true;
}

void
CompactRit::unlockAll()
{
    table_.unlockAll();
}

} // namespace srs
