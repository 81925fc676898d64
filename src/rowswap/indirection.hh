/**
 * @file
 * Per-bank row indirection state — the functional core of the Row
 * Indirection Table.
 *
 * Conceptually the bank's rows form a permutation: logical row L
 * (the OS-visible row whose id equals its home physical slot) lives
 * at physical slot remap(L).  Swaps compose transpositions into this
 * permutation; RRS's immediate unswaps keep it a product of disjoint
 * transpositions (fixed tuple pairs), while SRS's swap-only policy
 * lets longer cycles form, resolved lazily by place-back steps.
 *
 * Entries carry the epoch in which they were last touched so lazy
 * eviction (SRS place-back, RRS RIT cleanup) can target stale
 * mappings only.
 */

#ifndef SRS_ROWSWAP_INDIRECTION_HH
#define SRS_ROWSWAP_INDIRECTION_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace srs
{

/** Exact row-permutation tracker with epoch tags. */
class RowIndirection
{
  public:
    explicit RowIndirection(std::uint32_t rowsPerBank);

    /** Current physical slot of logical row @p logical. */
    RowId remap(RowId logical) const;

    /** Logical row currently stored in physical slot @p phys. */
    RowId logicalAt(RowId phys) const;

    /** @return true when @p phys holds a displaced (non-home) row. */
    bool displaced(RowId phys) const;

    /**
     * Exchange the contents of physical slots @p p and @p q, tagging
     * the touched mappings with @p epoch.
     */
    void swapPhysical(RowId p, RowId q, std::uint32_t epoch);

    /** Non-identity mappings (RIT occupancy, one per displaced row). */
    std::uint64_t entries() const { return log2phys_.size(); }

    /**
     * Find a displaced logical row whose mapping is older than
     * @p epoch (a lazy-eviction candidate).
     * @return kInvalidRow when none exist
     */
    RowId findStale(std::uint32_t epoch) const;

    /** Count mappings older than @p epoch. */
    std::uint64_t staleCount(std::uint32_t epoch) const;

    std::uint32_t rowsPerBank() const { return rowsPerBank_; }

  private:
    void setMapping(RowId logical, RowId phys, std::uint32_t epoch);

    std::uint32_t rowsPerBank_;
    std::unordered_map<RowId, RowId> log2phys_;
    std::unordered_map<RowId, RowId> phys2log_;
    std::unordered_map<RowId, std::uint32_t> epochTag_;
};

} // namespace srs

#endif // SRS_ROWSWAP_INDIRECTION_HH
