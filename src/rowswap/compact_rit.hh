/**
 * @file
 * Single-table Row Indirection Table — the Section VIII-4 storage
 * optimization.
 *
 * The SRS RIT of Section IV-C stores every mapping twice: once in
 * the real half (logical row -> physical slot) and once in the
 * mirrored half (physical slot -> logical row).  In any permutation
 * the displaced logical rows and the occupied non-home slots are the
 * same set, so the forward mappings alone determine the reverse
 * ones: the resident of slot P is found by walking the permutation
 * cycle through P.  Storing only the forward direction (tagged by
 * the paper's original/reverse bit) halves the RIT entry count —
 * the "almost 2x" saving of Section VIII-4.
 *
 * The trade-off, modelled and benchmarked here, is that reverse
 * lookups (needed when a swap victimizes an occupied slot, and by
 * place-back) cost one CAT probe per hop of the containing cycle.
 * Forward remaps — the per-access critical path — stay one probe.
 * Swap-only SRS lets cycles grow until lazy place-back resolves
 * them, so the walk length is a real, measurable cost of the
 * compact organization.
 */

#ifndef SRS_ROWSWAP_COMPACT_RIT_HH
#define SRS_ROWSWAP_COMPACT_RIT_HH

#include <cstdint>

#include "common/types.hh"
#include "rowswap/cat.hh"

namespace srs
{

/** Forward-only single-table RIT with cycle-walking reverse lookup. */
class CompactRit
{
  public:
    /**
     * @param rowsPerBank  permutation domain (row ids < rowsPerBank)
     * @param sizing       CAT sizing; the target covers one entry
     *                     per displaced row (half the split RIT)
     * @param seed         hash/eviction seed for the backing CAT
     */
    CompactRit(std::uint32_t rowsPerBank, const CatSizing &sizing,
               std::uint64_t seed);

    /** Current physical slot of @p logical (one CAT probe). */
    RowId remap(RowId logical) const;

    /**
     * Logical row resident in physical slot @p phys, found by
     * walking the permutation cycle through @p phys (one probe per
     * hop; identity when the slot is home).
     */
    RowId logicalAt(RowId phys) const;

    /** @return true when @p phys holds a displaced row. */
    bool displaced(RowId phys) const;

    /**
     * Exchange the contents of physical slots @p p and @p q.
     *
     * @return false when the backing CAT rejected an insert (bucket
     *         full of locked entries — a provisioning failure); the
     *         permutation is rolled back in that case
     */
    bool swapPhysical(RowId p, RowId q);

    /** Unlock all entries (epoch boundary). */
    void unlockAll();

    /** Live entries (one per displaced row). */
    std::uint64_t entries() const { return table_.size(); }

    /** Total slot capacity of the single table. */
    std::uint64_t capacity() const { return table_.capacity(); }

    /** Provisioning failures observed (rejected swaps). */
    std::uint64_t rejects() const { return rejects_; }

    /** Probes spent in the most expensive reverse walk so far. */
    std::uint64_t maxWalkLength() const { return maxWalk_; }

    /** Total reverse-walk probes (average cost = total / walks). */
    std::uint64_t totalWalkProbes() const { return walkProbes_; }
    std::uint64_t walks() const { return walks_; }

    std::uint32_t rowsPerBank() const { return rowsPerBank_; }

  private:
    /** Install logical -> phys, erasing identity mappings. */
    bool setMapping(RowId logical, RowId phys);

    std::uint32_t rowsPerBank_;
    Cat table_;
    std::uint64_t rejects_ = 0;
    mutable std::uint64_t maxWalk_ = 0;
    mutable std::uint64_t walkProbes_ = 0;
    mutable std::uint64_t walks_ = 0;
};

} // namespace srs

#endif // SRS_ROWSWAP_COMPACT_RIT_HH
