/**
 * @file
 * AQUA (Saxena et al., MICRO 2022) — quarantine-based aggressor
 * isolation, the second related-work baseline of Section IX-A.
 *
 * Instead of randomizing an aggressor's location (RRS/SRS), AQUA
 * reserves a dedicated quarantine region in each bank and *moves*
 * aggressor rows there when they cross the migration threshold.
 * Quarantine slots are handed out by a sequential cursor; hammering
 * a quarantined row simply moves it to the next slot, so — like SRS
 * — no unswap is ever needed and no latent activations accumulate
 * at the original home.  Quarantined rows are lazily restored after
 * the refresh interval, and a cursor wrap inside one epoch first
 * restores the slot's previous tenant.
 *
 * Relative to Scale-SRS the trade-off is capacity (the quarantine
 * region is carved out of the bank) versus the smaller pointer
 * tables (FPT/RPT) replacing the RIT.
 */

#ifndef SRS_MITIGATION_AQUA_HH
#define SRS_MITIGATION_AQUA_HH

#include <vector>

#include "mitigation/mitigation.hh"

namespace srs
{

/** AQUA-specific knobs. */
struct AquaConfig
{
    /**
     * Quarantine slots per bank; 0 derives 1% of the bank (the AQUA
     * paper's provisioning for T_RH = 4800).
     */
    std::uint32_t quarantineRows = 0;
};

/** The AQUA mitigation. */
class Aqua : public Mitigation
{
  public:
    Aqua(MemoryController &ctrl, AggressorTracker &tracker,
         const MitigationConfig &cfg, const AquaConfig &aquaCfg = {});

    const char *name() const override { return "aqua"; }

    /** SRAM bits per bank: the forward and reverse pointer tables. */
    std::uint64_t storageBitsPerBank() const;

    /** Quarantine slots provisioned per bank. */
    std::uint32_t quarantineRows() const { return quarantineRows_; }

    /** First physical row of the quarantine region. */
    RowId quarantineBase() const { return quarantineBase_; }

    /** @return true when @p phys lies inside the quarantine region. */
    bool inQuarantine(RowId phys) const
    {
        return phys >= quarantineBase_ &&
               phys < quarantineBase_ + quarantineRows_;
    }

    /** Occupied quarantine slots on (channel, bank). */
    std::uint32_t quarantineOccupancy(std::uint32_t channel,
                                      std::uint32_t bank) const;

  protected:
    void mitigate(std::uint32_t channel, std::uint32_t bank,
                  RowId physRow) override;
    void lazyStep() override;

  private:
    struct BankState
    {
        std::uint32_t cursor = 0;  ///< next quarantine slot offset
    };

    /** Restore one stale quarantined row home; @return true if any. */
    bool restoreOne(std::uint32_t channel, std::uint32_t bank);

    /** Move the resident of @p slot home (cursor-wrap eviction). */
    void evictSlot(std::uint32_t channel, std::uint32_t bank,
                   RowId slot);

    BankState &state(std::uint32_t channel, std::uint32_t bank);

    AquaConfig aquaCfg_;
    std::uint32_t quarantineRows_;
    RowId quarantineBase_;
    Cycle moveCycles_;
    std::vector<BankState> states_;
    std::uint32_t banksPerChannel_;
};

} // namespace srs

#endif // SRS_MITIGATION_AQUA_HH
