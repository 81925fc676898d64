/**
 * @file
 * BlockHammer (Yaglikci et al., HPCA 2021) — the throttling-based
 * aggressor-focused baseline the paper contrasts against in
 * Section IX-A.
 *
 * Per bank, a pair of time-interleaved counting Bloom filters
 * over-approximates per-row activation counts.  Once a row's
 * estimate crosses the blacklist threshold N_BL, further ACTs of
 * that row are delayed so the row cannot reach T_RH within the
 * blacklisting window: the enforced spacing is
 * window / (T_RH - N_BL), which at T_RH = 4800 with the default
 * half-threshold blacklist comes to ~26 us — the "approximately
 * 20 us per activation" DoS figure the paper quotes.
 *
 * No rows move: remapping is identity and the defense needs no RIT,
 * but every blacklisted row (benign or not) eats the full throttle
 * delay — the denial-of-service exposure Scale-SRS avoids.
 */

#ifndef SRS_MITIGATION_BLOCKHAMMER_HH
#define SRS_MITIGATION_BLOCKHAMMER_HH

#include <unordered_map>
#include <vector>

#include "mitigation/mitigation.hh"
#include "tracker/counting_bloom.hh"

namespace srs
{

/** BlockHammer-specific knobs. */
struct BlockHammerConfig
{
    /** Blacklist when the estimate reaches blacklistFraction * T_RH. */
    double blacklistFraction = 0.5;

    /** Counting-Bloom sizing (per bank, two filters). */
    CountingBloomConfig bloom;

    /** Filter-rotation windows per refresh epoch. */
    std::uint32_t windowsPerEpoch = 2;

    /**
     * Safety margin on the throttle budget: the spacing is computed
     * against safetyFactor * (T_RH - N_BL) remaining activations.
     */
    double safetyFactor = 1.0;
};

/** The BlockHammer mitigation (throttling, no row movement). */
class BlockHammer : public Mitigation
{
  public:
    BlockHammer(MemoryController &ctrl, AggressorTracker &tracker,
                const MitigationConfig &cfg,
                const BlockHammerConfig &bhCfg = {});

    const char *name() const override { return "blockhammer"; }

    // Identity mapping: BlockHammer never moves rows.
    RowId remapRow(std::uint32_t channel, std::uint32_t bank,
                   RowId logical) override;

    void onActivate(std::uint32_t channel, std::uint32_t bank,
                    RowId physRow, Cycle now) override;

    Cycle actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                       RowId physRow, Cycle now) override;

    void tick(Cycle now) override;

    /** Folds the filter-rotation deadline into the base schedule. */
    Cycle nextEventAt(Cycle now) const override
    {
        Cycle next = Mitigation::nextEventAt(now);
        if (nextRotateAt_ != kNoCycle)
            next = std::min(next, std::max(nextRotateAt_, now + 1));
        return next;
    }

    void onEpochEnd(Cycle now, Cycle epochLen) override;

    /** SRAM bits per bank: the filters and the row blocker. */
    std::uint64_t storageBitsPerBank() const;

    /** Blacklist threshold N_BL in activations. */
    std::uint32_t blacklistThreshold() const { return nbl_; }

    /** Enforced inter-ACT spacing for blacklisted rows, in cycles. */
    Cycle throttleSpacing() const { return spacing_; }

    /** Rows currently blacklisted on (channel, bank). */
    std::size_t blacklistedRows(std::uint32_t channel,
                                std::uint32_t bank) const;

    /** Filter estimate probe (tests). */
    std::uint32_t estimateOf(std::uint32_t channel, std::uint32_t bank,
                             RowId physRow) const;

  protected:
    /** Swapping never happens; T_S crossings are ignored. */
    void mitigate(std::uint32_t, std::uint32_t, RowId) override {}

  private:
    /** Derive the throttle spacing from the epoch length. */
    void computeSpacing(Cycle epochLen);

    std::uint32_t flatIndex(std::uint32_t channel,
                            std::uint32_t bank) const;

    BlockHammerConfig bhCfg_;
    std::uint32_t nbl_;
    Cycle spacing_ = 0;
    Cycle windowLen_ = 0;
    Cycle nextRotateAt_ = kNoCycle;

    std::vector<DualCountingBloom> filters_;  ///< one per bank
    /** per bank: blacklisted row -> next allowed ACT cycle */
    std::vector<std::unordered_map<RowId, Cycle>> nextAllowed_;
    std::uint32_t banksPerChannel_;
};

} // namespace srs

#endif // SRS_MITIGATION_BLOCKHAMMER_HH
