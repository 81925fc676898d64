/**
 * @file
 * Secure Row-Swap (SRS; paper Section IV).
 *
 * Differences from RRS, all reproduced here:
 *  - swap-only indirection (split real/mirrored RIT): a re-mitigated
 *    row is simply swapped again, never unswapped first, so no latent
 *    activations accumulate at its original slot (Eq. 11);
 *  - lazy cross-epoch evictions: stale mappings are placed back via
 *    the per-bank place-back buffer, paced evenly across the epoch;
 *  - per-row swap-tracking counters in reserved DRAM (Section IV-F)
 *    with a 19-bit epoch register, updated before every swap —
 *    the attack-detection substrate that Scale-SRS builds on.
 */

#ifndef SRS_MITIGATION_SRS_HH
#define SRS_MITIGATION_SRS_HH

#include <vector>

#include "mitigation/mitigation.hh"
#include "rowswap/swap_counters.hh"

namespace srs
{

/** SRS-specific knobs. */
struct SrsConfig
{
    /** Flag a potential attack when a row's in-epoch swap-counter
     *  reaches detectMultiple * T_S activations. */
    std::uint32_t detectMultiple = 3;
    /** Model the counter read-modify-write DRAM traffic. */
    bool modelCounterTraffic = true;
};

/** The SRS mitigation. */
class Srs : public Mitigation
{
  public:
    Srs(MemoryController &ctrl, AggressorTracker &tracker,
        const MitigationConfig &cfg, const SrsConfig &srsCfg = {});

    const char *name() const override { return "srs"; }

    /**
     * Epoch boundary; additionally, when the 19-bit epoch register
     * wraps to all-zeros the per-row swap-tracking counters are
     * globally reset (Section IV-F: a 41 us sweep of the 64 counter
     * rows once every 2^19 epochs = ~4.6 hours), preventing stale
     * counters from aliasing into the new epoch-id space.
     */
    void onEpochEnd(Cycle now, Cycle epochLen) override;

    /** Swap-tracking counter file of one bank (tests/analysis). */
    const SwapTrackingCounters &counters(std::uint32_t channel,
                                         std::uint32_t bank) const;

  protected:
    void mitigate(std::uint32_t channel, std::uint32_t bank,
                  RowId physRow) override;

    /**
     * Update the swap-tracking counter for @p physRow and emit the
     * counter-row access traffic.
     * @return the row's post-update in-epoch activation count
     */
    std::uint32_t trackSwap(std::uint32_t channel, std::uint32_t bank,
                            RowId physRow, std::uint32_t latent);

    SrsConfig srsCfg_;
    Cycle counterAccessCycles_;
    std::vector<SwapTrackingCounters> counters_;
};

} // namespace srs

#endif // SRS_MITIGATION_SRS_HH
