/**
 * @file
 * Randomized Row-Swap (RRS; Saileshwar et al., ASPLOS 2022), the
 * baseline defense the paper breaks (Sections II-F and III).
 *
 * Behaviour reproduced here:
 *  - first T_S crossing of a row: swap with a random partner
 *    (one latent activation at the aggressor's original slot);
 *  - subsequent crossings: *unswap-swap* — restore the tuple, then
 *    re-swap to a fresh partner (up to two latent activations at the
 *    original slot per round; 1.5 on average with the swap-buffer
 *    optimization, footnote 2);
 *  - optional no-unswap mode (Figure 4 ablation): chained swaps with
 *    a bulk restore burst at the epoch boundary;
 *  - stale tuples from the previous epoch are unswapped lazily.
 */

#ifndef SRS_MITIGATION_RRS_HH
#define SRS_MITIGATION_RRS_HH

#include "mitigation/mitigation.hh"

namespace srs
{

/** RRS-specific knobs. */
struct RrsConfig
{
    /** Unswap before every re-swap (the shipping RRS behaviour). */
    bool immediateUnswap = true;
};

/** The RRS mitigation. */
class Rrs : public Mitigation
{
  public:
    Rrs(MemoryController &ctrl, AggressorTracker &tracker,
        const MitigationConfig &cfg, const RrsConfig &rrsCfg = {});

    const char *name() const override
    {
        return rrsCfg_.immediateUnswap ? "rrs" : "rrs-no-unswap";
    }

    void onEpochEnd(Cycle now, Cycle epochLen) override;

  protected:
    void mitigate(std::uint32_t channel, std::uint32_t bank,
                  RowId physRow) override;

  private:
    RrsConfig rrsCfg_;
    Cycle unswapSwapCycles_;
};

} // namespace srs

#endif // SRS_MITIGATION_RRS_HH
