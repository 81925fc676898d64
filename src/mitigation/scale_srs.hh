/**
 * @file
 * Scalable and Secure Row-Swap (Scale-SRS; paper Section V) — the
 * paper's headline contribution.
 *
 * SRS plus:
 *  - a reduced swap rate (default 3 instead of 6), halving the swap
 *    traffic and shrinking the RIT;
 *  - outlier detection: when a physical row's swap-tracking counter
 *    reaches outlierSwaps * T_S in-epoch activations, the row is an
 *    outlier (expected only once every ~31 days under attack,
 *    Figure 13);
 *  - LLC pinning: the outlier's resident logical row is pinned in
 *    the last-level cache through the pin-buffer for the rest of the
 *    refresh interval, absorbing all further activations.
 */

#ifndef SRS_MITIGATION_SCALE_SRS_HH
#define SRS_MITIGATION_SCALE_SRS_HH

#include <functional>

#include "mitigation/srs.hh"

namespace srs
{

/** Scale-SRS-specific knobs. */
struct ScaleSrsConfig
{
    /** Pin when the swap counter reaches outlierSwaps * T_S. */
    std::uint32_t outlierSwaps = 3;
};

/** The Scale-SRS mitigation. */
class ScaleSrs : public Srs
{
  public:
    /**
     * Hook that pins a logical row in the LLC.
     * @return true when the row is pinned; false when the pin-buffer
     *         is full (counted as `pins_rejected`)
     */
    using PinHook = std::function<bool(std::uint32_t channel,
                                       std::uint32_t bank,
                                       RowId logicalRow)>;

    ScaleSrs(MemoryController &ctrl, AggressorTracker &tracker,
             const MitigationConfig &cfg, const SrsConfig &srsCfg = {},
             const ScaleSrsConfig &scaleCfg = {});

    /** Install the LLC pinning hook (provided by the System). */
    void setPinHook(PinHook hook) { pinHook_ = std::move(hook); }

    const char *name() const override { return "scale-srs"; }

  protected:
    void mitigate(std::uint32_t channel, std::uint32_t bank,
                  RowId physRow) override;

  private:
    ScaleSrsConfig scaleCfg_;
    PinHook pinHook_;
};

} // namespace srs

#endif // SRS_MITIGATION_SCALE_SRS_HH
