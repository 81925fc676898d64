/**
 * @file
 * Aggressor-row tracker interface (paper Section II-D).
 *
 * Trackers observe demand activations and decide when a row has
 * crossed the swap threshold T_S.  The mitigation (RRS / SRS /
 * Scale-SRS) is tracker-agnostic; the paper evaluates Misra-Gries
 * (Graphene-style) and Hydra, both implemented here.
 */

#ifndef SRS_TRACKER_TRACKER_HH
#define SRS_TRACKER_TRACKER_HH

#include <cstdint>

#include "common/types.hh"

namespace srs
{

/**
 * Observes per-bank physical-row activations; flags T_S crossings.
 *
 * The two implementations (tracker/misra_gries.hh, tracker/hydra.hh)
 * are selected by TrackerKind and constructed by the System; the
 * mitigation consumes only this interface.  Their SRAM cost is priced
 * by security/storage_model.hh, not here.  Trackers are
 * single-threaded like the rest of a simulated System — parallel
 * experiments each own their System and tracker (see sim/sweep.hh).
 */
class AggressorTracker
{
  public:
    virtual ~AggressorTracker() = default;

    /**
     * Record one activation of @p physRow.
     *
     * @param channel  channel index
     * @param bank     bank index flattened within the channel
     * @param physRow  physical (post-indirection) row activated
     * @param now      current simulation cycle
     * @return true when the row just crossed T_S; the tracker resets
     *         its estimate for the row (the caller must mitigate)
     */
    virtual bool recordActivation(std::uint32_t channel,
                                  std::uint32_t bank, RowId physRow,
                                  Cycle now) = 0;

    /** Clear all tracking state (refresh-epoch boundary). */
    virtual void resetEpoch() = 0;

    /**
     * Identification for stats and experiment logs.
     *
     * @return a static, human-readable tracker name
     */
    virtual const char *name() const = 0;
};

} // namespace srs

#endif // SRS_TRACKER_TRACKER_HH
