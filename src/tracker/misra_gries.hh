/**
 * @file
 * Misra-Gries / Graphene-style aggressor tracker (used by RRS and
 * SRS in the paper; modelled as a CAT in the memory controller).
 *
 * One Space-Saving table per bank, sized so every row that can make
 * T_S activations within an epoch is guaranteed to be tracked:
 * entries = ceil(ACT_max_epoch / T_S).
 */

#ifndef SRS_TRACKER_MISRA_GRIES_HH
#define SRS_TRACKER_MISRA_GRIES_HH

#include <cstdint>
#include <vector>

#include "tracker/space_saving.hh"
#include "tracker/tracker.hh"

namespace srs
{

/** Configuration for the Misra-Gries tracker. */
struct MisraGriesConfig
{
    std::uint32_t ts = 800;              ///< swap threshold T_S
    std::uint64_t actMaxPerEpoch = 1360000; ///< ACTs per bank per epoch
    std::uint32_t channels = 2;
    std::uint32_t banksPerChannel = 16;
    /** Safety margin on table size (Graphene doubles it). */
    double overProvision = 2.0;
};

/** Per-bank Misra-Gries tracking with T_S trigger. */
class MisraGriesTracker : public AggressorTracker
{
  public:
    explicit MisraGriesTracker(const MisraGriesConfig &cfg);

    bool recordActivation(std::uint32_t channel, std::uint32_t bank,
                          RowId physRow, Cycle now) override;
    void resetEpoch() override;
    const char *name() const override { return "misra-gries"; }

    /** Table capacity per bank (exposed for tests). */
    std::uint32_t entriesPerBank() const { return entriesPerBank_; }

  private:
    MisraGriesConfig cfg_;
    std::uint32_t entriesPerBank_;
    std::vector<SpaceSaving> tables_;  ///< channel-major, per bank
};

} // namespace srs

#endif // SRS_TRACKER_MISRA_GRIES_HH
