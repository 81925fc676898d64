/**
 * @file
 * Memory request and row-migration job types exchanged between the
 * LLC, the memory controller and the Row Hammer mitigations.
 */

#ifndef SRS_MEMCTRL_REQUEST_HH
#define SRS_MEMCTRL_REQUEST_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/address.hh"

namespace srs
{

/** One demand access (an LLC miss or writeback) to main memory. */
struct MemRequest
{
    std::uint64_t id = 0;       ///< unique tag, assigned by controller
    Addr addr = kInvalidAddr;   ///< byte address (logical / OS view)
    bool isWrite = false;
    CoreId core = 0;
    Cycle arrival = 0;          ///< enqueue cycle

    DramCoord coord;            ///< decoded coordinates (logical row)
    /**
     * Cached RIT translation of coord.row, valid while mapVersion
     * equals the channel's map version.  The controller revalidates
     * it lazily, when its scheduler reaches the request, never at
     * enqueue.
     */
    RowId physRow = kInvalidRow;
    std::uint64_t mapVersion = 0;///< remap-cache validity stamp

    Cycle completion = kNoCycle;///< data-return cycle once issued
};

/** Activation charge to a physical row embedded in a migration. */
struct RowCharge
{
    RowId row;
    std::uint32_t count;
};

/**
 * A mitigation-driven row movement.  Jobs occupy their bank for
 * `duration` cycles and atomically charge the listed "latent"
 * activations to the ground-truth per-row counters when they start.
 */
struct MigrationJob
{
    enum class Kind
    {
        Swap,           ///< RRS/SRS initial swap (two-row exchange)
        UnswapSwap,     ///< RRS restore + re-swap (the Juggernaut lever)
        PlaceBack,      ///< SRS lazy eviction step
        CounterAccess,  ///< per-row swap-counter / Hydra RCT access
    };

    Kind kind = Kind::Swap;
    Cycle duration = 0;
    std::vector<RowCharge> charges;
};

/** @return human-readable name for stats. */
const char *migrationKindName(MigrationJob::Kind kind);

} // namespace srs

#endif // SRS_MEMCTRL_REQUEST_HH
