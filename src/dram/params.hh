/**
 * @file
 * DRAM organization and timing parameters (paper Table III).
 *
 * Timings are specified in nanoseconds and converted once into CPU
 * cycles via DramTiming::fromNs().  The simulator always works in CPU
 * cycles; the memory bus runs at half the CPU clock (3.2 GHz CPU,
 * 1.6 GHz DDR4-3200 bus).
 */

#ifndef SRS_DRAM_PARAMS_HH
#define SRS_DRAM_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace srs
{

/** Geometry of the memory system (defaults: paper Table III). */
struct DramOrg
{
    std::uint32_t channels = 2;
    std::uint32_t ranksPerChannel = 1;
    std::uint32_t banksPerRank = 16;
    std::uint32_t rowsPerBank = 128 * 1024;
    std::uint32_t rowBytes = 8 * 1024;
    std::uint32_t lineBytes = 64;

    /** Cache lines per row (columns at line granularity). */
    std::uint32_t linesPerRow() const { return rowBytes / lineBytes; }

    /** Total banks across the system. */
    std::uint32_t totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Total capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return static_cast<std::uint64_t>(rowsPerBank) * rowBytes *
               totalBanks();
    }

    /** Sanity-check invariants (power-of-two fields); fatal() on error. */
    void validate() const;
};

/**
 * Named DRAM-generation timing presets.  Ddr4 is the paper's
 * Table III baseline; Ddr5 is the Section VIII-5 DDR5-4800-class
 * variant (DramTimingNs::ddr5()).  The sweep engine exposes the
 * preset as a system axis (`SystemAxes`, sim/workload_spec.hh).
 */
enum class DramPreset
{
    Ddr4,
    Ddr5,
};

/** Raw DDR4 timing parameters in nanoseconds (defaults: Table III). */
struct DramTimingNs
{
    double cpuFreqGHz = 3.2;

    double tCK = 0.625;   // bus clock period (1.6 GHz bus)
    double tRCD = 14.0;
    double tRP = 14.0;
    double tCAS = 14.0;   // CL
    double tCWL = 10.0;
    double tRC = 45.0;
    double tRAS = 31.0;   // tRC - tRP
    double tRFC = 350.0;
    double tREFI = 7800.0;
    double tCCD = 5.0;    // column-to-column, same bank group worst case
    double tBL = 2.5;     // burst of 8 @ DDR
    double tWR = 15.0;
    double tRTP = 7.5;
    double tRRD = 5.0;
    double tFAW = 25.0;
    double tWTR = 7.5;

    /**
     * DDR5-4800-class preset (Section VIII-5): the bus doubles to
     * 2.4 GHz and refresh runs twice as often (tREFI halves), which
     * halves the window an attack has to accumulate activations —
     * the property the DDR5 analysis in the paper rests on.  Core
     * timings stay at their DDR4-like nanosecond values (tRC barely
     * moves across generations).
     */
    static DramTimingNs ddr5();

    /** Timing defaults of @p preset (Ddr4 = Table III, Ddr5 above). */
    static DramTimingNs preset(DramPreset preset);
};

/** DDR4 timing parameters converted to CPU cycles. */
struct DramTiming
{
    Cycle tRCD, tRP, tCAS, tCWL, tRC, tRAS, tRFC, tREFI;
    Cycle tCCD, tBL, tWR, tRTP, tRRD, tFAW, tWTR;
    /** CPU cycles per memory bus clock (controller decision period). */
    Cycle busClock;

    /** Convert from nanosecond parameters at the given CPU frequency. */
    static DramTiming fromNs(const DramTimingNs &ns);

    /**
     * Cycles to stream one whole row through the controller:
     * ACT + linesPerRow column accesses + PRE.  This is the unit cost
     * used for swap / unswap / place-back row movements.
     */
    Cycle rowTransferCycles(std::uint32_t linesPerRow) const;
};

/** Convert nanoseconds to (rounded-up) CPU cycles. */
Cycle nsToCycles(double ns, double cpuFreqGHz);

} // namespace srs

#endif // SRS_DRAM_PARAMS_HH
