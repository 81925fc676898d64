#include "dram/params.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace srs
{

void
DramOrg::validate() const
{
    if (channels == 0 || ranksPerChannel == 0 || banksPerRank == 0)
        fatal("DramOrg: zero-sized geometry");
    if (!isPowerOfTwo(channels) || !isPowerOfTwo(ranksPerChannel) ||
        !isPowerOfTwo(banksPerRank) ||
        !isPowerOfTwo(rowsPerBank) || !isPowerOfTwo(rowBytes) ||
        !isPowerOfTwo(lineBytes)) {
        fatal("DramOrg: geometry fields must be powers of two");
    }
    if (rowBytes < lineBytes)
        fatal("DramOrg: row smaller than a cache line");
}

Cycle
nsToCycles(double ns, double cpuFreqGHz)
{
    return static_cast<Cycle>(std::ceil(ns * cpuFreqGHz - 1e-9));
}

DramTimingNs
DramTimingNs::ddr5()
{
    DramTimingNs ns;
    ns.tCK = 0.417;      // 2.4 GHz bus (DDR5-4800)
    ns.tREFI = 3900.0;   // 2x refresh frequency
    ns.tRFC = 295.0;     // same-density DDR5 tRFC1
    ns.tBL = 1.667;      // burst of 16 at twice the rate
    return ns;
}

DramTimingNs
DramTimingNs::preset(DramPreset preset)
{
    switch (preset) {
      case DramPreset::Ddr4: return DramTimingNs{};
      case DramPreset::Ddr5: return ddr5();
    }
    fatal("unknown DRAM preset");
}

DramTiming
DramTiming::fromNs(const DramTimingNs &ns)
{
    const double f = ns.cpuFreqGHz;
    DramTiming t;
    t.tRCD = nsToCycles(ns.tRCD, f);
    t.tRP = nsToCycles(ns.tRP, f);
    t.tCAS = nsToCycles(ns.tCAS, f);
    t.tCWL = nsToCycles(ns.tCWL, f);
    t.tRC = nsToCycles(ns.tRC, f);
    t.tRAS = nsToCycles(ns.tRAS, f);
    t.tRFC = nsToCycles(ns.tRFC, f);
    t.tREFI = nsToCycles(ns.tREFI, f);
    t.tCCD = nsToCycles(ns.tCCD, f);
    t.tBL = nsToCycles(ns.tBL, f);
    t.tWR = nsToCycles(ns.tWR, f);
    t.tRTP = nsToCycles(ns.tRTP, f);
    t.tRRD = nsToCycles(ns.tRRD, f);
    t.tFAW = nsToCycles(ns.tFAW, f);
    t.tWTR = nsToCycles(ns.tWTR, f);
    t.busClock = nsToCycles(ns.tCK, f);
    if (t.busClock == 0)
        fatal("DramTiming: bus clock rounds to zero CPU cycles");
    return t;
}

Cycle
DramTiming::rowTransferCycles(std::uint32_t linesPerRow) const
{
    return tRCD + static_cast<Cycle>(linesPerRow) * tCCD + tRP;
}

} // namespace srs
