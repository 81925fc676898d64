/**
 * @file
 * Table IV reproduction: per-bank on-chip storage of RRS vs
 * Scale-SRS at T_RH in {4800, 2400, 1200}, plus the Section VIII-4
 * single-table optimization.
 *
 * Paper anchor: ~3.3x total savings at T_RH = 1200.
 */

#include <cstdio>

#include "security/storage_model.hh"

int
main()
{
    using namespace srs;

    std::printf("==== Table IV: storage overhead per bank ====\n");
    for (const std::uint32_t trh : {4800u, 2400u, 1200u}) {
        StorageParams p;
        p.trh = trh;
        StorageModel m(p);
        std::printf("\n-- T_RH = %u --\n", trh);
        std::printf("%-20s%14s%14s\n", "Structure", "RRS",
                    "Scale-SRS");
        for (const StorageLine &line : m.breakdown()) {
            std::printf("%-20s%13.1fK%13.1fK\n",
                        line.structure.c_str(),
                        line.rrsBytes / 1024.0,
                        line.scaleSrsBytes / 1024.0);
        }
        std::printf("%-20s%13.1fK%13.1fK   ratio %.2fx\n", "Total",
                    m.totalRrsBytes() / 1024.0,
                    m.totalScaleSrsBytes() / 1024.0,
                    m.savingsRatio());
        std::printf("%-20s%14s%13.1fK\n",
                    "(VIII-4 single RIT)", "-",
                    m.ritBytesScaleSrsSingleTable() / 1024.0);
    }
    return 0;
}
