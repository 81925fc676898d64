/**
 * @file
 * google-benchmark microbenchmarks for the hardware-modelled
 * structures: the memory controller's critical-path operations must
 * be cheap to simulate (and correspond to simple hardware).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "dram/address.hh"
#include "rowswap/cat.hh"
#include "rowswap/compact_rit.hh"
#include "rowswap/indirection.hh"
#include "tracker/counting_bloom.hh"
#include "tracker/space_saving.hh"

namespace
{

void
BM_AddressDecode(benchmark::State &state)
{
    srs::DramOrg org;
    srs::AddressMap map(org);
    srs::Rng rng(1);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr += 0x9E3779B9;
        benchmark::DoNotOptimize(
            map.decode(addr & (org.capacityBytes() - 1)));
    }
}
BENCHMARK(BM_AddressDecode);

void
BM_CatLookup(benchmark::State &state)
{
    srs::CatSizing sizing;
    sizing.targetEntries = 4096;
    srs::Cat cat(sizing, 7);
    for (srs::RowId k = 0; k < 4096; ++k)
        cat.insert(k, k + 1);
    srs::RowId key = 0;
    for (auto _ : state) {
        key = (key + 1) & 8191;
        benchmark::DoNotOptimize(cat.lookup(key));
    }
}
BENCHMARK(BM_CatLookup);

void
BM_CatInsertErase(benchmark::State &state)
{
    srs::CatSizing sizing;
    sizing.targetEntries = 4096;
    srs::Cat cat(sizing, 7);
    srs::RowId key = 0;
    for (auto _ : state) {
        ++key;
        cat.insert(key, key);
        cat.erase(key);
    }
}
BENCHMARK(BM_CatInsertErase);

void
BM_SpaceSavingIncrement(benchmark::State &state)
{
    srs::SpaceSaving table(
        static_cast<std::uint32_t>(state.range(0)));
    srs::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.increment(
            static_cast<srs::RowId>(rng.nextBelow(100000))));
    }
}
BENCHMARK(BM_SpaceSavingIncrement)->Arg(1024)->Arg(8192);

void
BM_IndirectionRemap(benchmark::State &state)
{
    srs::RowIndirection rit(131072);
    srs::Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const auto p = static_cast<srs::RowId>(rng.nextBelow(131072));
        auto q = static_cast<srs::RowId>(rng.nextBelow(131072));
        if (p == q)
            q = (q + 1) % 131072;
        rit.swapPhysical(p, q, 0);
    }
    srs::RowId row = 0;
    for (auto _ : state) {
        row = (row + 1) & 131071;
        benchmark::DoNotOptimize(rit.remap(row));
    }
}
BENCHMARK(BM_IndirectionRemap);

void
BM_IndirectionSwap(benchmark::State &state)
{
    srs::RowIndirection rit(131072);
    srs::Rng rng(5);
    for (auto _ : state) {
        const auto p = static_cast<srs::RowId>(rng.nextBelow(131072));
        auto q = static_cast<srs::RowId>(rng.nextBelow(131072));
        if (p == q)
            q = (q + 1) % 131072;
        rit.swapPhysical(p, q, 0);
    }
}
BENCHMARK(BM_IndirectionSwap);

void
BM_CompactRitRemap(benchmark::State &state)
{
    // Forward remap is the per-access critical path of the
    // Section VIII-4 single-table RIT: must stay one probe.
    srs::CatSizing sizing;
    sizing.targetEntries = 8192;
    srs::CompactRit rit(65536, sizing, 5);
    srs::Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const srs::RowId p =
            static_cast<srs::RowId>(rng.nextBelow(65536));
        srs::RowId q = static_cast<srs::RowId>(rng.nextBelow(65536));
        if (p == q)
            q = (q + 1) % 65536;
        rit.swapPhysical(p, q);
    }
    srs::RowId row = 0;
    for (auto _ : state) {
        row = (row + 257) & 65535;
        benchmark::DoNotOptimize(rit.remap(row));
    }
}
BENCHMARK(BM_CompactRitRemap);

void
BM_CompactRitReverseWalk(benchmark::State &state)
{
    // Reverse lookups pay one probe per cycle hop; Arg = length of
    // the swap chain threaded through one row (SRS-style growth).
    srs::CatSizing sizing;
    sizing.targetEntries = 8192;
    srs::CompactRit rit(65536, sizing, 5);
    srs::RowId slot = 0;
    for (srs::RowId next = 1;
         next <= static_cast<srs::RowId>(state.range(0)); ++next) {
        rit.swapPhysical(slot, next);
        slot = next;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(rit.logicalAt(slot));
}
BENCHMARK(BM_CompactRitReverseWalk)->Arg(2)->Arg(16)->Arg(64);

void
BM_CountingBloomInsert(benchmark::State &state)
{
    srs::CountingBloomConfig cfg;
    cfg.counters = static_cast<std::uint32_t>(state.range(0));
    srs::CountingBloom cbf(cfg, 9);
    srs::RowId row = 0;
    for (auto _ : state) {
        row = (row + 101) & 131071;
        benchmark::DoNotOptimize(cbf.insert(row));
    }
}
BENCHMARK(BM_CountingBloomInsert)->Arg(1024)->Arg(8192);

void
BM_CountingBloomEstimate(benchmark::State &state)
{
    srs::CountingBloomConfig cfg;
    srs::CountingBloom cbf(cfg, 9);
    srs::Rng rng(4);
    for (int i = 0; i < 50000; ++i)
        cbf.insert(static_cast<srs::RowId>(rng.nextBelow(131072)));
    srs::RowId row = 0;
    for (auto _ : state) {
        row = (row + 101) & 131071;
        benchmark::DoNotOptimize(cbf.estimate(row));
    }
}
BENCHMARK(BM_CountingBloomEstimate);

} // namespace

BENCHMARK_MAIN();
