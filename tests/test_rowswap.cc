/**
 * @file
 * Unit tests for the row-swap structures: the CAT, the row
 * indirection permutation and the swap-tracking counters.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/logging.hh"
#include "rowswap/cat.hh"
#include "rowswap/compact_rit.hh"
#include "rowswap/indirection.hh"
#include "rowswap/swap_counters.hh"

namespace srs
{
namespace
{

TEST(CatSizing, PowerOfTwoBuckets)
{
    CatSizing s;
    s.targetEntries = 1000;
    s.ways = 8;
    s.overProvision = 1.5;
    EXPECT_EQ(s.numBuckets(), 256u); // ceil(1500/8)=188 -> 256
    EXPECT_EQ(s.totalSlots(), 2048u);
}

Cat
makeCat(std::uint64_t entries = 64)
{
    CatSizing s;
    s.targetEntries = entries;
    return Cat(s, 42);
}

TEST(Cat, InsertLookupErase)
{
    Cat cat = makeCat();
    EXPECT_TRUE(cat.insert(10, 99));
    ASSERT_TRUE(cat.lookup(10).has_value());
    EXPECT_EQ(*cat.lookup(10), 99u);
    EXPECT_FALSE(cat.lookup(11).has_value());
    EXPECT_TRUE(cat.erase(10));
    EXPECT_FALSE(cat.erase(10));
    EXPECT_EQ(cat.size(), 0u);
}

TEST(Cat, UpdateInPlace)
{
    Cat cat = makeCat();
    cat.insert(10, 1);
    cat.insert(10, 2);
    EXPECT_EQ(*cat.lookup(10), 2u);
    EXPECT_EQ(cat.size(), 1u);
}

TEST(Cat, HoldsProvisionedLoad)
{
    Cat cat = makeCat(1000);
    for (RowId k = 0; k < 1000; ++k)
        ASSERT_TRUE(cat.insert(k, k + 1));
    EXPECT_EQ(cat.size(), 1000u);
    for (RowId k = 0; k < 1000; ++k)
        EXPECT_EQ(*cat.lookup(k), k + 1);
}

TEST(Cat, LockedBucketsRejectOverflow)
{
    // With every entry locked (same epoch), a saturated bucket must
    // reject rather than evict — the CAT security property.
    CatSizing s;
    s.targetEntries = 8;
    s.ways = 2;
    s.overProvision = 1.0;
    Cat cat(s, 7);
    std::uint32_t rejected = 0;
    for (RowId k = 0; k < 1000; ++k)
        rejected += cat.insert(k, k) ? 0 : 1;
    EXPECT_GT(rejected, 0u);
    EXPECT_LE(cat.size(), cat.capacity());
}

TEST(Cat, UnlockedEntriesEvictWithNotification)
{
    CatSizing s;
    s.targetEntries = 8;
    s.ways = 2;
    s.overProvision = 1.0;
    Cat cat(s, 7);
    for (RowId k = 0; k < 8; ++k)
        cat.insert(k, k);
    cat.unlockAll();
    std::vector<RowId> evicted;
    cat.setEvictHandler(
        [&](const Cat::Entry &e) { evicted.push_back(e.key); });
    // New inserts displace unlocked previous-epoch entries until the
    // table re-fills with locked current-epoch ones.
    std::uint32_t accepted = 0;
    for (RowId k = 100; k < 140; ++k)
        accepted += cat.insert(k, k) ? 1 : 0;
    EXPECT_FALSE(evicted.empty());
    EXPECT_GE(accepted, 8u);
    EXPECT_LE(cat.size(), cat.capacity());
}

TEST(Cat, ForEachVisitsAll)
{
    Cat cat = makeCat();
    for (RowId k = 0; k < 10; ++k)
        cat.insert(k, k * 2);
    std::uint32_t visited = 0;
    std::uint64_t sum = 0;
    cat.forEach([&](const Cat::Entry &e) {
        ++visited;
        sum += e.value;
    });
    EXPECT_EQ(visited, 10u);
    EXPECT_EQ(sum, 90u);
}

TEST(Indirection, IdentityByDefault)
{
    RowIndirection r(1024);
    EXPECT_EQ(r.remap(10), 10u);
    EXPECT_EQ(r.logicalAt(10), 10u);
    EXPECT_FALSE(r.displaced(10));
    EXPECT_EQ(r.entries(), 0u);
}

TEST(Indirection, SingleSwap)
{
    RowIndirection r(1024);
    r.swapPhysical(10, 20, 1);
    EXPECT_EQ(r.remap(10), 20u);
    EXPECT_EQ(r.remap(20), 10u);
    EXPECT_EQ(r.logicalAt(20), 10u);
    EXPECT_EQ(r.logicalAt(10), 20u);
    EXPECT_EQ(r.entries(), 2u);
}

TEST(Indirection, UnswapRestoresIdentity)
{
    RowIndirection r(1024);
    r.swapPhysical(10, 20, 1);
    r.swapPhysical(10, 20, 1);
    EXPECT_EQ(r.remap(10), 10u);
    EXPECT_EQ(r.remap(20), 20u);
    EXPECT_EQ(r.entries(), 0u);
}

TEST(Indirection, PaperFigure9Chain)
{
    // Section IV-C: A swaps with B, then A (now at b) swaps with C.
    // Using slot names a=0, b=1, c=2 for rows A=0, B=1, C=2:
    RowIndirection r(1024);
    r.swapPhysical(0, 1, 1);    // A <-> B
    r.swapPhysical(1, 2, 1);    // A (at b) <-> C
    EXPECT_EQ(r.remap(0), 2u);  // A at C's slot
    EXPECT_EQ(r.remap(2), 1u);  // C at B's slot
    EXPECT_EQ(r.remap(1), 0u);  // B at A's slot
    EXPECT_EQ(r.entries(), 3u);
}

TEST(Indirection, EpochTagsTrackStaleness)
{
    RowIndirection r(1024);
    r.swapPhysical(10, 20, 1);
    r.swapPhysical(30, 40, 2);
    EXPECT_EQ(r.staleCount(2), 2u); // the epoch-1 tuple
    EXPECT_EQ(r.staleCount(3), 4u);
    const RowId stale = r.findStale(2);
    EXPECT_TRUE(stale == 10 || stale == 20);
    EXPECT_EQ(r.findStale(1), kInvalidRow);
}

TEST(Indirection, PlaceBackResolvesChains)
{
    RowIndirection r(1024);
    r.swapPhysical(0, 1, 1);
    r.swapPhysical(1, 2, 1);
    r.swapPhysical(2, 3, 1);
    // Repeatedly send stale rows home, as the place-back loop does.
    int steps = 0;
    while (r.entries() > 0 && steps < 100) {
        RowId logical = r.findStale(2);
        if (logical == kInvalidRow) {
            // Chain remnants re-tagged by restores: finish them too.
            logical = r.findStale(3);
        }
        ASSERT_NE(logical, kInvalidRow);
        r.swapPhysical(r.remap(logical), logical, 2);
        ++steps;
    }
    EXPECT_EQ(r.entries(), 0u);
    for (RowId x = 0; x < 4; ++x)
        EXPECT_EQ(r.remap(x), x);
}

/** Property sweep: the indirection stays a permutation. */
class IndirectionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(IndirectionProperty, RandomSwapsPreservePermutation)
{
    const std::uint32_t rows = 256;
    RowIndirection r(rows);
    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        const RowId p = static_cast<RowId>(rng.nextBelow(rows));
        RowId q = static_cast<RowId>(rng.nextBelow(rows));
        if (p == q)
            q = (q + 1) % rows;
        r.swapPhysical(p, q, static_cast<std::uint32_t>(i / 100));
    }
    // Invariants: remap is injective and logicalAt inverts it.
    std::vector<bool> seen(rows, false);
    for (RowId logical = 0; logical < rows; ++logical) {
        const RowId phys = r.remap(logical);
        ASSERT_LT(phys, rows);
        ASSERT_FALSE(seen[phys]) << "remap not injective";
        seen[phys] = true;
        ASSERT_EQ(r.logicalAt(phys), logical);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndirectionProperty,
                         ::testing::Range(1, 21));


// ---------------------------------------------------------------------
// CompactRit — the Section VIII-4 single-table RIT.
// ---------------------------------------------------------------------

CompactRit
makeCompact(std::uint32_t rows = 256, std::uint64_t entries = 512,
            std::uint64_t seed = 9)
{
    CatSizing s;
    s.targetEntries = entries;
    return CompactRit(rows, s, seed);
}

TEST(CompactRit, IdentityByDefault)
{
    CompactRit r = makeCompact();
    for (RowId x : {0u, 1u, 100u, 255u}) {
        EXPECT_EQ(r.remap(x), x);
        EXPECT_EQ(r.logicalAt(x), x);
        EXPECT_FALSE(r.displaced(x));
    }
    EXPECT_EQ(r.entries(), 0u);
}

TEST(CompactRit, SingleSwapOneEntryPerDisplacedRow)
{
    CompactRit r = makeCompact();
    ASSERT_TRUE(r.swapPhysical(3, 7));
    EXPECT_EQ(r.remap(3), 7u);
    EXPECT_EQ(r.remap(7), 3u);
    EXPECT_EQ(r.logicalAt(3), 7u);
    EXPECT_EQ(r.logicalAt(7), 3u);
    // Split RIT would store 4 entries here; compact stores 2.
    EXPECT_EQ(r.entries(), 2u);
}

TEST(CompactRit, SwapBackRestoresIdentity)
{
    CompactRit r = makeCompact();
    ASSERT_TRUE(r.swapPhysical(3, 7));
    ASSERT_TRUE(r.swapPhysical(3, 7));
    EXPECT_EQ(r.entries(), 0u);
    EXPECT_EQ(r.remap(3), 3u);
    EXPECT_FALSE(r.displaced(7));
}

TEST(CompactRit, ChainedSwapsFormCycle)
{
    // SRS-style swap-only chain: A swaps with B, then A's new slot
    // swaps with C — a 3-cycle with one entry per member.
    CompactRit r = makeCompact();
    ASSERT_TRUE(r.swapPhysical(0, 1)); // A=0 now at slot 1
    ASSERT_TRUE(r.swapPhysical(1, 2)); // slot 1 (holding 0) <-> slot 2
    EXPECT_EQ(r.entries(), 3u);
    EXPECT_EQ(r.remap(0), 2u);
    EXPECT_EQ(r.logicalAt(2), 0u);
    EXPECT_EQ(r.logicalAt(1), 2u);
    EXPECT_EQ(r.logicalAt(0), 1u);
}

TEST(CompactRit, ReverseWalkCostGrowsWithChain)
{
    CompactRit r = makeCompact(256, 1024);
    // Drive one row through an ever-growing cycle.
    RowId slot = 0;
    for (RowId next = 1; next <= 40; ++next) {
        ASSERT_TRUE(r.swapPhysical(slot, next));
        slot = next;
    }
    const std::uint64_t before = r.maxWalkLength();
    r.logicalAt(slot); // deep probe into the 41-cycle
    EXPECT_GE(r.maxWalkLength(), before);
    EXPECT_GE(r.maxWalkLength(), 2u);
    EXPECT_GT(r.walks(), 0u);
    EXPECT_GE(r.totalWalkProbes(), r.walks());
}

TEST(CompactRit, StorageHalvedVsSplitConvention)
{
    // The split RIT keeps a real and a mirrored entry per displaced
    // row; the single table keeps one.  StorageModel prices that
    // halving (Storage.SingleTableOptimizationHalves); here the table
    // itself holds 32 disjoint swaps in half the split entry count.
    CompactRit r = makeCompact(256, 512);
    RowIndirection exact(256);
    for (RowId p = 0; p < 64; p += 2) {
        ASSERT_TRUE(r.swapPhysical(p, p + 128));
        exact.swapPhysical(p, p + 128, 1);
    }
    const std::uint64_t splitEntries = 2 * exact.entries();
    EXPECT_EQ(splitEntries, 128u);
    EXPECT_EQ(r.entries() * 2, splitEntries);
}

TEST(CompactRit, RejectsWhenSaturatedAndRollsBack)
{
    CatSizing s;
    s.targetEntries = 4;
    s.ways = 1;
    s.overProvision = 1.0;
    CompactRit r(4096, s, 3);
    std::uint64_t ok = 0;
    Rng rng(11);
    for (int i = 0; i < 600; ++i) {
        const RowId p = static_cast<RowId>(rng.nextBelow(4096));
        RowId q = static_cast<RowId>(rng.nextBelow(4096));
        if (p == q)
            q = (q + 1) % 4096;
        ok += r.swapPhysical(p, q) ? 1 : 0;
    }
    EXPECT_GT(r.rejects(), 0u);
    EXPECT_GT(ok, 0u);
    // Rolled-back swaps must leave a consistent permutation.
    std::vector<bool> seen(4096, false);
    for (RowId logical = 0; logical < 4096; ++logical) {
        const RowId phys = r.remap(logical);
        ASSERT_FALSE(seen[phys]);
        seen[phys] = true;
    }
}

TEST(CompactRit, UnlockAllowsEvictionReuse)
{
    CatSizing s;
    s.targetEntries = 8;
    s.ways = 2;
    s.overProvision = 1.0;
    CompactRit r(4096, s, 3);
    std::uint64_t rejectsLocked = 0;
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        const RowId p = static_cast<RowId>(rng.nextBelow(4096));
        RowId q = static_cast<RowId>(rng.nextBelow(4096));
        if (p == q)
            continue;
        if (!r.swapPhysical(p, q))
            ++rejectsLocked;
    }
    EXPECT_GT(rejectsLocked, 0u);
    r.unlockAll();
    // After unlocking, inserts may evict stale entries again.
    EXPECT_TRUE(r.swapPhysical(4000, 4001) ||
                r.swapPhysical(4002, 4003));
}

/** Equivalence sweep: CompactRit mirrors RowIndirection exactly. */
class CompactRitEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(CompactRitEquivalence, MatchesExactPermutation)
{
    const std::uint32_t rows = 128;
    RowIndirection exact(rows);
    CompactRit compact = makeCompact(rows, 4096, GetParam());
    Rng rng(GetParam() * 77 + 1);
    for (int i = 0; i < 400; ++i) {
        const RowId p = static_cast<RowId>(rng.nextBelow(rows));
        RowId q = static_cast<RowId>(rng.nextBelow(rows));
        if (p == q)
            q = (q + 1) % rows;
        exact.swapPhysical(p, q, 1);
        ASSERT_TRUE(compact.swapPhysical(p, q));
    }
    std::uint64_t displacedRows = 0;
    for (RowId x = 0; x < rows; ++x) {
        ASSERT_EQ(compact.remap(x), exact.remap(x)) << "row " << x;
        ASSERT_EQ(compact.logicalAt(x), exact.logicalAt(x));
        ASSERT_EQ(compact.displaced(x), exact.displaced(x));
        displacedRows += exact.displaced(x) ? 1 : 0;
    }
    // One entry per displaced row: half of the split organization.
    EXPECT_EQ(compact.entries(), displacedRows);
    EXPECT_EQ(exact.entries(), displacedRows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactRitEquivalence,
                         ::testing::Range(1, 13));

TEST(SwapCounters, AccumulatesWithinEpoch)
{
    SwapTrackingCounters c(1024);
    EXPECT_EQ(c.recordSwap(5, 1, 200), 200u);
    EXPECT_EQ(c.recordSwap(5, 1, 201), 401u);
    EXPECT_EQ(c.countOf(5, 1), 401u);
}

TEST(SwapCounters, EpochMismatchResets)
{
    SwapTrackingCounters c(1024);
    c.recordSwap(5, 1, 200);
    EXPECT_EQ(c.countOf(5, 2), 0u);
    EXPECT_EQ(c.recordSwap(5, 2, 100), 100u);
}

TEST(SwapCounters, SaturatesAtFieldWidth)
{
    SwapTrackingCounters c(1024, 19, 13);
    const std::uint32_t maxCount = (1u << 13) - 1;
    c.recordSwap(5, 1, maxCount);
    EXPECT_EQ(c.recordSwap(5, 1, 100), maxCount);
}

TEST(SwapCounters, GlobalResetClears)
{
    SwapTrackingCounters c(1024);
    c.recordSwap(5, 1, 200);
    c.resetAll();
    EXPECT_EQ(c.countOf(5, 1), 0u);
    EXPECT_EQ(c.stats().get("global_resets"), 1u);
}

TEST(SwapCounters, PaperStorageNumbers)
{
    // Section IV-F: 128K rows x 32 bits = 512KB per bank, held in
    // sixty-four 8KB counter rows (0.05% of capacity).
    SwapTrackingCounters c(128 * 1024);
    EXPECT_EQ(c.reservedBytesPerBank(), 512u * 1024);
    EXPECT_EQ(c.counterRows(8192), 64u);
    EXPECT_EQ(c.epochIdLimit(), 1u << 19);
}

TEST(SwapCounters, FieldWidthValidated)
{
    EXPECT_THROW(SwapTrackingCounters(16, 25, 13), FatalError);
}

} // namespace
} // namespace srs
