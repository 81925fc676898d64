/**
 * @file
 * Unit tests for the aggressor trackers: Space-Saving, Misra-Gries
 * and Hydra (including its DRAM counter traffic).
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tracker/counting_bloom.hh"
#include "tracker/hydra.hh"
#include "tracker/misra_gries.hh"
#include "tracker/space_saving.hh"

namespace srs
{
namespace
{

TEST(SpaceSaving, CountsExactWhenUnderCapacity)
{
    SpaceSaving t(8);
    for (int i = 0; i < 5; ++i)
        t.increment(100);
    t.increment(200);
    EXPECT_EQ(t.countOf(100), 5u);
    EXPECT_EQ(t.countOf(200), 1u);
    EXPECT_EQ(t.countOf(999), 0u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(SpaceSaving, NeverUndercounts)
{
    // The Misra-Gries family guarantee: estimate >= true count.
    SpaceSaving t(4);
    std::map<RowId, std::uint32_t> truth;
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        const RowId row = static_cast<RowId>(rng.nextBelow(32));
        ++truth[row];
        t.increment(row);
    }
    for (const auto &[row, count] : truth) {
        if (t.countOf(row) != 0) {
            EXPECT_GE(t.countOf(row), count) << "row " << row;
        }
    }
    // A row hammered far above the eviction floor must be tracked
    // with at least its true count.
    SpaceSaving t2(4);
    for (int i = 0; i < 100; ++i) {
        t2.increment(7);
        t2.increment(static_cast<RowId>(1000 + i));
    }
    EXPECT_GE(t2.countOf(7), 100u);
}

TEST(SpaceSaving, EvictionInheritsMinCount)
{
    SpaceSaving t(2);
    t.increment(1);
    t.increment(1);
    t.increment(2);
    // Table full; a new row displaces the min (row 2, count 1).
    EXPECT_EQ(t.increment(3), 2u);
    EXPECT_EQ(t.countOf(2), 0u);
    EXPECT_EQ(t.countOf(3), 2u);
}

TEST(SpaceSaving, ResetZeroesRow)
{
    SpaceSaving t(4);
    for (int i = 0; i < 10; ++i)
        t.increment(5);
    t.reset(5);
    EXPECT_EQ(t.countOf(5), 0u);
    EXPECT_EQ(t.increment(5), 1u);
}

TEST(SpaceSaving, ClearEmptiesTable)
{
    SpaceSaving t(4);
    t.increment(1);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.countOf(1), 0u);
}

MisraGriesConfig
mgConfig(std::uint32_t ts)
{
    MisraGriesConfig cfg;
    cfg.ts = ts;
    cfg.actMaxPerEpoch = 100000;
    return cfg;
}

TEST(MisraGries, FiresExactlyAtTs)
{
    MisraGriesTracker t(mgConfig(100));
    for (int i = 0; i < 99; ++i)
        EXPECT_FALSE(t.recordActivation(0, 0, 42, 0));
    EXPECT_TRUE(t.recordActivation(0, 0, 42, 0));
}

TEST(MisraGries, ResetsAfterFiring)
{
    MisraGriesTracker t(mgConfig(100));
    for (int i = 0; i < 100; ++i)
        t.recordActivation(0, 0, 42, 0);
    // Counting restarts from zero after the mitigation trigger.
    for (int i = 0; i < 99; ++i)
        EXPECT_FALSE(t.recordActivation(0, 0, 42, 0));
    EXPECT_TRUE(t.recordActivation(0, 0, 42, 0));
}

TEST(MisraGries, BanksAreIndependent)
{
    MisraGriesTracker t(mgConfig(10));
    for (int i = 0; i < 9; ++i) {
        t.recordActivation(0, 0, 42, 0);
        t.recordActivation(0, 1, 42, 0);
        t.recordActivation(1, 0, 42, 0);
    }
    EXPECT_TRUE(t.recordActivation(0, 0, 42, 0));
    EXPECT_TRUE(t.recordActivation(0, 1, 42, 0));
    EXPECT_TRUE(t.recordActivation(1, 0, 42, 0));
}

TEST(MisraGries, EpochResetClearsCounts)
{
    MisraGriesTracker t(mgConfig(10));
    for (int i = 0; i < 9; ++i)
        t.recordActivation(0, 0, 42, 0);
    t.resetEpoch();
    EXPECT_FALSE(t.recordActivation(0, 0, 42, 0));
}

TEST(MisraGries, TableSizedFromActMax)
{
    // entries = ceil(actMax / ts) * overProvision.
    MisraGriesTracker t(mgConfig(100));
    EXPECT_EQ(t.entriesPerBank(), 2000u);
}

TEST(MisraGries, GuaranteeUnderAdversarialNoise)
{
    // One row gets ts activations amid heavy one-off noise; the
    // tracker must still fire for it (possibly early, never late).
    MisraGriesConfig cfg = mgConfig(50);
    cfg.actMaxPerEpoch = 10000;
    MisraGriesTracker t(cfg);
    Rng rng(9);
    bool fired = false;
    int hotActs = 0;
    for (int i = 0; i < 10000 && !fired; ++i) {
        if (i % 3 == 0) {
            ++hotActs;
            fired = t.recordActivation(0, 0, 7, 0);
        } else {
            t.recordActivation(0, 0,
                               static_cast<RowId>(
                                   10 + rng.nextBelow(100000)), 0);
        }
    }
    EXPECT_TRUE(fired);
    EXPECT_LE(hotActs, 50);
}

HydraConfig
hydraConfig(std::uint32_t ts)
{
    HydraConfig cfg;
    cfg.ts = ts;
    cfg.rowsPerBank = 4096;
    cfg.rowsPerGroup = 64;
    cfg.rccEntries = 16;
    return cfg;
}

TEST(Hydra, NoPerRowTrackingBelowGroupThreshold)
{
    HydraTracker t(hydraConfig(100));
    int traffic = 0;
    t.setTrafficHook([&](std::uint32_t, std::uint32_t,
                         MigrationJob) { ++traffic; });
    // Group threshold is ts/2 = 50; stay below it.
    for (int i = 0; i < 49; ++i)
        EXPECT_FALSE(t.recordActivation(0, 0, 10, 0));
    EXPECT_EQ(traffic, 0);
}

TEST(Hydra, FiresAfterTs)
{
    HydraTracker t(hydraConfig(100));
    bool fired = false;
    int acts = 0;
    while (!fired && acts < 300) {
        fired = t.recordActivation(0, 0, 10, 0);
        ++acts;
    }
    EXPECT_TRUE(fired);
    // Pessimistic counter init means it can fire early but never
    // later than ts activations past the group threshold.
    EXPECT_LE(acts, 150);
}

TEST(Hydra, RccMissGeneratesCounterTraffic)
{
    HydraTracker t(hydraConfig(100));
    std::vector<MigrationJob> jobs;
    t.setTrafficHook([&](std::uint32_t, std::uint32_t,
                         MigrationJob job) {
        jobs.push_back(std::move(job));
    });
    // Drive one group hot, then touch a row in it.
    for (int i = 0; i < 50; ++i)
        t.recordActivation(0, 0, 10, 0);
    t.recordActivation(0, 0, 10, 0);
    ASSERT_FALSE(jobs.empty());
    EXPECT_EQ(jobs[0].kind, MigrationJob::Kind::CounterAccess);
    EXPECT_EQ(t.stats().get("rcc_misses"), 1u);
}

TEST(Hydra, RccHitsAvoidTraffic)
{
    HydraTracker t(hydraConfig(100));
    int traffic = 0;
    t.setTrafficHook([&](std::uint32_t, std::uint32_t,
                         MigrationJob) { ++traffic; });
    for (int i = 0; i < 50; ++i)
        t.recordActivation(0, 0, 10, 0);
    for (int i = 0; i < 20; ++i)
        t.recordActivation(0, 0, 10, 0);
    EXPECT_EQ(traffic, 1); // one miss, then hits
    EXPECT_EQ(t.stats().get("rcc_hits"), 19u);
}

TEST(Hydra, RccCapacityCausesEvictions)
{
    HydraConfig cfg = hydraConfig(100);
    cfg.rccEntries = 4;
    HydraTracker t(cfg);
    // Heat one group, then touch more distinct rows than the RCC
    // holds.
    for (int i = 0; i < 50; ++i)
        t.recordActivation(0, 0, 0, 0);
    for (RowId r = 0; r < 8; ++r)
        t.recordActivation(0, 0, r, 0);
    EXPECT_GT(t.stats().get("rcc_evictions"), 0u);
}

TEST(Hydra, EpochResetClearsState)
{
    HydraTracker t(hydraConfig(100));
    for (int i = 0; i < 60; ++i)
        t.recordActivation(0, 0, 10, 0);
    t.resetEpoch();
    int traffic = 0;
    t.setTrafficHook([&](std::uint32_t, std::uint32_t,
                         MigrationJob) { ++traffic; });
    // Group counters were cleared: below threshold again.
    for (int i = 0; i < 49; ++i)
        t.recordActivation(0, 0, 10, 0);
    EXPECT_EQ(traffic, 0);
}


// ---------------------------------------------------------------------
// Counting Bloom filters (BlockHammer substrate).
// ---------------------------------------------------------------------

CountingBloomConfig
bloomConfig(std::uint32_t counters = 1024, std::uint32_t hashes = 4)
{
    CountingBloomConfig cfg;
    cfg.counters = counters;
    cfg.hashes = hashes;
    return cfg;
}

TEST(CountingBloom, EmptyEstimatesZero)
{
    CountingBloom cbf(bloomConfig(), 1);
    for (RowId r : {0u, 5u, 1000u, 131071u})
        EXPECT_EQ(cbf.estimate(r), 0u);
}

TEST(CountingBloom, NeverUnderCounts)
{
    // The BlockHammer safety property: estimate >= true count.
    CountingBloom cbf(bloomConfig(256, 2), 7);
    Rng rng(3);
    std::unordered_map<RowId, std::uint32_t> truth;
    for (int i = 0; i < 5000; ++i) {
        const RowId r = static_cast<RowId>(rng.nextBelow(512));
        ++truth[r];
        cbf.insert(r);
    }
    for (const auto &[row, count] : truth)
        ASSERT_GE(cbf.estimate(row), count) << "row " << row;
}

TEST(CountingBloom, ExactWhenUncontended)
{
    CountingBloom cbf(bloomConfig(4096, 4), 9);
    for (int i = 0; i < 100; ++i)
        cbf.insert(42);
    EXPECT_EQ(cbf.estimate(42), 100u);
}

TEST(CountingBloom, ConservativeUpdateTightensEstimates)
{
    CountingBloomConfig plain = bloomConfig(128, 4);
    plain.conservativeUpdate = false;
    CountingBloomConfig cons = bloomConfig(128, 4);
    CountingBloom a(plain, 5);
    CountingBloom b(cons, 5);
    Rng rng(17);
    std::vector<RowId> keys;
    for (int i = 0; i < 2000; ++i) {
        const RowId r = static_cast<RowId>(rng.nextBelow(256));
        keys.push_back(r);
        a.insert(r);
        b.insert(r);
    }
    std::uint64_t sumPlain = 0, sumCons = 0;
    for (RowId r = 0; r < 256; ++r) {
        sumPlain += a.estimate(r);
        sumCons += b.estimate(r);
    }
    EXPECT_LE(sumCons, sumPlain);
}

TEST(CountingBloom, SaturatesAtCounterWidth)
{
    CountingBloomConfig cfg = bloomConfig(64, 2);
    cfg.counterBits = 4;
    CountingBloom cbf(cfg, 1);
    for (int i = 0; i < 100; ++i)
        cbf.insert(7);
    EXPECT_EQ(cbf.estimate(7), 15u);
}

TEST(CountingBloom, ClearResets)
{
    CountingBloom cbf(bloomConfig(), 1);
    cbf.insert(3);
    EXPECT_EQ(cbf.inserts(), 1u);
    cbf.clear();
    EXPECT_EQ(cbf.estimate(3), 0u);
    EXPECT_EQ(cbf.inserts(), 0u);
}

TEST(CountingBloom, StorageBits)
{
    EXPECT_EQ(CountingBloom(bloomConfig(8192, 4), 1).storageBits(),
              8192u * 16);
}

TEST(CountingBloom, RejectsBadConfig)
{
    CountingBloomConfig bad = bloomConfig(1000); // not a power of two
    EXPECT_THROW(CountingBloom(bad, 1), FatalError);
    bad = bloomConfig(1024, 0);
    EXPECT_THROW(CountingBloom(bad, 1), FatalError);
    bad = bloomConfig(1024, 4);
    bad.counterBits = 0;
    EXPECT_THROW(CountingBloom(bad, 1), FatalError);
}

TEST(DualCountingBloom, RotationForgetsOldHistory)
{
    DualCountingBloom dual(bloomConfig(), 11);
    for (int i = 0; i < 50; ++i)
        dual.insert(9);
    EXPECT_GE(dual.estimate(9), 50u);
    dual.rotate(); // history moves to the passive filter
    EXPECT_GE(dual.estimate(9), 50u);
    dual.rotate(); // second rotation clears it
    EXPECT_EQ(dual.estimate(9), 0u);
    EXPECT_EQ(dual.rotations(), 2u);
}

TEST(DualCountingBloom, EstimateSpansWindowBoundary)
{
    // A row hammered across a rotation must not lose its count —
    // the reason BlockHammer keeps two filters.
    DualCountingBloom dual(bloomConfig(), 11);
    for (int i = 0; i < 30; ++i)
        dual.insert(4);
    dual.rotate();
    for (int i = 0; i < 5; ++i)
        dual.insert(4);
    EXPECT_GE(dual.estimate(4), 30u);
}

TEST(DualCountingBloom, ClearAllZeroesBoth)
{
    DualCountingBloom dual(bloomConfig(), 11);
    dual.insert(4);
    dual.rotate();
    dual.insert(4);
    dual.clearAll();
    EXPECT_EQ(dual.estimate(4), 0u);
}

TEST(DualCountingBloom, StorageIsTwoFilters)
{
    DualCountingBloom dual(bloomConfig(8192, 4), 1);
    EXPECT_EQ(dual.storageBits(), 2u * 8192 * 16);
}

/** False-positive pressure: estimates stay near truth when the
 *  filter is provisioned for the live key count. */
class BloomAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(BloomAccuracy, ProvisionedFilterStaysTight)
{
    CountingBloom cbf(bloomConfig(8192, 4), GetParam());
    Rng rng(GetParam() * 31 + 5);
    std::unordered_map<RowId, std::uint32_t> truth;
    // ~500 live keys in an 8K-counter filter: BlockHammer's regime.
    for (int i = 0; i < 20000; ++i) {
        const RowId r = static_cast<RowId>(rng.nextBelow(500));
        ++truth[r];
        cbf.insert(r);
    }
    std::uint64_t overshoot = 0, total = 0;
    for (const auto &[row, count] : truth) {
        ASSERT_GE(cbf.estimate(row), count);
        overshoot += cbf.estimate(row) - count;
        total += count;
    }
    // Aggregate over-approximation below 5% of the inserted mass.
    EXPECT_LT(static_cast<double>(overshoot),
              0.05 * static_cast<double>(total));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BloomAccuracy, ::testing::Range(1, 9));

} // namespace
} // namespace srs
