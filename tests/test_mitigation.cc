/**
 * @file
 * Unit tests for the mitigations: RRS swap/unswap-swap choreography
 * and its latent activations, SRS swap-only behaviour, Scale-SRS
 * outlier pinning, and lazy eviction pacing.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "memctrl/controller.hh"
#include "mitigation/aqua.hh"
#include "mitigation/blockhammer.hh"
#include "mitigation/rrs.hh"
#include "mitigation/scale_srs.hh"
#include "mitigation/srs.hh"
#include "tracker/misra_gries.hh"

namespace srs
{
namespace
{

struct MitFixture : public ::testing::Test
{
    MitFixture()
        : timing(DramTiming::fromNs(DramTimingNs{})),
          ctrl(org, timing),
          tracker(trackerConfig())
    {
    }

    static MisraGriesConfig
    trackerConfig()
    {
        MisraGriesConfig cfg;
        cfg.ts = 100;
        cfg.actMaxPerEpoch = 100000;
        return cfg;
    }

    static MitigationConfig
    mitConfig()
    {
        MitigationConfig cfg;
        cfg.trh = 600;
        cfg.swapRate = 6; // ts = 100, matches the tracker
        return cfg;
    }

    /** Feed @p n activations of the row logical @p row through the
     *  mitigation, resolving remap each time like the controller
     *  does, and run migrations to completion. */
    void
    hammer(Mitigation &mit, RowId row, int n)
    {
        for (int i = 0; i < n; ++i) {
            const RowId phys = mit.remapRow(0, 0, row);
            ctrl.bankAt(0, 0).chargeActivation(phys);
            mit.onActivate(0, 0, phys, now);
            drainMigrations();
        }
    }

    void
    drainMigrations()
    {
        // Advance the controller until all queued migrations ran.
        int guard = 0;
        while ((ctrl.pendingMigrations(0, 0) > 0 ||
                ctrl.bankAt(0, 0).blocked(now)) &&
               guard++ < 1000000) {
            ctrl.tick(now);
            now += timing.busClock;
        }
    }

    DramOrg org;
    DramTiming timing;
    MemoryController ctrl;
    MisraGriesTracker tracker;
    Cycle now = 0;
};

TEST_F(MitFixture, RrsFirstCrossingSwaps)
{
    Rrs rrs(ctrl, tracker, mitConfig());
    hammer(rrs, 500, 100);
    EXPECT_EQ(rrs.stats().get("mitigations"), 1u);
    EXPECT_EQ(rrs.stats().get("swaps"), 1u);
    EXPECT_EQ(rrs.stats().get("unswap_swaps"), 0u);
    // Logical row 500 no longer lives in its home slot.
    EXPECT_NE(rrs.indirection(0, 0).remap(500), 500u);
    EXPECT_EQ(rrs.indirection(0, 0).entries(), 2u);
}

TEST_F(MitFixture, RrsSecondCrossingUnswapSwaps)
{
    Rrs rrs(ctrl, tracker, mitConfig());
    hammer(rrs, 500, 200);
    EXPECT_EQ(rrs.stats().get("mitigations"), 2u);
    EXPECT_EQ(rrs.stats().get("swaps"), 1u);
    EXPECT_EQ(rrs.stats().get("unswap_swaps"), 1u);
}

TEST_F(MitFixture, RrsLatentActivationsAccumulateAtHome)
{
    // The heart of the Juggernaut exploit (paper Section II-F):
    // N unswap-swap rounds leave ~1.5 N latent activations at the
    // aggressor's original physical slot.
    Rrs rrs(ctrl, tracker, mitConfig());
    const RowId home = 500;
    const int rounds = 20;
    hammer(rrs, home, 100 * (rounds + 1));
    const std::uint64_t latent =
        ctrl.stats().get("latent_activations");
    // Swap: 2 charges; each unswap-swap: >= 3 charges.
    EXPECT_GE(latent, static_cast<std::uint64_t>(2 + 3 * rounds));
    // Ground truth at the home slot: demand acts landed there only
    // before the first swap (100), the rest is latent bias.
    const std::uint64_t homeActs =
        ctrl.bankAt(0, 0).activationsOf(home);
    EXPECT_GE(homeActs, 100u + rounds); // >= 1 latent per round
    EXPECT_LE(homeActs, 100u + 2u * rounds + 2u);
}

TEST_F(MitFixture, SrsAvoidsLatentAccumulationAtHome)
{
    // Equation 11: with swap-only indirection the home slot sees
    // only the initial-swap latent activation, no matter how many
    // rounds the attacker forces.
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    Srs srs(ctrl, tracker, mitConfig(), srsCfg);
    const RowId home = 500;
    const int rounds = 20;
    hammer(srs, home, 100 * (rounds + 1));
    EXPECT_EQ(srs.stats().get("swaps"),
              static_cast<std::uint64_t>(rounds + 1));
    EXPECT_EQ(srs.stats().get("unswap_swaps"), 0u);
    const std::uint64_t homeActs =
        ctrl.bankAt(0, 0).activationsOf(home);
    EXPECT_LE(homeActs, 100u + 1u);
}

TEST_F(MitFixture, SrsSwapCountersTrackMitigations)
{
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    Srs srs(ctrl, tracker, mitConfig(), srsCfg);
    hammer(srs, 500, 100);
    // One swap at the home slot: counter = ts + 1 latent.
    EXPECT_EQ(srs.counters(0, 0).countOf(500, srs.epochId()), 101u);
}

TEST_F(MitFixture, SrsCounterTrafficOccupiesBank)
{
    Srs srs(ctrl, tracker, mitConfig()); // traffic modelling on
    hammer(srs, 500, 100);
    EXPECT_EQ(ctrl.stats().get("mig_started_counter_access"), 1u);
}

TEST_F(MitFixture, ScaleSrsPinsOutliers)
{
    MitigationConfig cfg = mitConfig();
    cfg.swapRate = 6;
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    ScaleSrsConfig scaleCfg;
    scaleCfg.outlierSwaps = 3;
    ScaleSrs scale(ctrl, tracker, cfg, srsCfg, scaleCfg);
    std::vector<RowId> pinned;
    scale.setPinHook([&](std::uint32_t, std::uint32_t, RowId row) {
        pinned.push_back(row);
        return true;
    });
    // Random-guess attack analogue: keep hammering whatever row sits
    // in the same physical slot so its counter accumulates.
    const RowId slot = 500;
    for (int landing = 0; landing < 3; ++landing) {
        const RowId resident =
            scale.indirection(0, 0).logicalAt(slot);
        hammer(scale, resident, 100);
    }
    EXPECT_GE(scale.stats().get("outliers_detected"), 1u);
    ASSERT_FALSE(pinned.empty());
    EXPECT_GE(scale.stats().get("rows_pinned"), 1u);
    // Counted only when a pin is refused, so dumps stay unchanged.
    EXPECT_EQ(scale.stats().all().count("pins_rejected"), 0u);
}

TEST_F(MitFixture, ScaleSrsCountsRefusedPins)
{
    // A full pin-buffer refuses every pin: each outlier is counted
    // as pins_rejected, none as rows_pinned.
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    ScaleSrsConfig scaleCfg;
    scaleCfg.outlierSwaps = 1;
    ScaleSrs scale(ctrl, tracker, mitConfig(), srsCfg, scaleCfg);
    int refusals = 0;
    scale.setPinHook([&](std::uint32_t, std::uint32_t, RowId) {
        ++refusals;
        return false;
    });
    EXPECT_EQ(scale.stats().all().count("pins_rejected"), 0u);
    hammer(scale, 500, 100);
    hammer(scale, 700, 100);
    ASSERT_EQ(scale.stats().get("outliers_detected"), 2u);
    EXPECT_EQ(refusals, 2);
    EXPECT_EQ(scale.stats().get("pins_rejected"), 2u);
    EXPECT_EQ(scale.stats().all().count("rows_pinned"), 0u);
}

TEST_F(MitFixture, ScaleSrsNoOutlierForSpreadTraffic)
{
    ScaleSrsConfig scaleCfg;
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    ScaleSrs scale(ctrl, tracker, mitConfig(), srsCfg, scaleCfg);
    int pins = 0;
    scale.setPinHook([&](std::uint32_t, std::uint32_t, RowId) {
        ++pins;
        return true;
    });
    // Different rows crossing once each: no slot accumulates 3 T_S.
    for (RowId row = 1000; row < 1010; ++row)
        hammer(scale, row, 100);
    EXPECT_EQ(pins, 0);
    EXPECT_EQ(scale.stats().get("outliers_detected"), 0u);
}

TEST_F(MitFixture, LazyPlaceBackDrainsStaleEntries)
{
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    Srs srs(ctrl, tracker, mitConfig(), srsCfg);
    hammer(srs, 500, 100);
    hammer(srs, 700, 100);
    EXPECT_GT(srs.indirection(0, 0).entries(), 0u);
    // Epoch turns: stale mappings are placed back, paced over the
    // next epoch.
    srs.onEpochEnd(now, 100000);
    for (int i = 0; i < 200000; ++i) {
        srs.tick(now);
        ctrl.tick(now);
        now += timing.busClock;
    }
    drainMigrations();
    EXPECT_EQ(srs.indirection(0, 0).entries(), 0u);
    EXPECT_GT(srs.stats().get("place_backs"), 0u);
}

TEST_F(MitFixture, RrsNoUnswapChainsThenBurstRestores)
{
    Rrs rrs(ctrl, tracker, mitConfig(), RrsConfig{false});
    hammer(rrs, 500, 300); // three crossings, chained swaps
    EXPECT_EQ(rrs.stats().get("swaps"), 3u);
    EXPECT_EQ(rrs.stats().get("unswap_swaps"), 0u);
    EXPECT_GE(rrs.indirection(0, 0).entries(), 3u);
    rrs.onEpochEnd(now, 100000);
    drainMigrations();
    // The burst restore happens at the boundary (Figure 4's spike).
    EXPECT_GT(rrs.stats().get("burst_restores"), 0u);
    // One more boundary finishes any re-tagged chain remnants.
    rrs.onEpochEnd(now, 100000);
    drainMigrations();
    EXPECT_EQ(rrs.indirection(0, 0).entries(), 0u);
}

TEST_F(MitFixture, EpochRegisterWraps19Bits)
{
    Rrs rrs(ctrl, tracker, mitConfig());
    EXPECT_EQ(rrs.epochId(), 0u);
    rrs.onEpochEnd(now, 1000);
    EXPECT_EQ(rrs.epochId(), 1u);
}

TEST_F(MitFixture, SwapPartnerAvoidsReservedRows)
{
    MitigationConfig cfg = mitConfig();
    cfg.reservedLowRows = 64;
    cfg.seed = 99;
    SrsConfig srsCfg;
    srsCfg.modelCounterTraffic = false;
    Srs srs(ctrl, tracker, cfg, srsCfg);
    for (RowId row = 5000; row < 5040; ++row)
        hammer(srs, row, 100);
    // No partner may land below the reserved counter-row region.
    srs.indirection(0, 0);
    for (RowId phys = 0; phys < 64; ++phys)
        EXPECT_FALSE(srs.indirection(0, 0).displaced(phys));
}

TEST_F(MitFixture, ConfigValidation)
{
    MitigationConfig bad;
    bad.swapRate = 0;
    EXPECT_THROW(Rrs(ctrl, tracker, bad), FatalError);
    MitigationConfig bad2;
    bad2.trh = 3;
    bad2.swapRate = 6;
    EXPECT_THROW(Srs(ctrl, tracker, bad2), FatalError);
}

TEST_F(MitFixture, BaselineDoesNothing)
{
    NoMitigation none(ctrl, tracker, mitConfig());
    hammer(none, 500, 1000);
    EXPECT_EQ(none.stats().get("mitigations"), 10u); // tracked...
    EXPECT_EQ(ctrl.stats().get("latent_activations"), 0u); // ...inert
    EXPECT_EQ(none.remapRow(0, 0, 500), 500u);
}


// ---------------------------------------------------------------------
// BlockHammer (Section IX-A baseline): throttling, no row movement.
// ---------------------------------------------------------------------

TEST_F(MitFixture, BlockHammerNeverRemaps)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    hammer(bh, 500, 250);
    EXPECT_EQ(bh.remapRow(0, 0, 500), 500u);
    EXPECT_EQ(bh.indirection(0, 0).entries(), 0u);
    EXPECT_EQ(bh.stats().get("mitigations"), 0u);
}

TEST_F(MitFixture, BlockHammerBlacklistsAtThreshold)
{
    // T_RH = 600, default fraction 0.5 -> N_BL = 300.
    BlockHammer bh(ctrl, tracker, mitConfig());
    EXPECT_EQ(bh.blacklistThreshold(), 300u);
    hammer(bh, 500, 299);
    EXPECT_EQ(bh.blacklistedRows(0, 0), 0u);
    EXPECT_EQ(bh.actAllowedAt(0, 0, 500, now), 0u);
    hammer(bh, 500, 1);
    EXPECT_EQ(bh.blacklistedRows(0, 0), 1u);
    EXPECT_GT(bh.actAllowedAt(0, 0, 500, now), now);
    EXPECT_GE(bh.stats().get("rows_blacklisted"), 1u);
}

TEST_F(MitFixture, BlockHammerThrottleExpires)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    hammer(bh, 500, 320);
    const Cycle allowed = bh.actAllowedAt(0, 0, 500, now);
    ASSERT_GT(allowed, now);
    // Once the stamp expires the row may activate again.
    EXPECT_EQ(bh.actAllowedAt(0, 0, 500, allowed), 0u);
}

TEST_F(MitFixture, BlockHammerSpacingBoundsEpochActivations)
{
    // Spacing must keep a blacklisted row below T_RH per window:
    // window / spacing + N_BL <= T_RH (with safety factor 1).
    BlockHammer bh(ctrl, tracker, mitConfig());
    const Cycle window = ctrl.timing().tREFI * 8192 / 2;
    const double maxActs =
        static_cast<double>(window) /
        static_cast<double>(bh.throttleSpacing());
    EXPECT_LE(maxActs + bh.blacklistThreshold(),
              static_cast<double>(mitConfig().trh) + 1.0);
}

TEST_F(MitFixture, BlockHammerPaperDosLatency)
{
    // Paper Section IX-A: at T_RH = 4800 requests are delayed by
    // ~20 us per activation.  With N_BL = T_RH/2 and two windows
    // per 64 ms epoch, spacing = 32 ms / 2400 = 13.3 us; the quoted
    // 20 us corresponds to a safety factor of ~0.66.
    MitigationConfig cfg = mitConfig();
    cfg.trh = 4800;
    BlockHammerConfig bhCfg;
    bhCfg.safetyFactor = 0.66;
    BlockHammer bh(ctrl, tracker, cfg, bhCfg);
    const double spacingUs =
        static_cast<double>(bh.throttleSpacing()) / 3200.0; // 3.2 GHz
    EXPECT_NEAR(spacingUs, 20.0, 2.5);
}

TEST_F(MitFixture, BlockHammerBenignRowsUnthrottled)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    // Spread activations over many rows, none crossing N_BL.
    for (RowId r = 1000; r < 1200; ++r)
        hammer(bh, r, 2);
    EXPECT_EQ(bh.blacklistedRows(0, 0), 0u);
    EXPECT_EQ(bh.stats().get("throttled_acts"), 0u);
}

TEST_F(MitFixture, BlockHammerRotationAgesOutBlacklist)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    hammer(bh, 500, 320);
    EXPECT_GE(bh.estimateOf(0, 0, 500), 320u);
    // Two window rotations clear both filters.
    const Cycle window = ctrl.timing().tREFI * 8192 / 2;
    bh.tick(window);
    bh.tick(2 * window);
    EXPECT_EQ(bh.estimateOf(0, 0, 500), 0u);
}

TEST_F(MitFixture, BlockHammerEpochEndRescalesSpacing)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    const Cycle before = bh.throttleSpacing();
    bh.onEpochEnd(now, 1000000); // short test epoch
    EXPECT_LT(bh.throttleSpacing(), before);
}

TEST_F(MitFixture, BlockHammerStorageHasNoRit)
{
    BlockHammer bh(ctrl, tracker, mitConfig());
    // Dual 8K x 16-bit filters + 1KB blocker = 33KB per bank.
    EXPECT_EQ(bh.storageBitsPerBank(),
              2u * 8192 * 16 + 1024u * 8);
}

TEST_F(MitFixture, BlockHammerRejectsBadConfig)
{
    BlockHammerConfig bad;
    bad.blacklistFraction = 1.5;
    EXPECT_THROW(BlockHammer(ctrl, tracker, mitConfig(), bad),
                 FatalError);
    bad = BlockHammerConfig{};
    bad.windowsPerEpoch = 0;
    EXPECT_THROW(BlockHammer(ctrl, tracker, mitConfig(), bad),
                 FatalError);
    bad = BlockHammerConfig{};
    bad.safetyFactor = 0.0;
    EXPECT_THROW(BlockHammer(ctrl, tracker, mitConfig(), bad),
                 FatalError);
}



TEST_F(MitFixture, SrsEpochRegisterWrapSweepsCounters)
{
    // Section IV-F: when the 19-bit epoch register wraps, every
    // per-row swap-tracking counter is reset by a row sweep.
    SrsConfig scfg;
    scfg.modelCounterTraffic = false;
    Srs srsMit(ctrl, tracker, mitConfig(), scfg);
    hammer(srsMit, 500, 100); // one swap -> nonzero counter
    const RowId where = srsMit.indirection(0, 0).remap(500);
    const std::uint32_t epoch = srsMit.epochId();
    ASSERT_GT(srsMit.counters(0, 0).countOf(500, epoch) +
                  srsMit.counters(0, 0).countOf(where, epoch),
              0u);
    // Drive the register to all-1s, then across the wrap.
    for (std::uint32_t e = srsMit.epochId(); e < (1u << 19) - 1; ++e)
        srsMit.onEpochEnd(now, 1000000); // cheap: no stale entries
    EXPECT_EQ(srsMit.epochId(), (1u << 19) - 1);
    srsMit.onEpochEnd(now, 1000000);
    EXPECT_EQ(srsMit.epochId(), 0u);
    EXPECT_EQ(srsMit.stats().get("counter_sweeps"), 1u);
    EXPECT_EQ(srsMit.counters(0, 0).countOf(500, 0), 0u);
    EXPECT_EQ(srsMit.counters(0, 0).stats().get("global_resets"), 1u);
}

// ---------------------------------------------------------------------
// AQUA (Section IX-A baseline): quarantine-region isolation.
// ---------------------------------------------------------------------

AquaConfig
aquaConfig(std::uint32_t slots = 16)
{
    AquaConfig cfg;
    cfg.quarantineRows = slots;
    return cfg;
}

TEST_F(MitFixture, AquaDerivesQuarantineSize)
{
    Aqua aqua(ctrl, tracker, mitConfig());
    // Default: 1% of a 128K-row bank, at the top of the bank.
    EXPECT_EQ(aqua.quarantineRows(), 128u * 1024 / 100);
    EXPECT_EQ(aqua.quarantineBase(),
              128u * 1024 - aqua.quarantineRows());
    EXPECT_TRUE(aqua.inQuarantine(aqua.quarantineBase()));
    EXPECT_FALSE(aqua.inQuarantine(aqua.quarantineBase() - 1));
}

TEST_F(MitFixture, AquaMovesAggressorIntoQuarantine)
{
    Aqua aqua(ctrl, tracker, mitConfig(), aquaConfig());
    hammer(aqua, 500, 100);
    EXPECT_EQ(aqua.stats().get("quarantine_moves"), 1u);
    const RowId where = aqua.indirection(0, 0).remap(500);
    EXPECT_TRUE(aqua.inQuarantine(where));
    EXPECT_EQ(aqua.quarantineOccupancy(0, 0), 1u);
}

TEST_F(MitFixture, AquaReMigrationLeavesHomeUntouched)
{
    // The SRS-like security property: re-hammering a quarantined
    // row moves it to the next slot without touching its home, so
    // latent activations cannot accumulate there (unlike RRS).
    Aqua aqua(ctrl, tracker, mitConfig(), aquaConfig());
    hammer(aqua, 500, 100);
    const std::uint64_t homeActsAfterFirst =
        ctrl.bankAt(0, 0).activationsOf(500);
    hammer(aqua, 500, 300);
    EXPECT_GE(aqua.stats().get("quarantine_moves"), 3u);
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(500),
              homeActsAfterFirst);
}

TEST_F(MitFixture, AquaCursorWrapEvictsOldTenant)
{
    Aqua aqua(ctrl, tracker, mitConfig(), aquaConfig(4));
    // Quarantine 6 distinct aggressors through a 4-slot region.
    for (RowId r = 600; r < 606; ++r)
        hammer(aqua, r, 100);
    EXPECT_GE(aqua.stats().get("quarantine_wraps"), 1u);
    EXPECT_GE(aqua.stats().get("quarantine_evictions"), 1u);
    EXPECT_LE(aqua.quarantineOccupancy(0, 0), 4u);
}

TEST_F(MitFixture, AquaLazyRestoreEmptiesQuarantine)
{
    Aqua aqua(ctrl, tracker, mitConfig(), aquaConfig());
    hammer(aqua, 500, 100);
    hammer(aqua, 700, 100);
    ASSERT_EQ(aqua.quarantineOccupancy(0, 0), 2u);
    // Epoch ends; paced lazy ticks restore the stale tenants.
    aqua.onEpochEnd(now, 1000000);
    for (int i = 0; i < 2000000 && aqua.quarantineOccupancy(0, 0) > 0;
         ++i) {
        aqua.tick(now);
        now += timing.busClock;
        drainMigrations();
    }
    EXPECT_EQ(aqua.quarantineOccupancy(0, 0), 0u);
    EXPECT_EQ(aqua.indirection(0, 0).entries(), 0u);
    EXPECT_EQ(aqua.indirection(0, 0).remap(500), 500u);
    EXPECT_EQ(aqua.indirection(0, 0).remap(700), 700u);
}

TEST_F(MitFixture, AquaStorageIsPointerTables)
{
    Aqua aqua(ctrl, tracker, mitConfig(), aquaConfig(1024));
    // FPT + RPT: 2 x slots x (17-bit row id + valid).
    EXPECT_EQ(aqua.storageBitsPerBank(), 2u * 1024 * 18);
}

TEST_F(MitFixture, AquaRejectsBadQuarantine)
{
    EXPECT_THROW(Aqua(ctrl, tracker, mitConfig(), aquaConfig(1)),
                 FatalError);
    AquaConfig huge;
    huge.quarantineRows = 128 * 1024;
    EXPECT_THROW(Aqua(ctrl, tracker, mitConfig(), huge), FatalError);
}

} // namespace
} // namespace srs
