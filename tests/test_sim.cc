/**
 * @file
 * Integration tests for the full system: baseline execution, the
 * Juggernaut access pattern end-to-end against RRS vs SRS (the
 * paper's central security claim, observed in the activation ground
 * truth), Scale-SRS LLC pinning, and the experiment harness.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/attack.hh"
#include "trace/synthetic.hh"

namespace srs
{
namespace
{

ExperimentConfig
quickExp()
{
    ExperimentConfig exp;
    exp.cycles = 400'000;
    exp.epochLen = 800'000;
    return exp;
}

SystemConfig
attackConfig(MitigationKind kind, std::uint32_t trh = 600,
             std::uint32_t rate = 6)
{
    ExperimentConfig exp = quickExp();
    SystemConfig cfg = makeSystemConfig(exp, kind, trh, rate);
    cfg.numCores = 1;
    cfg.srsCfg.modelCounterTraffic = false;
    return cfg;
}

/**
 * Run an attacker trace for @p cycles and return the final
 * activation ground truth at the aggressor's home slot.
 */
struct AttackOutcome
{
    std::uint64_t homeActs;
    std::uint64_t maxActs;
    std::uint64_t swaps;
    std::uint64_t unswapSwaps;
};

AttackOutcome
runAttack(MitigationKind kind, RowId aggressor, Cycle cycles)
{
    SystemConfig cfg = attackConfig(kind);
    System sys(cfg);
    // A hammer on the logical aggressor follows it through swaps and
    // keeps forcing mitigations — the Juggernaut biasing phase.
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0,
                        aggressor));
    sys.run(cycles);
    AttackOutcome out;
    out.homeActs =
        sys.controller().bankAt(0, 0).activationsOf(aggressor);
    out.maxActs = sys.maxEpochActivations();
    out.swaps = sys.mitigation().stats().get("swaps");
    out.unswapSwaps = sys.mitigation().stats().get("unswap_swaps");
    return out;
}

TEST(SystemIntegration, BaselineRunsAndRetires)
{
    ExperimentConfig exp = quickExp();
    SystemConfig cfg = makeSystemConfig(exp, MitigationKind::None,
                                        1200, 6);
    const RunResult r =
        runWorkload(cfg, profileByName("streamcluster"), exp);
    EXPECT_GT(r.aggregateIpc, 0.5);
    EXPECT_EQ(r.swaps, 0u);
    EXPECT_EQ(r.latentActivations, 0u);
}

TEST(SystemIntegration, HammerWithoutMitigationCrossesTrh)
{
    const AttackOutcome out =
        runAttack(MitigationKind::None, 5000, 400'000);
    // An unprotected bank lets the hammer exceed T_RH = 600 easily.
    EXPECT_GT(out.homeActs, 600u);
    EXPECT_EQ(out.swaps, 0u);
}

TEST(SystemIntegration, RrsAccumulatesLatentBiasAtHomeSlot)
{
    const AttackOutcome rrs =
        runAttack(MitigationKind::Rrs, 5000, 400'000);
    // Mitigation engaged and kept unswap-swapping the aggressor.
    EXPECT_GT(rrs.swaps, 0u);
    EXPECT_GT(rrs.unswapSwaps, 2u);
    // Home slot: ~T_S demand acts + latent acts per round.
    EXPECT_GT(rrs.homeActs, 100u + rrs.unswapSwaps);
}

TEST(SystemIntegration, SrsCapsHomeSlotActivations)
{
    const AttackOutcome srs =
        runAttack(MitigationKind::Srs, 5000, 400'000);
    EXPECT_GT(srs.swaps, 2u);
    EXPECT_EQ(srs.unswapSwaps, 0u);
    // Equation 11: home slot stays near T_S (+1 initial latent),
    // no matter how long the attack runs.
    EXPECT_LE(srs.homeActs, 100u + 2u);
}

TEST(SystemIntegration, SrsStrictlySaferThanRrsUnderJuggernaut)
{
    const AttackOutcome rrs =
        runAttack(MitigationKind::Rrs, 5000, 400'000);
    const AttackOutcome srs =
        runAttack(MitigationKind::Srs, 5000, 400'000);
    EXPECT_GT(rrs.homeActs, srs.homeActs);
}

TEST(SystemIntegration, JuggernautTraceDrivesBothPhases)
{
    SystemConfig cfg = attackConfig(MitigationKind::Rrs);
    System sys(cfg);
    auto trace = std::make_unique<JuggernautTrace>(
        sys.controller().addressMap(), 0, 0, 5000, cfg.mit.ts(), 5,
        99);
    JuggernautTrace *probe = trace.get();
    sys.setTrace(0, std::move(trace));
    sys.run(800'000);
    EXPECT_TRUE(probe->guessing());
    EXPECT_GT(probe->guessesMade(), 3u);
    EXPECT_GT(sys.mitigation().stats().get("mitigations"), 5u);
}

TEST(SystemIntegration, ScaleSrsPinsAndAbsorbsOutlier)
{
    // Repeatedly hammering the same logical row makes its physical
    // slot... move; instead hammer the same slot's residents via the
    // counter path: at swap rate 6 with outlierSwaps = 1 the very
    // first crossing pins the row — that exercises the full
    // pin path (detector -> pin-buffer -> absorbed accesses).
    SystemConfig cfg = attackConfig(MitigationKind::ScaleSrs);
    cfg.scaleCfg.outlierSwaps = 1;
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 5000));
    sys.run(400'000);
    EXPECT_GE(sys.mitigation().stats().get("rows_pinned"), 1u);
    EXPECT_GT(sys.stats().get("pinned_absorbed"), 0u);
    // Once pinned, the aggressor's slot stops accumulating: far
    // below what the unprotected run reached.
    EXPECT_LT(sys.maxEpochActivations(), 2000u);
}

TEST(SystemIntegration, EpochBoundariesFireAndUnpin)
{
    SystemConfig cfg = attackConfig(MitigationKind::ScaleSrs);
    cfg.scaleCfg.outlierSwaps = 1;
    cfg.epochLen = 100'000;
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 5000));
    sys.run(450'000);
    EXPECT_EQ(sys.epochsCompleted(), 4u);
    // Pins are cleared at each refresh boundary and re-established
    // when the attack persists.
    EXPECT_GT(sys.stats().get("pinned_rows_restored"), 0u);
}

TEST(SystemIntegration, RefusedPinRestoresCountAsDropped)
{
    // With no write-queue slots every restore write is refused: the
    // boundary must report it dropped, not restored.
    SystemConfig cfg = attackConfig(MitigationKind::ScaleSrs);
    cfg.scaleCfg.outlierSwaps = 1;
    cfg.epochLen = 100'000;
    cfg.memCtrl.writeQueueDepth = 0;
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 5000));
    sys.run(450'000);
    EXPECT_EQ(sys.controller().stats().get("writes_enqueued"), 0u);
    EXPECT_EQ(sys.stats().get("pinned_rows_restored"), 0u);
    EXPECT_GE(sys.stats().get("pinned_restores_dropped"), 1u);
}

TEST(SystemIntegration, MitigationsSlowDownAttackThroughput)
{
    // Swap busy-time must cost the attacker throughput: the
    // protected run completes fewer demand activations.
    const AttackOutcome none =
        runAttack(MitigationKind::None, 5000, 300'000);
    const AttackOutcome rrs =
        runAttack(MitigationKind::Rrs, 5000, 300'000);
    EXPECT_LT(rrs.maxActs, none.maxActs);
}

TEST(SystemIntegration, HydraTrackerDrivesMitigations)
{
    SystemConfig cfg = attackConfig(MitigationKind::Srs);
    cfg.tracker = TrackerKind::Hydra;
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 5000));
    sys.run(300'000);
    EXPECT_GT(sys.mitigation().stats().get("mitigations"), 0u);
    // Hydra's RCT traffic appears as counter accesses.
    EXPECT_GT(sys.controller().stats().get(
                  "mig_started_counter_access"), 0u);
}

TEST(SystemIntegration, FullLlcModeFiltersTraffic)
{
    ExperimentConfig exp = quickExp();
    SystemConfig cfg = makeSystemConfig(exp, MitigationKind::None,
                                        1200, 6);
    cfg.modelLlc = true;
    const RunResult r = runWorkload(cfg, profileByName("hmmer"), exp);
    EXPECT_GT(r.aggregateIpc, 0.0);
}


// ---------------------------------------------------------------------
// Related-work defenses through the full System stack.
// ---------------------------------------------------------------------

TEST(SystemIntegration, BlockHammerThrottlesHammerStream)
{
    // Under BlockHammer the hammered row gets blacklisted; the
    // controller then spaces its ACTs, so the ground-truth count
    // stays bounded while a baseline run blows straight past it.
    SystemConfig cfg = attackConfig(MitigationKind::BlockHammer);
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 700));
    sys.run(400'000);
    const auto &stats = sys.mitigation().stats();
    EXPECT_GT(stats.get("rows_blacklisted"), 0u);
    EXPECT_GT(stats.get("throttled_acts"), 0u);
    // No row movement ever happens.
    EXPECT_EQ(stats.get("swaps"), 0u);
    EXPECT_EQ(sys.mitigation().indirection(0, 0).entries(), 0u);

    SystemConfig base = attackConfig(MitigationKind::None);
    System unprotected(base);
    unprotected.setTrace(
        0, std::make_unique<HammerTrace>(
               unprotected.controller().addressMap(), 0, 0, 700));
    unprotected.run(400'000);
    EXPECT_LT(sys.controller().bankAt(0, 0).activationsOf(700),
              unprotected.controller().bankAt(0, 0)
                  .activationsOf(700));
}

TEST(SystemIntegration, BlockHammerLeavesBenignTrafficAlone)
{
    SystemConfig cfg = attackConfig(MitigationKind::BlockHammer);
    System sys(cfg);
    sys.setTrace(0, std::make_unique<SyntheticTrace>(
                        profileByName("comm1"),
                        sys.controller().addressMap(), 0, 1));
    sys.run(400'000);
    EXPECT_EQ(sys.mitigation().stats().get("throttled_acts"), 0u);
    EXPECT_GT(sys.aggregateIpc(), 0.0);
}

TEST(SystemIntegration, AquaQuarantinesHammeredRow)
{
    SystemConfig cfg = attackConfig(MitigationKind::Aqua);
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 700));
    sys.run(400'000);
    const auto &stats = sys.mitigation().stats();
    EXPECT_GT(stats.get("quarantine_moves"), 0u);
    // Home-slot ground truth stays close to T_S: the home only sees
    // demand acts before the first migration (plus the move itself).
    const std::uint64_t ts = cfg.mit.ts();
    EXPECT_LE(sys.controller().bankAt(0, 0).activationsOf(700),
              2 * ts + 8);
}

TEST(SystemIntegration, AquaHomeStaysColdLikeSrs)
{
    // AQUA shares the SRS security property (no unswap-swap latent
    // activations at the home slot) and both beat RRS.
    const AttackOutcome aqua =
        runAttack(MitigationKind::Aqua, 700, 400'000);
    const AttackOutcome rrs =
        runAttack(MitigationKind::Rrs, 700, 400'000);
    EXPECT_LT(aqua.homeActs, rrs.homeActs);
}


TEST(SystemIntegration, CbtTrackerDrivesMitigations)
{
    SystemConfig cfg = attackConfig(MitigationKind::Srs);
    cfg.tracker = TrackerKind::Cbt;
    System sys(cfg);
    sys.setTrace(0, std::make_unique<HammerTrace>(
                        sys.controller().addressMap(), 0, 0, 700));
    sys.run(400'000);
    // The counter tree narrows onto the hammered row and fires; the
    // SRS machinery behind it swaps as usual.
    EXPECT_GT(sys.mitigation().stats().get("mitigations"), 0u);
    EXPECT_GT(sys.mitigation().stats().get("swaps"), 0u);
    EXPECT_STREQ(sys.tracker().name(), "cbt");
}

TEST(ExperimentHarness, NormalizedPerfNearOneForLightWorkload)
{
    ExperimentConfig exp = quickExp();
    const double norm =
        normalizedPerf(exp, MitigationKind::ScaleSrs, 4800, 3,
                       profileByName("swaptions"));
    EXPECT_NEAR(norm, 1.0, 0.02);
}

TEST(ExperimentHarness, RunIsDeterministic)
{
    ExperimentConfig exp = quickExp();
    SystemConfig cfg = makeSystemConfig(exp, MitigationKind::Rrs,
                                        1200, 6);
    const RunResult a = runWorkload(cfg, profileByName("gcc"), exp);
    const RunResult b = runWorkload(cfg, profileByName("gcc"), exp);
    EXPECT_DOUBLE_EQ(a.aggregateIpc, b.aggregateIpc);
    EXPECT_EQ(a.swaps, b.swaps);
}

TEST(ExperimentHarness, MixRunsPerCoreProfiles)
{
    ExperimentConfig exp = quickExp();
    SystemConfig cfg = makeSystemConfig(exp, MitigationKind::None,
                                        1200, 6);
    const RunResult r =
        runWorkloadMix(cfg, mixWorkload(0, cfg.numCores), exp);
    EXPECT_GT(r.aggregateIpc, 0.0);
    EXPECT_EQ(r.coreIpc.size(), cfg.numCores);
}

TEST(ExperimentHarness, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(geoMean({0.5, 2.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
}

TEST(SystemConfigTest, EpochDefaultsTo64ms)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.effectiveEpochLen(),
              nsToCycles(64e6, cfg.timingNs.cpuFreqGHz));
    // ACT_max ~ 1.36 million for the full 64 ms window (paper II-B).
    EXPECT_NEAR(static_cast<double>(cfg.actMaxPerEpoch()), 1.36e6,
                0.05e6);
}

TEST(SystemConfigTest, MitigationNames)
{
    EXPECT_STREQ(mitigationKindName(MitigationKind::None), "baseline");
    EXPECT_STREQ(mitigationKindName(MitigationKind::Rrs), "rrs");
    EXPECT_STREQ(mitigationKindName(MitigationKind::ScaleSrs),
                 "scale-srs");
}

TEST(SystemIntegration, DirtyVictimWritebackNeverSilentlyDropped)
{
    // Regression: in full-LLC mode an access was admitted when the
    // *miss address* had queue space, but the dirty victim it evicts
    // can live on a different (full) channel — its writeback was
    // enqueue()d into a full queue and silently discarded, losing
    // committed stores.  The access must be rejected up front
    // instead, leaving the victim cached and dirty.
    SystemConfig cfg;
    cfg.modelLlc = true;
    System sys(cfg);
    MemoryController &ctrl = sys.controller();
    const AddressMap &map = ctrl.addressMap();
    const SetAssocCache &tags = sys.llc().cache();

    // Addresses that all map to LLC set 0: multiples of
    // lineBytes * numSets.  Order them victim-first with the victim
    // on channel 0, the channel the test saturates.
    const Addr setStride =
        static_cast<Addr>(cfg.llc.lineBytes) * tags.numSets();
    const std::uint32_t ways = cfg.llc.ways;
    std::vector<Addr> fills;
    for (Addr k = 0; fills.size() < ways + 1; ++k) {
        const Addr a = k * setStride;
        if (fills.empty() && map.decode(a).channel != 0)
            continue;
        fills.push_back(a);
    }
    const Addr victim = fills[0];
    const Addr missAddr = fills[ways];

    // Dirty the whole set; the first line written is the LRU victim.
    Cycle lat = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        sys.access(fills[w], true, 0, w, 0, lat);
    ASSERT_TRUE(tags.contains(victim));

    // Saturate channel 0's write queue.
    std::uint32_t row = 1000;
    while (ctrl.canAccept(map.rowBaseAddr(0, 0, 0, row), true)) {
        ctrl.enqueue(map.rowBaseAddr(0, 0, 0, row), true, 0, 0);
        ++row;
    }

    // The miss itself fits, but the victim's writeback does not:
    // the access must bounce without touching the tags.
    const auto out = sys.access(missAddr, false, 0, 99, 0, lat);
    EXPECT_EQ(out, CoreMemoryInterface::Outcome::Reject);
    EXPECT_EQ(sys.stats().get("writebacks_dropped"), 0u);
    EXPECT_TRUE(tags.contains(victim));
    EXPECT_FALSE(tags.contains(missAddr));

    // Drain the writes; the same access then lands and posts the
    // victim's writeback instead of dropping it.
    Cycle now = 0;
    while (!ctrl.canAccept(map.rowBaseAddr(0, 0, 0, row), true) &&
           now < 1'000'000) {
        ctrl.tick(now);
        now += ctrl.timing().busClock;
    }
    ASSERT_TRUE(ctrl.canAccept(map.rowBaseAddr(0, 0, 0, row), true));
    const auto out2 = sys.access(missAddr, false, 0, 100, now, lat);
    EXPECT_EQ(out2, CoreMemoryInterface::Outcome::Pending);
    EXPECT_EQ(sys.stats().get("writebacks_dropped"), 0u);
    EXPECT_FALSE(tags.contains(victim));
    EXPECT_EQ(sys.llc().stats().get("writebacks"), 0u);
    EXPECT_EQ(sys.llc().cache().stats().get("writebacks"), 1u);
}

} // namespace
} // namespace srs
