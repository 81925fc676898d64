/**
 * @file
 * Tests for the analytical security models — these encode the
 * paper's headline numbers as regression checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include <cmath>

#include "common/logging.hh"
#include "security/attack_model.hh"
#include "security/half_double.hh"
#include "security/monte_carlo.hh"
#include "security/outlier_model.hh"
#include "security/power_model.hh"
#include "security/storage_model.hh"

namespace srs
{
namespace
{

constexpr double kHour = 3600.0;
constexpr double kDay = 24 * kHour;
constexpr double kYear = 365 * kDay;

AttackParams
paperParams(std::uint32_t trh = 4800, std::uint32_t rate = 6)
{
    AttackParams p;
    p.trh = trh;
    p.swapRate = rate;
    return p;
}

TEST(Juggernaut, Equation1LatentBias)
{
    JuggernautModel m(paperParams());
    const AttackResult r = m.evaluateRrs(800);
    // Paper Section III-A: 800 rounds -> ~1600 + 1.5*800 = 2800...
    // (text quotes 2401 with L=2 bounds; our L=1.5 average).
    EXPECT_NEAR(r.actAggr, 2.0 * 800 + 1.5 * 800, 1.0);
    EXPECT_EQ(r.k, 3u);
}

TEST(Juggernaut, RequiredGuessesMatchFigure7)
{
    // Figure 7 at T_RH 4800: k = 4 for N <= 500, k = 2 for N >= 1100.
    JuggernautModel m(paperParams());
    EXPECT_EQ(m.requiredGuesses(0), 4u);
    EXPECT_EQ(m.requiredGuesses(400), 4u);
    EXPECT_EQ(m.requiredGuesses(800), 3u);
    EXPECT_EQ(m.requiredGuesses(1100), 2u);
}

TEST(Juggernaut, LowTrhBreaksInOneEpoch)
{
    // Figure 7 note: at T_RH 1200/2400, latent activations alone
    // (k = 0) break RRS within a single refresh interval.
    JuggernautModel m(paperParams(1200, 6));
    const AttackResult best = m.bestRrs();
    EXPECT_EQ(best.k, 0u);
    EXPECT_NEAR(best.timeToBreakSec, 64e-3, 1e-6);
}

TEST(Juggernaut, BreaksRrsInUnder4Hours)
{
    // The headline: T_RH 4800, swap rate 6 -> < 4 hours (Figure 6).
    JuggernautModel m(paperParams());
    const AttackResult best = m.bestRrs();
    EXPECT_TRUE(best.feasible);
    EXPECT_LT(best.timeToBreakSec, 4 * kHour);
    EXPECT_GT(best.timeToBreakSec, 0.5 * kHour);
    // The optimum sits near N ~ 1100 (paper Section III-C).
    EXPECT_NEAR(static_cast<double>(best.rounds), 1100.0, 150.0);
}

TEST(Juggernaut, RrsBrokenUnderOneDayForAllSwapRates)
{
    // Abstract: "breaks RRS in under 1 day regardless of the swap
    // rate" (rates 6-10 at T_RH 4800, Figure 10).
    for (std::uint32_t rate = 6; rate <= 10; ++rate) {
        JuggernautModel m(paperParams(4800, rate));
        EXPECT_LT(m.bestRrs().timeToBreakSec, kDay) << "rate " << rate;
    }
}

TEST(Juggernaut, SrsHoldsForYears)
{
    // Figure 10: SRS at T_RH 4800 / rate 6 -> > 2 years.
    JuggernautModel m(paperParams());
    const AttackResult srs = m.evaluateSrs();
    EXPECT_GT(srs.timeToBreakSec, 2 * kYear);
}

TEST(Juggernaut, SrsSecurityGrowsWithSwapRate)
{
    // "SRS is more robust at higher swap rates" (Section IV-E).
    // Integer T_S rounding makes the curve non-monotone point to
    // point, so compare every higher rate against the rate-6 floor.
    const double base = JuggernautModel(paperParams(4800, 6))
                            .evaluateSrs().timeToBreakSec;
    for (std::uint32_t rate = 7; rate <= 10; ++rate) {
        JuggernautModel m(paperParams(4800, rate));
        const double t = m.evaluateSrs().timeToBreakSec;
        EXPECT_GT(t, 10.0 * base) << "rate " << rate;
    }
}

TEST(Juggernaut, Figure1aRandomGuessTakesYears)
{
    // Figure 1(a): the RRS-studied attack at rate 6 needs ~10^3 days.
    JuggernautModel m(paperParams());
    const AttackResult r = m.evaluateRrs(0);
    EXPECT_GT(r.timeToBreakSec, 300 * kDay);
    EXPECT_LT(r.timeToBreakSec, 30000 * kDay);
}

TEST(Juggernaut, TimeToBreakHasCliffsAtKTransitions)
{
    // Figure 6's "steep cliffs": crossing an N where k drops causes
    // a discontinuous improvement.
    JuggernautModel m(paperParams());
    // Find the N where k changes from 3 to 2.
    std::uint64_t cliff = 0;
    for (std::uint64_t n = 800; n < 1400; ++n) {
        if (m.requiredGuesses(n) == 2) {
            cliff = n;
            break;
        }
    }
    ASSERT_GT(cliff, 0u);
    const double before = m.evaluateRrs(cliff - 1).timeToBreakSec;
    const double after = m.evaluateRrs(cliff).timeToBreakSec;
    EXPECT_GT(before / after, 50.0);
}

TEST(Juggernaut, TimeIncreasesWithinSameK)
{
    // Within a k-plateau, more rounds shrink G and raise the time.
    JuggernautModel m(paperParams());
    ASSERT_EQ(m.requiredGuesses(600), m.requiredGuesses(700));
    EXPECT_LT(m.evaluateRrs(600).timeToBreakSec,
              m.evaluateRrs(700).timeToBreakSec);
}

TEST(Juggernaut, InfeasibleWhenRoundsExceedEpoch)
{
    JuggernautModel m(paperParams());
    // ~1670 rounds of (T_S-1)*tRC + t_reswap exhaust the 61 ms budget.
    const AttackResult r = m.evaluateRrs(5000);
    EXPECT_FALSE(r.feasible);
}

TEST(Juggernaut, MultiBankAttackIsFarSlower)
{
    // Section III-C: 16 banks turn 4 hours into years.
    JuggernautModel m(paperParams());
    const double single = m.bestRrs().timeToBreakSec;
    const double multi = m.evaluateRrsMultiBank(16).timeToBreakSec;
    EXPECT_GT(multi, 100.0 * single);
    EXPECT_GT(multi, kYear);
}

TEST(Juggernaut, OpenPagePolicySlowsAttackAtHighTrh)
{
    // Section VIII-3: open page stretches the attack at T_RH 4800...
    AttackParams open = paperParams();
    open.actTimeFactor = kOpenPageActFactor;
    const double closed =
        JuggernautModel(paperParams()).bestRrs().timeToBreakSec;
    const double opened =
        JuggernautModel(open).bestRrs().timeToBreakSec;
    EXPECT_GT(opened, 5.0 * closed);

    // ...but not at low T_RH, where latent activations alone win.
    AttackParams lowOpen = paperParams(2400, 6);
    lowOpen.actTimeFactor = 2.0;
    EXPECT_LT(JuggernautModel(lowOpen).bestRrs().timeToBreakSec, kDay);
}

TEST(Juggernaut, Ddr5DoubleRefreshStillBroken)
{
    // Section VIII-5: DDR5 refreshes 2x as often (32 ms windows);
    // RRS still falls in under a day when T_RH <= ~3100.
    AttackParams ddr5 = paperParams(3100, 6);
    ddr5.epochSec = 32e-3;
    ddr5.refreshOpsPerEpoch = 8192 / 2;
    JuggernautModel m(ddr5);
    EXPECT_LT(m.bestRrs().timeToBreakSec, kDay);
}

TEST(MonteCarlo, MatchesAnalyticAtModerateProbability)
{
    // Use T_RH 2400 with few rounds so per-epoch success is sampled
    // event-by-event.
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(900);
    ASSERT_TRUE(analytic.feasible);
    MonteCarloAttack mc(p, 1234);
    const MonteCarloResult r = mc.runRrs(900, 20000);
    ASSERT_TRUE(r.feasible);
    // P[X = k] vs P[X >= k] differ negligibly in this regime.
    EXPECT_NEAR(r.meanTimeSec / analytic.timeToBreakSec, 1.0, 0.15);
}

TEST(MonteCarlo, ZeroKBreaksInOneEpoch)
{
    AttackParams p = paperParams(1200, 6);
    MonteCarloAttack mc(p, 1);
    const MonteCarloResult r = mc.runRrs(600, 100);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.meanEpochs, 1.0);
}

TEST(MonteCarloBatch, MatchesSerialBitForBit)
{
    // The batch runs the serial campaign's strata, one pool job
    // each, on the same seeds and folds them in the same order, so
    // it replays the serial campaign exactly.
    AttackParams p = paperParams(2400, 6);
    MonteCarloAttack serial(p, 42);
    const MonteCarloResult a = serial.runRrs(900, 4000);
    MonteCarloBatch batch(p, 42, 4);
    const MonteCarloResult b = batch.runRrs(900, 4000);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_DOUBLE_EQ(a.meanEpochs, b.meanEpochs);
    EXPECT_DOUBLE_EQ(a.meanTimeSec, b.meanTimeSec);
    EXPECT_DOUBLE_EQ(a.stddevTimeSec, b.stddevTimeSec);
}

TEST(MonteCarloBatch, ThreadCountNeverChangesResults)
{
    AttackParams p = paperParams(2400, 6);
    MonteCarloBatch one(p, 7, 1);
    MonteCarloBatch many(p, 7, 8);
    const MonteCarloResult a = one.runRrs(900, 8000);
    const MonteCarloResult b = many.runRrs(900, 8000);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.meanEpochs, b.meanEpochs);
    EXPECT_DOUBLE_EQ(a.meanTimeSec, b.meanTimeSec);
    EXPECT_DOUBLE_EQ(a.stddevTimeSec, b.stddevTimeSec);

    const MonteCarloResult c = one.runSrs(2000);
    const MonteCarloResult d = many.runSrs(2000);
    EXPECT_EQ(c.feasible, d.feasible);
    EXPECT_DOUBLE_EQ(c.meanTimeSec, d.meanTimeSec);
}

TEST(MonteCarloBatch, MatchesAnalyticAtModerateProbability)
{
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(900);
    ASSERT_TRUE(analytic.feasible);
    MonteCarloBatch batch(p, 1234, 0);
    const MonteCarloResult r = batch.runRrs(900, 20000);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.iterations, 20000u);
    EXPECT_NEAR(r.meanTimeSec / analytic.timeToBreakSec, 1.0, 0.15);
}

TEST(MonteCarloBatch, StratumSeeds)
{
    EXPECT_EQ(MonteCarloBatch::shardSeed(99, 0), 99u);
    EXPECT_NE(MonteCarloBatch::shardSeed(99, 1),
              MonteCarloBatch::shardSeed(99, 2));
}

TEST(MonteCarlo, GeometricFallbackForTinyProbabilities)
{
    AttackParams p = paperParams(4800, 6);
    MonteCarloAttack mc(p, 7);
    const MonteCarloResult r = mc.runRrs(1100, 2000);
    ASSERT_TRUE(r.feasible);
    JuggernautModel m(p);
    const double analytic = m.evaluateRrs(1100).timeToBreakSec;
    EXPECT_NEAR(r.meanTimeSec / analytic, 1.0, 0.2);
}

TEST(MonteCarlo, ValveCensorsInsteadOfBookingBreaks)
{
    // Regression for the old safety-valve bias: a trial that hit the
    // epoch cap used to be booked as a break *at* the cap, silently
    // deflating the mean.  With a valve far below the expected
    // epoch count, most trials are cut off — they must be recorded
    // as censored, excluded from the time mean, and flagged.
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(900);
    ASSERT_TRUE(analytic.feasible);
    const auto valve =
        static_cast<std::uint64_t>(analytic.expectedEpochs / 4.0);
    ASSERT_GE(valve, 1u);

    MonteCarloAttack mc(p, 99);
    mc.setEpochValve(valve);
    const MonteCarloResult r = mc.run(analytic, 2000, 100000);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.iterations, 2000u);
    // P[T > valve] ~ e^{-1/4} ~ 78%: censoring must be visible and
    // must mark the estimate unreliable (> 5% censored).
    EXPECT_GT(r.censored, r.iterations / 2);
    EXPECT_LT(r.censored, r.iterations);
    EXPECT_FALSE(r.reliable);
    // Censored trials are excluded: every kept trial broke within
    // the valve, so the mean cannot exceed valve epochs.
    EXPECT_LE(r.meanTimeSec,
              static_cast<double>(valve) * p.epochSec + 1e-12);
    EXPECT_LE(r.meanEpochs, static_cast<double>(valve));
    // The old estimator — censored trials booked as breaks at the
    // cap and averaged in — underestimates the analytic
    // time-to-break by a wide margin; that bias is what the
    // censored count now surfaces.
    const double oldBiased =
        (r.sumTimeSec
         + static_cast<double>(r.censored)
               * static_cast<double>(valve) * p.epochSec)
        / static_cast<double>(r.iterations);
    EXPECT_LT(oldBiased, 0.5 * analytic.timeToBreakSec);
}

TEST(MonteCarlo, NoCensoringUnderDefaultValve)
{
    // The derived valve (100x the epoch loop limit) sits far above
    // any expected epoch count in the iterate regime.
    AttackParams p = paperParams(2400, 6);
    MonteCarloAttack mc(p, 11);
    const MonteCarloResult r = mc.runRrs(900, 4000);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.censored, 0u);
    EXPECT_TRUE(r.reliable);
    EXPECT_GT(r.timeCiHiSec, r.timeCiLoSec);
    EXPECT_GE(r.meanTimeSec, r.timeCiLoSec);
    EXPECT_LE(r.meanTimeSec, r.timeCiHiSec);
}

TEST(MonteCarlo, InfeasibleAnalyticWithZeroKStaysInfeasible)
{
    // Regression: rounds so large the biasing phase overruns the
    // epoch give an *infeasible* analytic result whose k is 0
    // (latent activations alone exceed T_RH).  The old code keyed
    // "instant break" off k == 0 alone and reported a feasible
    // one-epoch break for an attack that cannot run at all.
    AttackParams p = paperParams(4800, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(100000);
    ASSERT_FALSE(analytic.feasible);
    ASSERT_EQ(analytic.k, 0u);

    MonteCarloAttack mc(p, 3);
    const MonteCarloResult r = mc.run(analytic, 500, 100000);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.reliable);
    EXPECT_DOUBLE_EQ(r.meanTimeSec, 0.0);
    EXPECT_DOUBLE_EQ(r.meanEpochs, 0.0);
}

TEST(MonteCarloBatch, ThreadCountInvariantIncludingConfidenceFields)
{
    // The campaign always uses the fixed strata, so 1 and 8 threads
    // must agree bit for bit on every field — including the exact
    // sums and the confidence columns that land in the v6 CSV.
    AttackParams p = paperParams(2400, 6);
    MonteCarloBatch one(p, 4242, 1);
    MonteCarloBatch many(p, 4242, 8);
    const MonteCarloResult a = one.runRrs(900, 6000);
    const MonteCarloResult b = many.runRrs(900, 6000);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.censored, b.censored);
    EXPECT_DOUBLE_EQ(a.meanEpochs, b.meanEpochs);
    EXPECT_DOUBLE_EQ(a.meanTimeSec, b.meanTimeSec);
    EXPECT_DOUBLE_EQ(a.stddevTimeSec, b.stddevTimeSec);
    EXPECT_DOUBLE_EQ(a.timeCiLoSec, b.timeCiLoSec);
    EXPECT_DOUBLE_EQ(a.timeCiHiSec, b.timeCiHiSec);
    EXPECT_DOUBLE_EQ(a.pBreak, b.pBreak);
    EXPECT_DOUBLE_EQ(a.pBreakCiLo, b.pBreakCiLo);
    EXPECT_DOUBLE_EQ(a.pBreakCiHi, b.pBreakCiHi);
    EXPECT_DOUBLE_EQ(a.sumTimeSec, b.sumTimeSec);
    EXPECT_DOUBLE_EQ(a.sumSqTimeSec, b.sumSqTimeSec);
    EXPECT_DOUBLE_EQ(a.sumPBreak, b.sumPBreak);
    EXPECT_DOUBLE_EQ(a.sumSqPBreak, b.sumSqPBreak);
    EXPECT_EQ(a.reliable, b.reliable);
}

TEST(StratifiedCampaign, SamplesOnlyWhenTheResultNeedsIt)
{
    // Infeasible, instant (k == 0) and zero-trial campaigns are exact
    // without sampling: they have no strata, so no pool job runs.
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    const AttackResult iterated = m.evaluateRrs(600);
    ASSERT_GT(iterated.k, 0u);
    EXPECT_EQ(StratifiedCampaign(p, iterated, 1, 2000, 100000).strata(),
              16u);
    EXPECT_EQ(StratifiedCampaign(p, iterated, 1, 5, 100000).strata(), 5u);
    EXPECT_EQ(StratifiedCampaign(p, iterated, 1, 0, 100000).strata(), 0u);

    const AttackResult instant = m.bestRrs();
    ASSERT_TRUE(instant.feasible);
    ASSERT_EQ(instant.k, 0u);
    const StratifiedCampaign oneEpoch(p, instant, 1, 2000, 100000);
    EXPECT_EQ(oneEpoch.strata(), 0u);
    EXPECT_EQ(oneEpoch.result().iterations, 2000u);
    EXPECT_EQ(oneEpoch.result().strata, 0u);
    EXPECT_DOUBLE_EQ(oneEpoch.result().meanEpochs, 1.0);

    AttackParams slow = paperParams(4800, 6);
    const AttackResult infeasible =
        JuggernautModel(slow).evaluateRrs(100000);
    ASSERT_FALSE(infeasible.feasible);
    const StratifiedCampaign none(slow, infeasible, 1, 2000, 100000);
    EXPECT_EQ(none.strata(), 0u);
    EXPECT_FALSE(none.result().feasible);
}

TEST(StratifiedCampaign, StrataAreOneTrialCampaignsFoldedInOrder)
{
    // With N <= 16 every stratum runs one trial, so stratum s equals
    // a one-trial campaign seeded shardSeed(seed, s), and the result
    // is their exact sums added in stratum order — whatever order
    // the strata ran in.  Covers both the epoch-iterated (n = 600)
    // and the importance-sampled (n = 0) estimator.
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    constexpr std::uint64_t kSeed = 77;
    for (const std::uint64_t rounds : {600ULL, 0ULL}) {
        SCOPED_TRACE(rounds);
        const AttackResult analytic = m.evaluateRrs(rounds);
        StratifiedCampaign campaign(p, analytic, kSeed, 5, 100000);
        ASSERT_EQ(campaign.strata(), 5u);
        for (std::size_t s = campaign.strata(); s-- > 0;)
            campaign.runStratum(s);
        const MonteCarloResult r = campaign.result();

        MonteCarloResult fold;
        for (std::size_t s = 0; s < 5; ++s) {
            MonteCarloAttack one(p, MonteCarloBatch::shardSeed(kSeed, s));
            const MonteCarloResult t = one.run(analytic, 1, 100000);
            fold.iterations += t.iterations;
            fold.censored += t.censored;
            fold.sumTimeSec += t.sumTimeSec;
            fold.sumSqTimeSec += t.sumSqTimeSec;
            fold.sumPBreak += t.sumPBreak;
            fold.sumSqPBreak += t.sumSqPBreak;
        }
        EXPECT_EQ(r.strata, 5u);
        EXPECT_EQ(r.iterations, fold.iterations);
        EXPECT_EQ(r.censored, fold.censored);
        EXPECT_EQ(r.sumTimeSec, fold.sumTimeSec);
        EXPECT_EQ(r.sumSqTimeSec, fold.sumSqTimeSec);
        EXPECT_EQ(r.sumPBreak, fold.sumPBreak);
        EXPECT_EQ(r.sumSqPBreak, fold.sumSqPBreak);
    }
}

TEST(StratifiedCampaign, LeadingStrataTakeTheRemainderTrials)
{
    // 21 trials on 16 strata: strata 0-4 run two trials, 5-15 one.
    // The epoch total pins that split and the stratum seeds; it is
    // the serial campaign's value and must not move, or every
    // published campaign whose N is not a multiple of 16 changes.
    AttackParams p = paperParams(2400, 6);
    MonteCarloAttack mc(p, 2024);
    const MonteCarloResult r = mc.runRrs(600, 21);
    EXPECT_EQ(r.strata, 16u);
    EXPECT_EQ(r.iterations, 21u);
    EXPECT_EQ(r.censored, 0u);
    EXPECT_EQ(std::llround(r.sumTimeSec / p.epochSec), 125216);
}

TEST(MonteCarlo, ImportanceAndNaiveEstimatorsAgree)
{
    // The same cell run through both estimator paths: a high epoch
    // loop limit keeps the per-epoch probability above 1/limit (the
    // naive epoch-by-epoch path); a low limit pushes the same cell
    // into the stratified-geometric + importance-sampled path.  The
    // two p_break estimates must agree within overlapping 95% CIs,
    // and both must straddle the analytic per-epoch probability.
    AttackParams p = paperParams(2400, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(900);
    ASSERT_TRUE(analytic.feasible);

    MonteCarloAttack naive(p, 2026);
    const MonteCarloResult a = naive.run(analytic, 20000, 100000);
    MonteCarloAttack tail(p, 2026);
    const MonteCarloResult b = tail.run(analytic, 20000, 100);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);

    // CIs overlap...
    EXPECT_LE(a.pBreakCiLo, b.pBreakCiHi);
    EXPECT_LE(b.pBreakCiLo, a.pBreakCiHi);
    // ...and each covers the analytic value.
    EXPECT_LE(a.pBreakCiLo, analytic.pSuccess);
    EXPECT_GE(a.pBreakCiHi, analytic.pSuccess);
    EXPECT_LE(b.pBreakCiLo, analytic.pSuccess);
    EXPECT_GE(b.pBreakCiHi, analytic.pSuccess);
    // Time estimates agree with the analytic expectation too.
    EXPECT_NEAR(a.meanTimeSec / analytic.timeToBreakSec, 1.0, 0.15);
    EXPECT_NEAR(b.meanTimeSec / analytic.timeToBreakSec, 1.0, 0.15);
}

TEST(MonteCarlo, ImportanceSamplingResolvesDeepTail)
{
    // At T_RH 4800 / N = 0 the per-epoch probability is ~1e-9 —
    // naive sampling would need ~1/p trials to see one success.
    // The importance-sampled estimator must land within a few
    // relative percent with 20k trials.
    AttackParams p = paperParams(4800, 6);
    JuggernautModel m(p);
    const AttackResult analytic = m.evaluateRrs(0);
    ASSERT_TRUE(analytic.feasible);
    ASSERT_LT(analytic.pSuccess, 1e-6);

    MonteCarloAttack mc(p, 31337);
    const MonteCarloResult r = mc.run(analytic, 20000, 100000);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.pBreak, 0.0);
    EXPECT_NEAR(r.pBreak / analytic.pSuccess, 1.0, 0.1);
    EXPECT_LE(r.pBreakCiLo, analytic.pSuccess);
    EXPECT_GE(r.pBreakCiHi, analytic.pSuccess);
}

TEST(AttackParams, FromAxesMatchesPaperDefaultsOnDdr4)
{
    // The default (ddr4, closed-page) axes must reproduce the
    // paper-default AttackParams exactly — the security sweep and
    // the hand-written Table II agree on every knob.
    const AttackParams derived =
        attackParamsFromAxes(SystemAxes{}, 4800, 6);
    const AttackParams paper = paperParams(4800, 6);
    EXPECT_EQ(derived.trh, paper.trh);
    EXPECT_EQ(derived.swapRate, paper.swapRate);
    EXPECT_EQ(derived.rowsPerBank, paper.rowsPerBank);
    EXPECT_DOUBLE_EQ(derived.tRcSec, paper.tRcSec);
    EXPECT_DOUBLE_EQ(derived.tRfcSec, paper.tRfcSec);
    EXPECT_EQ(derived.refreshOpsPerEpoch, paper.refreshOpsPerEpoch);
    EXPECT_DOUBLE_EQ(derived.epochSec, paper.epochSec);
    EXPECT_DOUBLE_EQ(derived.tSwapSec, paper.tSwapSec);
    EXPECT_DOUBLE_EQ(derived.tReswapSec, paper.tReswapSec);
    EXPECT_DOUBLE_EQ(derived.latentPerRound, paper.latentPerRound);
    EXPECT_DOUBLE_EQ(derived.actTimeFactor, paper.actTimeFactor);
}

TEST(AttackParams, FromAxesDerivesDdr5AndOpenPage)
{
    // The ddr5 preset halves tREFI: 32 ms epochs holding 4096
    // refresh commands (the Section VIII-5 environment the benches
    // used to hand-roll), with the preset's own tRC/tRFC.
    SystemAxes ddr5;
    ddr5.preset = DramPreset::Ddr5;
    const AttackParams p = attackParamsFromAxes(ddr5, 3100, 6);
    EXPECT_DOUBLE_EQ(p.epochSec, 32e-3);
    EXPECT_EQ(p.refreshOpsPerEpoch, 4096u);
    const DramTimingNs t = DramTimingNs::preset(DramPreset::Ddr5);
    EXPECT_DOUBLE_EQ(p.tRcSec, t.tRC * 1e-9);
    EXPECT_DOUBLE_EQ(p.tRfcSec, t.tRFC * 1e-9);
    EXPECT_DOUBLE_EQ(p.actTimeFactor, 1.0);

    SystemAxes open;
    open.pagePolicy = PagePolicy::Open;
    EXPECT_DOUBLE_EQ(attackParamsFromAxes(open, 4800, 6)
                         .actTimeFactor,
                     kOpenPageActFactor);

    // A @trefi override stretches the epoch proportionally.
    SystemAxes relaxed;
    relaxed.tRefiNs = 15600;
    const AttackParams r = attackParamsFromAxes(relaxed, 4800, 6);
    EXPECT_DOUBLE_EQ(r.epochSec, 128e-3);
    EXPECT_EQ(r.refreshOpsPerEpoch, 16384u);
}

TEST(Outlier, PaperFigure13Anchors)
{
    // T_RH 4800, swap rate 3: 3 simultaneous outliers every ~31
    // days; 4 outliers take ~64 years.  Check order of magnitude.
    OutlierParams p;
    OutlierModel m(p);
    const double t3 = m.timeToAppearSec(3);
    EXPECT_GT(t3, 5 * kDay);
    EXPECT_LT(t3, 200 * kDay);
    const double t4 = m.timeToAppearSec(4);
    EXPECT_GT(t4, 10 * kYear);
}

TEST(Outlier, HigherSwapRateMakesOutliersRarer)
{
    // Figure 13: at swap rate k an outlier is a row chosen k times;
    // higher rates need more simultaneous landings and are rarer.
    double prev = 0.0;
    for (std::uint32_t rate = 2; rate <= 6; ++rate) {
        OutlierParams p;
        p.swapRate = rate;
        OutlierModel m(p);
        const double t = m.timeToAppearSec(3);
        EXPECT_GT(t, prev) << "rate " << rate;
        prev = t;
    }
}

TEST(Outlier, SwapsPerEpochMatchesActMax)
{
    OutlierParams p; // trh 4800, rate 3 -> ts 1600
    OutlierModel m(p);
    EXPECT_NEAR(m.swapsPerEpoch(), 850.0, 1.0);
}

TEST(Outlier, ExpectedRowsDecayWithK)
{
    OutlierParams p;
    OutlierModel m(p);
    EXPECT_GT(m.expectedRowsWith(1), m.expectedRowsWith(2));
    EXPECT_GT(m.expectedRowsWith(2), m.expectedRowsWith(3));
}

TEST(Storage, ScaleSrsSavesAbout3xAt1200)
{
    StorageParams p;
    p.trh = 1200;
    StorageModel m(p);
    EXPECT_NEAR(m.savingsRatio(), 3.3, 0.7);
    EXPECT_GT(m.totalRrsBytes(), 100ULL * 1024);
}

TEST(Storage, RitShrinksWithHigherTrh)
{
    StorageParams lo, hi;
    lo.trh = 1200;
    hi.trh = 4800;
    EXPECT_GT(StorageModel(lo).ritBytesRrs(),
              StorageModel(hi).ritBytesRrs());
}

TEST(Storage, ScaleSrsRitNearPaperAt4800)
{
    StorageParams p;
    p.trh = 4800;
    StorageModel m(p);
    // Paper Table IV: 9.4KB.
    EXPECT_NEAR(static_cast<double>(m.ritBytesScaleSrs()) / 1024.0,
                9.4, 2.0);
}

TEST(Storage, SingleTableOptimizationHalves)
{
    // Section VIII-4: the direction-bit trick halves the RIT.
    StorageParams p;
    StorageModel m(p);
    const double ratio =
        static_cast<double>(m.ritBytesScaleSrs()) /
        static_cast<double>(m.ritBytesScaleSrsSingleTable());
    EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Storage, BreakdownHasAllTableIVLines)
{
    StorageModel m(StorageParams{});
    const auto lines = m.breakdown();
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0].structure, "RIT");
    EXPECT_EQ(lines[2].structure, "Place-Back Buffer");
    EXPECT_EQ(lines[2].rrsBytes, 0u); // RRS has no place-back buffer
    EXPECT_EQ(lines[2].scaleSrsBytes, 8192u);
}

TEST(Power, CalibratedToTableV)
{
    PowerModel m;
    // RRS: 36KB -> ~903 mW; Scale-SRS: 18.7KB -> ~703 mW.
    EXPECT_NEAR(m.sramPowerMw(36.0), 903.0, 5.0);
    EXPECT_NEAR(m.sramPowerMw(18.7), 703.0, 5.0);
}

TEST(Power, DramOverheadMatchesTableV)
{
    PowerModel m;
    // RRS: swap rate 6, two row-pair moves per re-mitigation.
    EXPECT_NEAR(m.dramOverheadPct(6, 2.0), 0.5, 0.01);
    // Scale-SRS: swap rate 3, one move.
    EXPECT_NEAR(m.dramOverheadPct(3, 1.0), 0.125, 0.08);
}

TEST(AttackParams, TsDerivedFromSwapRate)
{
    AttackParams p = paperParams(4800, 6);
    EXPECT_EQ(p.ts(), 800u);
}


// ---------------------------------------------------------------------
// Half-double model (motivation for aggressor-focused mitigation).
// ---------------------------------------------------------------------

TEST(HalfDouble, AggressorLevelIsJustTrh)
{
    HalfDoubleModel m(HalfDoubleParams{});
    const HalfDoubleResult r = m.evaluateAtDistance(0);
    EXPECT_EQ(r.aggressorActsNeeded, 4800u);
    EXPECT_TRUE(r.feasibleWithinEpoch);
}

TEST(HalfDouble, InducedActsScaleWithRefreshPeriod)
{
    HalfDoubleParams p;
    p.victimRefreshPeriod = 100;
    HalfDoubleModel m(p);
    // 100k aggressor acts -> 1k refreshes of each blast-radius row.
    EXPECT_DOUBLE_EQ(m.inducedActivations(1, 100000), 1000.0);
    EXPECT_DOUBLE_EQ(m.inducedActivations(2, 100000), 1000.0);
    // Beyond blastRadius + 1 nothing arrives.
    EXPECT_DOUBLE_EQ(m.inducedActivations(3, 100000), 0.0);
}

TEST(HalfDouble, AggressiveVfmIsVulnerable)
{
    // T_V = 128: half-double needs 128 * 4800 = 614k acts < 1.36M.
    HalfDoubleParams p;
    p.victimRefreshPeriod = 128;
    HalfDoubleModel m(p);
    const HalfDoubleResult r = m.evaluate();
    EXPECT_TRUE(r.feasibleWithinEpoch);
    EXPECT_EQ(r.aggressorActsNeeded, 128u * 4800);
    EXPECT_GE(r.inducedActs, 4800.0);
}

TEST(HalfDouble, LazyVfmEscapesHalfDoubleButNotDistance1)
{
    // T_V = 2400: half-double needs 11.5M acts (> ACT_max) but a
    // double-sided attack breaks distance 1.
    HalfDoubleParams p;
    p.victimRefreshPeriod = 2400;
    HalfDoubleModel m(p);
    EXPECT_FALSE(m.evaluate().feasibleWithinEpoch);
    EXPECT_FALSE(m.distance1Safe(2));
}

TEST(HalfDouble, NoSafeRefreshPeriodAtLowTrh)
{
    // The paper's scaling argument: as T_RH drops, the safe band
    // between half-double (small T_V) and distance-1 (large T_V)
    // vanishes.
    HalfDoubleParams p;
    p.trh = 1200;
    HalfDoubleModel m(p);
    // Vulnerable to half-double while T_V <= 1133.
    EXPECT_EQ(m.maxVulnerablePeriod(), 1133u);
    // Safe from double-sided distance-1 only while T_V < 600.
    p.victimRefreshPeriod = 599;
    EXPECT_TRUE(HalfDoubleModel(p).distance1Safe(2));
    // 599 < 1133: every distance-1-safe period is half-double
    // vulnerable.
    EXPECT_LT(599u, m.maxVulnerablePeriod());
}

TEST(HalfDouble, DribbleLowersTheBar)
{
    HalfDoubleParams p;
    p.victimRefreshPeriod = 512;
    p.directDribble = 800;
    HalfDoubleModel m(p);
    EXPECT_EQ(m.evaluate().aggressorActsNeeded, 512u * 4000);
    p.directDribble = 5000; // dribble alone crosses T_RH
    EXPECT_EQ(HalfDoubleModel(p).evaluate().aggressorActsNeeded, 0u);
}

TEST(HalfDouble, CountedRefreshesCompoundPerLevel)
{
    HalfDoubleParams p;
    p.victimRefreshPeriod = 128;
    p.refreshesCounted = true;
    HalfDoubleModel m(p);
    const HalfDoubleResult d2 = m.evaluateAtDistance(2);
    // 128^2 * 4800 = 78.6M >> ACT_max: escalation becomes
    // infeasible once refreshes are fed back into the tracker.
    EXPECT_FALSE(d2.feasibleWithinEpoch);
    EXPECT_GT(d2.epochFraction, 1.0);
}

TEST(HalfDouble, WiderBlastRadiusShiftsNotShrinksExposure)
{
    // Refreshing two rows per side just moves the target to
    // distance 3 at the same cost — Section IX-B's observation
    // that widening the radius does not solve the problem.
    HalfDoubleParams p1;
    p1.victimRefreshPeriod = 128;
    HalfDoubleParams p2 = p1;
    p2.blastRadius = 2;
    const auto r1 = HalfDoubleModel(p1).evaluate();
    const auto r2 = HalfDoubleModel(p2).evaluate();
    EXPECT_EQ(r1.aggressorActsNeeded, r2.aggressorActsNeeded);
}

TEST(HalfDouble, RejectsBadParams)
{
    HalfDoubleParams bad;
    bad.trh = 0;
    EXPECT_THROW(HalfDoubleModel{bad}, FatalError);
    bad = HalfDoubleParams{};
    bad.victimRefreshPeriod = 0;
    EXPECT_THROW(HalfDoubleModel{bad}, FatalError);
    bad = HalfDoubleParams{};
    bad.blastRadius = 0;
    EXPECT_THROW(HalfDoubleModel{bad}, FatalError);
}


// ---------------------------------------------------------------------
// Attack-model monotonicity properties (parameterized sweeps).
// ---------------------------------------------------------------------

/** Sweep T_RH values for monotonicity properties. */
class AttackMonotonicity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AttackMonotonicity, SwapRateStaircase)
{
    // Against the random-guess attack (N = 0) the required correct
    // guesses k never decrease with the swap rate, and each k step
    // jumps the time-to-break above everything seen before.  (The
    // raw time is a sawtooth — Figure 1(a) itself dips between
    // k steps because cheaper guesses mean more of them — so the
    // paper-faithful invariants are these two.)
    const std::uint32_t trh = GetParam();
    std::uint64_t prevK = 0;
    double runningMax = 0.0;
    for (std::uint32_t rate = 2; rate <= 10; ++rate) {
        AttackParams p;
        p.trh = trh;
        p.swapRate = rate;
        const AttackResult r = JuggernautModel(p).evaluateRrs(0);
        if (!r.feasible)
            break;
        EXPECT_GE(r.k, prevK) << "rate " << rate << " trh " << trh;
        if (r.k > prevK) {
            EXPECT_GT(r.timeToBreakSec, runningMax)
                << "rate " << rate << " trh " << trh;
        }
        prevK = r.k;
        runningMax = std::max(runningMax, r.timeToBreakSec);
    }
    EXPECT_GE(prevK, 2u);
}

TEST_P(AttackMonotonicity, SrsAlwaysBeatsBestRrs)
{
    const std::uint32_t trh = GetParam();
    for (std::uint32_t rate = 4; rate <= 8; rate += 2) {
        AttackParams p;
        p.trh = trh;
        p.swapRate = rate;
        JuggernautModel m(p);
        const AttackResult srs = m.evaluateSrs();
        const AttackResult rrs = m.bestRrs();
        if (!rrs.feasible)
            continue;
        if (srs.feasible) {
            // Equality holds exactly when the attacker-optimal N is
            // zero (high T_RH): biasing buys nothing, so "RRS under
            // Juggernaut" degenerates to the random-guess attack.
            EXPECT_GE(srs.timeToBreakSec, rrs.timeToBreakSec)
                << "rate " << rate << " trh " << trh;
            if (rrs.rounds > 0) {
                EXPECT_GT(srs.timeToBreakSec, rrs.timeToBreakSec)
                    << "rate " << rate << " trh " << trh;
            }
        }
    }
}

TEST_P(AttackMonotonicity, OpenPageNeverHelpsTheAttacker)
{
    const std::uint32_t trh = GetParam();
    AttackParams closed;
    closed.trh = trh;
    AttackParams open = closed;
    open.actTimeFactor = kOpenPageActFactor;
    const AttackResult rc = JuggernautModel(closed).bestRrs();
    const AttackResult ro = JuggernautModel(open).bestRrs();
    if (rc.feasible && ro.feasible)
        EXPECT_GE(ro.timeToBreakSec, rc.timeToBreakSec);
}

TEST_P(AttackMonotonicity, MoreBanksSlowTheAttack)
{
    const std::uint32_t trh = GetParam();
    AttackParams p;
    p.trh = trh;
    JuggernautModel m(p);
    double prev = 0.0;
    for (const std::uint32_t banks : {1u, 2u, 4u, 8u, 16u}) {
        const AttackResult r = m.evaluateRrsMultiBank(banks, 400);
        if (!r.feasible)
            break;
        EXPECT_GE(r.timeToBreakSec, prev) << banks << " banks";
        prev = r.timeToBreakSec;
    }
}

INSTANTIATE_TEST_SUITE_P(TrhSweep, AttackMonotonicity,
                         ::testing::Values(1200u, 2400u, 4800u,
                                           9600u));

TEST(OutlierModelProperty, ExposureGrowsAsSwapRateDrops)
{
    double prev = std::numeric_limits<double>::infinity();
    for (const std::uint32_t rate : {8u, 6u, 4u, 3u, 2u}) {
        OutlierParams p;
        p.swapRate = rate;
        const double t = OutlierModel(p).timeToAppearSec(3);
        EXPECT_LT(t, prev) << "rate " << rate;
        prev = t;
    }
}

TEST(StorageModelProperty, SingleTableAlwaysRoughlyHalves)
{
    for (const std::uint32_t trh : {512u, 1200u, 2400u, 4800u}) {
        StorageParams p;
        p.trh = trh;
        StorageModel m(p);
        const double ratio =
            static_cast<double>(m.ritBytesScaleSrs()) /
            static_cast<double>(m.ritBytesScaleSrsSingleTable());
        EXPECT_GT(ratio, 1.8) << trh;
        EXPECT_LT(ratio, 2.1) << trh;
    }
}

TEST(StorageModelProperty, SavingsGrowAsTrhDrops)
{
    // The scalability argument: Scale-SRS's advantage widens at
    // lower thresholds (Table IV trend: 1.9x -> 3.2x).
    double prev = 0.0;
    for (const std::uint32_t trh : {4800u, 2400u, 1200u}) {
        StorageParams p;
        p.trh = trh;
        const double ratio = StorageModel(p).savingsRatio();
        EXPECT_GT(ratio, prev) << trh;
        prev = ratio;
    }
}


TEST(OpenPage, CalibratedFactorHitsPaperAnchors)
{
    // Section VIII-3: 4 hours closed -> ~10 days open at 4800/6...
    AttackParams p;
    p.actTimeFactor = kOpenPageActFactor;
    const AttackResult open = JuggernautModel(p).bestRrs();
    ASSERT_TRUE(open.feasible);
    const double days = open.timeToBreakSec / 86400.0;
    EXPECT_GT(days, 3.0);
    EXPECT_LT(days, 30.0);
    // ...and the advantage disappears below T_RH 3300: broken in
    // under 1 day even at swap rate 10.
    p.trh = 3300;
    p.swapRate = 10;
    const AttackResult low = JuggernautModel(p).bestRrs();
    ASSERT_TRUE(low.feasible);
    EXPECT_LT(low.timeToBreakSec, 86400.0);
}


TEST(OutlierModelMc, PoissonMatchesSimulation)
{
    // Validate the footnote-4 statistics in their regime of
    // validity (rare events, R_K << 1): a 4K-row bank with G = 3200
    // swap landings per epoch and k = 7 landings on the same row.
    // The footnote's Poisson pmf at M = 1 then coincides with the
    // simulated P[at least one such row] up to O(R_K).
    OutlierParams p;
    p.trh = 4800;
    p.swapRate = 3;
    p.rowsPerBank = 4096;
    p.actMaxPerEpoch = 3200 * 1600; // G = 3200 swaps per epoch
    OutlierModel model(p);
    const double rk = model.expectedRowsWith(7);
    ASSERT_LT(rk, 0.1) << "test regime must be rare-event";
    const double analytic = model.pSimultaneous(1, 7);
    const double simulated =
        model.simulateSimultaneous(1, 7, 8000, 0xFEED);
    ASSERT_GT(analytic, 1e-4);
    EXPECT_NEAR(simulated / analytic, 1.0, 0.3)
        << "analytic=" << analytic << " simulated=" << simulated;
}

TEST(OutlierModelMc, RareEventsStayRare)
{
    // At the paper's real scale (128K rows), 4000 simulated epochs
    // must show zero triple-outlier events (expected ~1 per 42000
    // epochs at rate 3).
    OutlierParams p;
    p.trh = 4800;
    p.swapRate = 3;
    OutlierModel model(p);
    EXPECT_EQ(model.simulateSimultaneous(3, 3, 200, 0xABC), 0.0);
}

} // namespace
} // namespace srs
