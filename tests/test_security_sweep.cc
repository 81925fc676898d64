/**
 * @file
 * SecuritySweep engine tests: grid expansion order, axes-derived
 * attack parameters, per-cell seed purity, thread-count byte
 * identity, equality with the serial Monte-Carlo oracle, and the
 * schema-v6 CSV row shape the security cells share with the
 * performance sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "security/security_sweep.hh"
#include "sim/sweep.hh"

namespace srs
{
namespace
{

std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    for (;;) {
        const auto comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

TEST(SecurityCell, LabelSpellsDefenseAndRounds)
{
    SecurityCell cell;
    cell.defense = SecurityDefense::Srs;
    EXPECT_EQ(cell.label(), "attack:srs");
    cell.defense = SecurityDefense::Rrs;
    cell.rounds = 800;
    EXPECT_EQ(cell.label(), "attack:rrs@n=800");
    cell.bestRounds = true;
    EXPECT_EQ(cell.label(), "attack:rrs@best");
}

TEST(SecurityDefenseNames, RoundTripAndReject)
{
    EXPECT_STREQ(securityDefenseName(SecurityDefense::Srs), "srs");
    EXPECT_STREQ(securityDefenseName(SecurityDefense::Rrs), "rrs");
    EXPECT_EQ(securityDefenseFromName("srs"), SecurityDefense::Srs);
    EXPECT_EQ(securityDefenseFromName("rrs"), SecurityDefense::Rrs);
    EXPECT_THROW(securityDefenseFromName("scale-rrs"), FatalError);
}

TEST(SecurityGrid, ExpansionOrderMatchesPerfSweep)
{
    // Axes outermost (policy -> preset -> ... as SweepGrid), then
    // defenses, trhs, swapRates, the rounds axis innermost.  SRS
    // ignores rounds and appears once per (axes, trh, rate).
    SecurityGrid grid;
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.defenses = {SecurityDefense::Srs, SecurityDefense::Rrs};
    grid.trhs = {4800, 2400};
    grid.swapRates = {6};
    grid.rounds = {0, SecurityGrid::kBestRounds};
    const std::vector<SecurityCell> cells = grid.expand();
    // Per axes point: SRS 2 (trhs) + RRS 2 (trhs) * 2 (rounds) = 6.
    ASSERT_EQ(cells.size(), 12u);

    EXPECT_EQ(cells[0].label(), "attack:srs");
    EXPECT_EQ(cells[0].trh, 4800u);
    EXPECT_EQ(cells[1].label(), "attack:srs");
    EXPECT_EQ(cells[1].trh, 2400u);
    EXPECT_EQ(cells[2].label(), "attack:rrs@n=0");
    EXPECT_EQ(cells[2].trh, 4800u);
    EXPECT_EQ(cells[3].label(), "attack:rrs@best");
    EXPECT_EQ(cells[4].label(), "attack:rrs@n=0");
    EXPECT_EQ(cells[4].trh, 2400u);
    EXPECT_EQ(cells[5].label(), "attack:rrs@best");
    // Second axes point (ddr5) repeats the pattern.
    EXPECT_EQ(cells[6].axes.field(), "closed@ddr5");
    EXPECT_EQ(cells[6].label(), "attack:srs");
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(cells[i].axes.field(), "closed");
    for (std::size_t i = 6; i < 12; ++i)
        EXPECT_EQ(cells[i].axes.field(), "closed@ddr5");
}

TEST(SecurityGrid, RejectsInvalidCombinationsAtExpansion)
{
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Srs};
    grid.trhs = {4800};
    grid.swapRates = {1};
    EXPECT_THROW(grid.expand(), FatalError);

    grid.swapRates = {6000}; // T_S = 4800/6000 rounds to zero
    EXPECT_THROW(grid.expand(), FatalError);

    grid.swapRates = {6};
    grid.defenses.clear();
    EXPECT_THROW(grid.expand(), FatalError);
}

TEST(SecuritySweep, CellSeedIsPureFunctionOfIdentity)
{
    SecurityCell cell;
    cell.defense = SecurityDefense::Rrs;
    cell.trh = 2400;
    cell.swapRate = 6;
    cell.rounds = 900;
    const std::uint64_t direct = SweepRunner::cellSeed(
        77, "attack:rrs@n=900,2400,6,closed");
    EXPECT_EQ(SecuritySweep::cellSeed(77, cell), direct);

    // Different identity -> different seed; grid position is not an
    // input at all.
    SecurityCell other = cell;
    other.trh = 4800;
    EXPECT_NE(SecuritySweep::cellSeed(77, other),
              SecuritySweep::cellSeed(77, cell));
    other = cell;
    other.axes.preset = DramPreset::Ddr5;
    EXPECT_NE(SecuritySweep::cellSeed(77, other),
              SecuritySweep::cellSeed(77, cell));
}

TEST(SecuritySweep, ThreadCountNeverChangesBytes)
{
    SecurityGrid grid;
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.defenses = {SecurityDefense::Srs, SecurityDefense::Rrs};
    grid.trhs = {2400};
    grid.swapRates = {6};
    grid.rounds = {900};

    SecuritySweep one(0xABC, 1);
    one.setIterations(2000);
    SecuritySweep many(0xABC, 8);
    many.setIterations(2000);
    std::ostringstream a, b;
    SecuritySweep::writeCsv(a, one.run(grid));
    SecuritySweep::writeCsv(b, many.run(grid));
    EXPECT_EQ(a.str(), b.str());
}

/** Every field, compared exactly: EXPECT_DOUBLE_EQ's 4-ulp slack
 *  could hide a changed fold order. */
void
expectSameCampaign(const MonteCarloResult &a, const MonteCarloResult &b)
{
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.censored, b.censored);
    EXPECT_EQ(a.meanEpochs, b.meanEpochs);
    EXPECT_EQ(a.meanTimeSec, b.meanTimeSec);
    EXPECT_EQ(a.stddevTimeSec, b.stddevTimeSec);
    EXPECT_EQ(a.timeCiLoSec, b.timeCiLoSec);
    EXPECT_EQ(a.timeCiHiSec, b.timeCiHiSec);
    EXPECT_EQ(a.pBreak, b.pBreak);
    EXPECT_EQ(a.pBreakCiLo, b.pBreakCiLo);
    EXPECT_EQ(a.pBreakCiHi, b.pBreakCiHi);
    EXPECT_EQ(a.sumTimeSec, b.sumTimeSec);
    EXPECT_EQ(a.sumSqTimeSec, b.sumSqTimeSec);
    EXPECT_EQ(a.sumPBreak, b.sumPBreak);
    EXPECT_EQ(a.sumSqPBreak, b.sumSqPBreak);
    EXPECT_EQ(a.strata, b.strata);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.reliable, b.reliable);
}

TEST(SecuritySweep, MatchesSerialOracleBitForBit)
{
    // The sweep runs each (cell, stratum) pair as its own pool job;
    // every cell must still equal the serial MonteCarloAttack of
    // that cell.  At T_RH 2400: rrs@n=600 is epoch-iterated and
    // dominates the cost, n=0 and srs are importance-sampled, best
    // breaks in the first epoch (k == 0, no strata).  N = 5 gives
    // fewer trials than strata, N = 2003 a nonzero remainder.
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Srs, SecurityDefense::Rrs};
    grid.trhs = {2400};
    grid.swapRates = {6};
    grid.rounds = {600, 0, SecurityGrid::kBestRounds};
    const std::vector<SecurityCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 4u);
    constexpr std::uint64_t kBase = 0xFEED;
    constexpr std::uint64_t kLimit = 100000;

    std::vector<AttackParams> params;
    std::vector<AttackResult> analytic;
    for (const SecurityCell &cell : cells) {
        params.push_back(
            attackParamsFromAxes(cell.axes, cell.trh, cell.swapRate));
        const JuggernautModel model(params.back());
        analytic.push_back(
            cell.defense == SecurityDefense::Srs
                ? model.evaluateSrs()
                : (cell.bestRounds ? model.bestRrs()
                                   : model.evaluateRrs(cell.rounds)));
    }
    // The grid covers both estimators (iterated while the per-epoch
    // probability exceeds 1 / kLimit) and the no-strata case.
    EXPECT_LT(analytic[0].pSuccess, 1.0 / kLimit);
    EXPECT_GT(analytic[1].pSuccess, 1.0 / kLimit);
    EXPECT_GT(analytic[1].k, 0u);
    EXPECT_LT(analytic[2].pSuccess, 1.0 / kLimit);
    EXPECT_EQ(analytic[3].k, 0u);

    for (const std::uint64_t n : {2000ULL, 2003ULL, 5ULL}) {
        std::vector<MonteCarloResult> oracle;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            MonteCarloAttack mc(params[i],
                                SecuritySweep::cellSeed(kBase, cells[i]));
            oracle.push_back(mc.run(analytic[i], n, kLimit));
        }
        EXPECT_EQ(oracle[1].strata, std::min<std::uint64_t>(n, 16));
        EXPECT_EQ(oracle[3].strata, 0u);

        for (const std::size_t threads : {1u, 3u, 8u}) {
            SCOPED_TRACE("N=" + std::to_string(n)
                         + " threads=" + std::to_string(threads));
            SecuritySweep sweep(kBase, threads);
            sweep.setIterations(n);
            sweep.setEpochLoopLimit(kLimit);
            const std::vector<SecurityResult> results = sweep.run(cells);
            ASSERT_EQ(results.size(), cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i) {
                SCOPED_TRACE(cells[i].label());
                expectSameCampaign(results[i].mc, oracle[i]);
            }
        }
    }
}

TEST(SecuritySweep, RowsCarrySchemaV6Shape)
{
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Rrs};
    grid.trhs = {2400};
    grid.swapRates = {6};
    grid.rounds = {900};
    SecuritySweep sweep(0x5EED, 2);
    sweep.setIterations(1000);
    const std::vector<SecurityResult> results = sweep.run(grid);
    ASSERT_EQ(results.size(), 1u);
    const SecurityResult &r = results[0];
    ASSERT_TRUE(r.mc.feasible);
    EXPECT_EQ(r.mc.iterations, 1000u);

    const std::string row = SecuritySweep::formatRow(0, r);
    const std::vector<std::string> f = fields(row);
    ASSERT_EQ(f.size(), SweepRunner::kRowColumns);
    EXPECT_EQ(f[0], "0");
    EXPECT_EQ(f[1], "attack:rrs@n=900");
    EXPECT_EQ(f[2], "rrs");
    EXPECT_EQ(f[3], "-");
    EXPECT_EQ(f[4], "2400");
    EXPECT_EQ(f[5], "6");
    EXPECT_EQ(f[6], "closed");
    EXPECT_EQ(f[7].substr(0, 2), "0x");
    EXPECT_EQ(f[7].size(), 18u);
    // The v6 Monte-Carlo confidence columns are live, not zeros.
    EXPECT_EQ(f[20], "1000");               // iterations
    EXPECT_EQ(f[21], "0");                  // censored
    EXPECT_NE(f[22], "0");                  // p_break
    EXPECT_NE(f[24], "0");                  // ci_hi
    // swaps/unswap_swaps/place_backs carry k, G, N.
    EXPECT_EQ(f[13], "900");
    EXPECT_NE(f[11], "0");

    std::ostringstream os;
    SecuritySweep::writeCsv(os, results);
    const std::string text = os.str();
    const std::string header = SweepRunner::csvHeader();
    ASSERT_GE(text.size(), header.size());
    EXPECT_EQ(text.substr(0, header.size()), header);
}

TEST(SecuritySweep, AnalyticOnlyLeavesCampaignColumnsZero)
{
    SecurityGrid grid;
    grid.defenses = {SecurityDefense::Srs};
    grid.trhs = {4800};
    grid.swapRates = {6};
    SecuritySweep sweep(0x5EED, 1);
    const std::vector<SecurityResult> results = sweep.run(grid);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].mc.iterations, 0u);
    EXPECT_TRUE(results[0].analytic.feasible);
    const std::vector<std::string> f =
        fields(SecuritySweep::formatRow(0, results[0]));
    ASSERT_EQ(f.size(), SweepRunner::kRowColumns);
    EXPECT_EQ(f[20], "0");
    EXPECT_EQ(f[21], "0");
    EXPECT_EQ(f[22], "0");
    // The analytic time still lands in baseline_ipc.
    EXPECT_NE(f[9], "0");
}

TEST(SecuritySweep, DerivedParamsMatchHandDerivation)
{
    // A ddr5 cell's Monte-Carlo campaign and analytic evaluation
    // must be driven by attackParamsFromAxes — cross-check the
    // sweep's analytic numbers against a hand-built model.
    SecurityGrid grid;
    grid.presets = {DramPreset::Ddr5};
    grid.defenses = {SecurityDefense::Rrs};
    grid.trhs = {3100};
    grid.swapRates = {6};
    grid.rounds = {SecurityGrid::kBestRounds};
    SecuritySweep sweep(1, 1);
    const std::vector<SecurityResult> results = sweep.run(grid);
    ASSERT_EQ(results.size(), 1u);

    SystemAxes axes;
    axes.preset = DramPreset::Ddr5;
    const JuggernautModel model(attackParamsFromAxes(axes, 3100, 6));
    const AttackResult expect = model.bestRrs();
    EXPECT_DOUBLE_EQ(results[0].analytic.timeToBreakSec,
                     expect.timeToBreakSec);
    EXPECT_EQ(results[0].analytic.rounds, expect.rounds);
    EXPECT_EQ(results[0].analytic.k, expect.k);
}

} // namespace
} // namespace srs
