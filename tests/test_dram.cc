/**
 * @file
 * Unit tests for the DRAM substrate: parameter conversion, address
 * mapping (with property sweeps), the bank timing FSM, rank-level
 * pacing/refresh, and the readyAt() deadlines against canIssue().
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dram/address.hh"
#include "dram/bank.hh"
#include "dram/params.hh"
#include "dram/rank.hh"

namespace srs
{
namespace
{

DramTiming
defaultTiming()
{
    return DramTiming::fromNs(DramTimingNs{});
}

TEST(Params, NsToCyclesRoundsUp)
{
    EXPECT_EQ(nsToCycles(45.0, 3.2), 144u);
    EXPECT_EQ(nsToCycles(14.0, 3.2), 45u);
    EXPECT_EQ(nsToCycles(0.625, 3.2), 2u);
}

TEST(Params, TableIIIConversion)
{
    const DramTiming t = defaultTiming();
    EXPECT_EQ(t.tRC, 144u);     // 45 ns
    EXPECT_EQ(t.tRFC, 1120u);   // 350 ns
    EXPECT_EQ(t.tREFI, 24960u); // 7.8 us
    EXPECT_EQ(t.busClock, 2u);  // 1.6 GHz bus on a 3.2 GHz core
}

TEST(Params, RowTransferApproximatesPaperSwapCost)
{
    const DramTiming t = defaultTiming();
    // One row transfer ~ 668 ns; a swap is four transfers ~ 2.7 us
    // (paper Section III-B, t_swap).
    const double transferNs =
        static_cast<double>(t.rowTransferCycles(128)) / 3.2;
    EXPECT_NEAR(4.0 * transferNs, 2700.0, 300.0);
}

TEST(Params, OrgValidateRejectsNonPow2)
{
    DramOrg org;
    org.rowsPerBank = 100000;
    EXPECT_THROW(org.validate(), FatalError);
}

TEST(Params, OrgValidateRejectsNonPow2Ranks)
{
    DramOrg org;
    org.ranksPerChannel = 3;
    EXPECT_THROW(org.validate(), FatalError);
}

TEST(Params, OrgCapacityMatchesTableIII)
{
    DramOrg org;
    EXPECT_EQ(org.capacityBytes(), 32ULL * 1024 * 1024 * 1024);
    EXPECT_EQ(org.linesPerRow(), 128u);
    EXPECT_EQ(org.totalBanks(), 32u);
}

TEST(AddressMap, EncodeDecodeKnownCoord)
{
    AddressMap map((DramOrg()));
    DramCoord c;
    c.channel = 1;
    c.bank = 7;
    c.row = 12345;
    c.column = 77;
    const Addr a = map.encode(c);
    EXPECT_EQ(map.decode(a), c);
}

TEST(AddressMap, RowIsContiguous8KB)
{
    DramOrg org;
    AddressMap map(org);
    const Addr base = map.rowBaseAddr(0, 0, 3, 999);
    for (std::uint32_t col = 0; col < org.linesPerRow(); ++col) {
        const DramCoord c = map.decode(base + col * 64ULL);
        EXPECT_EQ(c.row, 999u);
        EXPECT_EQ(c.bank, 3u);
        EXPECT_EQ(c.column, col);
    }
}

TEST(AddressMap, RowBaseOfStripsColumn)
{
    AddressMap map((DramOrg()));
    const Addr base = map.rowBaseAddr(1, 0, 9, 4242);
    EXPECT_EQ(map.rowBaseOf(base + 3000), base);
}

TEST(AddressMap, FlatBankCoversAllBanks)
{
    DramOrg org;
    AddressMap map(org);
    std::vector<bool> seen(org.totalBanks(), false);
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0; b < org.banksPerRank; ++b) {
            DramCoord c;
            c.channel = ch;
            c.bank = b;
            seen[map.flatBank(c)] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

/**
 * The layout's striping contract, proved for non-default orgs: the
 * bank-select bits (channel, rank, bank) sit directly above the
 * column, so the first totalBanks() consecutive row-sized blocks of
 * the address space land on every (channel, rank, bank) triple
 * exactly once — all in row 0 — before the row index advances.
 * Before the field widths were derived from the live org, a
 * multi-rank geometry silently aliased ranks onto bank bits.
 */
TEST(AddressMap, RowStripingCoversEveryBankOncePerOrg)
{
    for (const DramOrg base : {DramOrg{}, DramOrg{4, 2, 32},
                               DramOrg{1, 1, 4}, DramOrg{8, 4, 64}}) {
        AddressMap map(base);
        std::vector<std::uint32_t> hits(base.totalBanks(), 0);
        for (std::uint32_t blk = 0; blk < base.totalBanks(); ++blk) {
            const Addr addr =
                static_cast<Addr>(blk) * base.rowBytes;
            const DramCoord c = map.decode(addr);
            EXPECT_EQ(c.row, 0u);
            EXPECT_EQ(c.column, 0u);
            ++hits[map.flatBank(c)];
        }
        for (std::uint32_t h : hits)
            EXPECT_EQ(h, 1u);
        // The next block wraps back to bank 0, one row up.
        const DramCoord next = map.decode(
            static_cast<Addr>(base.totalBanks()) * base.rowBytes);
        EXPECT_EQ(map.flatBank(next), 0u);
        EXPECT_EQ(next.row, 1u);
    }
}

TEST(AddressMap, EncodeDecodeRoundTripsNonDefaultOrgs)
{
    for (const DramOrg org : {DramOrg{4, 2, 32}, DramOrg{8, 4, 64},
                              DramOrg{1, 2, 8}}) {
        AddressMap map(org);
        std::uint64_t x = 0x2545F4914F6CDD1DULL;
        for (int i = 0; i < 32; ++i) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            std::uint64_t v = x;
            DramCoord c;
            c.channel = static_cast<std::uint32_t>(v % org.channels);
            v /= org.channels;
            c.rank = static_cast<std::uint32_t>(v % org.ranksPerChannel);
            v /= org.ranksPerChannel;
            c.bank = static_cast<std::uint32_t>(v % org.banksPerRank);
            v /= org.banksPerRank;
            c.row = static_cast<RowId>(v % org.rowsPerBank);
            v /= org.rowsPerBank;
            c.column = static_cast<std::uint32_t>(v % org.linesPerRow());
            const Addr a = map.encode(c);
            EXPECT_EQ(map.decode(a), c);
            EXPECT_LT(a, org.capacityBytes());
        }
    }
}

/** Property sweep: decode(encode(x)) == x across the coordinate space. */
class AddressRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AddressRoundTrip, Bijective)
{
    DramOrg org;
    AddressMap map(org);
    // Derive a pseudo-random coordinate from the parameter.
    std::uint64_t x = GetParam() * 0x9E3779B97F4A7C15ULL;
    DramCoord c;
    c.channel = static_cast<std::uint32_t>(x % org.channels);
    x /= org.channels;
    c.bank = static_cast<std::uint32_t>(x % org.banksPerRank);
    x /= org.banksPerRank;
    c.row = static_cast<RowId>(x % org.rowsPerBank);
    x /= org.rowsPerBank;
    c.column = static_cast<std::uint32_t>(x % org.linesPerRow());
    const Addr a = map.encode(c);
    EXPECT_EQ(map.decode(a), c);
    EXPECT_LT(a, org.capacityBytes());
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddressRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 64));

TEST(Bank, ActivateThenReadTiming)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    EXPECT_TRUE(bank.canIssue(DramCommand::Activate, 5, 0));
    bank.issue(DramCommand::Activate, 5, 0);
    EXPECT_TRUE(bank.rowOpen());
    EXPECT_EQ(bank.openRow(), 5u);
    // Read must wait tRCD.
    EXPECT_FALSE(bank.canIssue(DramCommand::Read, 5, t.tRCD - 1));
    EXPECT_TRUE(bank.canIssue(DramCommand::Read, 5, t.tRCD));
}

TEST(Bank, ReadWrongRowRejected)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    EXPECT_FALSE(bank.canIssue(DramCommand::Read, 6, t.tRCD));
}

TEST(Bank, AutoPrechargeClosesRow)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    bank.issue(DramCommand::Read, 5, t.tRCD, /*autoPre=*/true);
    EXPECT_FALSE(bank.rowOpen());
}

TEST(Bank, NoAutoPrechargeKeepsRowOpen)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    bank.issue(DramCommand::Read, 5, t.tRCD, /*autoPre=*/false);
    EXPECT_TRUE(bank.rowOpen());
}

TEST(Bank, ActToActRespectsTRc)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    bank.issue(DramCommand::Precharge, 0, t.tRAS);
    // ACT-to-ACT >= tRC, and >= tRAS + tRP through the precharge.
    const Cycle ready = bank.actReadyAt();
    EXPECT_GE(ready, t.tRC);
    EXPECT_FALSE(bank.canIssue(DramCommand::Activate, 6, ready - 1));
    EXPECT_TRUE(bank.canIssue(DramCommand::Activate, 6, ready));
}

TEST(Bank, PrechargeWaitsForTRas)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    EXPECT_FALSE(bank.canIssue(DramCommand::Precharge, 0, t.tRAS - 1));
    EXPECT_TRUE(bank.canIssue(DramCommand::Precharge, 0, t.tRAS));
}

TEST(Bank, ActivationGroundTruthCounts)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.issue(DramCommand::Activate, 5, 0);
    bank.issue(DramCommand::Precharge, 0, t.tRAS);
    bank.issue(DramCommand::Activate, 5, bank.actReadyAt());
    EXPECT_EQ(bank.activationsOf(5), 2u);
    EXPECT_EQ(bank.maxActivations(), 2u);
    EXPECT_EQ(bank.maxActivationRow(), 5u);
    EXPECT_EQ(bank.totalActivations(), 2u);
}

TEST(Bank, ChargeActivationFeedsGroundTruth)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.chargeActivation(77, 3);
    EXPECT_EQ(bank.activationsOf(77), 3u);
    EXPECT_EQ(bank.maxActivations(), 3u);
}

TEST(Bank, EpochResetClearsCounts)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    bank.chargeActivation(77, 3);
    bank.resetEpochCounters();
    EXPECT_EQ(bank.activationsOf(77), 0u);
    EXPECT_EQ(bank.maxActivations(), 0u);
    EXPECT_EQ(bank.totalActivations(), 0u);
}

TEST(Bank, BlockForMigration)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 1024);
    const Cycle done = bank.blockFor(10, 1000);
    EXPECT_EQ(done, 1010u);
    EXPECT_TRUE(bank.blocked(500));
    EXPECT_FALSE(bank.blocked(1010));
    EXPECT_FALSE(bank.canIssue(DramCommand::Activate, 1, 500));
    EXPECT_TRUE(bank.canIssue(DramCommand::Activate, 1, 1010));
}

TEST(Bank, IssueOutOfRangeRowRejected)
{
    const DramTiming t = defaultTiming();
    Bank bank(t, 16);
    EXPECT_FALSE(bank.canIssue(DramCommand::Activate, 16, 0));
}

TEST(Rank, TRrdSpacesActivates)
{
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    rank.issue(DramCommand::Activate, 0, 1, 0);
    EXPECT_FALSE(rank.canIssue(DramCommand::Activate, 1, 1, t.tRRD - 1));
    EXPECT_TRUE(rank.canIssue(DramCommand::Activate, 1, 1, t.tRRD));
}

TEST(Rank, TFawLimitsFourActivates)
{
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    Cycle now = 0;
    for (std::uint32_t b = 0; b < 4; ++b) {
        EXPECT_TRUE(rank.canIssue(DramCommand::Activate, b, 1, now));
        rank.issue(DramCommand::Activate, b, 1, now);
        now += t.tRRD;
    }
    // Fifth ACT must wait until tFAW past the first.
    EXPECT_FALSE(rank.canIssue(DramCommand::Activate, 4, 1, now));
    EXPECT_TRUE(rank.canIssue(DramCommand::Activate, 4, 1, t.tFAW));
}

TEST(Rank, DataBusSerializesTransfers)
{
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    rank.issue(DramCommand::Activate, 0, 1, 0);
    rank.issue(DramCommand::Activate, 1, 1, t.tRRD);
    // Wait until both banks are column-ready so only the bus gates.
    const Cycle rd = t.tRRD + t.tRCD;
    rank.issue(DramCommand::Read, 0, 1, rd, false);
    // A second read whose data would overlap the bus must wait.
    EXPECT_FALSE(rank.canIssue(DramCommand::Read, 1, 1, rd + 2));
    EXPECT_TRUE(rank.canIssue(DramCommand::Read, 1, 1, rd + t.tBL));
}

TEST(Rank, RefreshRequiresAllBanksIdle)
{
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    rank.issue(DramCommand::Activate, 3, 1, 0);
    EXPECT_FALSE(rank.canRefresh(t.tRAS));
    rank.issue(DramCommand::Precharge, 3, 0, t.tRAS);
    // Still not idle until tRC from the ACT.
    EXPECT_FALSE(rank.canRefresh(t.tRAS + 1));
    EXPECT_TRUE(rank.canRefresh(t.tRC + t.tRP));
}

TEST(Rank, RefreshOccupiesTRfc)
{
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    const Cycle done = rank.refresh(0);
    EXPECT_EQ(done, t.tRFC);
    EXPECT_TRUE(rank.refreshing(t.tRFC - 1));
    EXPECT_FALSE(rank.refreshing(t.tRFC));
    EXPECT_EQ(rank.refreshCount(), 1u);
    EXPECT_FALSE(rank.canIssue(DramCommand::Activate, 0, 1, 10));
    EXPECT_TRUE(rank.canIssue(DramCommand::Activate, 0, 1, t.tRFC));
}

// ---------------------------------------------------------------------
// readyAt() is where the controller takes its deadlines from: at every
// cycle it must name exactly the first cycle canIssue() admits.
// ---------------------------------------------------------------------

TEST(ReadyAt, ColumnCommandsBeforeAnyBusTransfer)
{
    // No burst has reserved the bus yet, so its busy-until horizon (0)
    // lies below tCAS and tCWL; the bus bound must not wrap around.
    const DramTiming t = defaultTiming();
    DramOrg org;
    Rank rank(t, org);
    rank.issue(DramCommand::Activate, 0, 5, 0);
    EXPECT_EQ(rank.readyAt(DramCommand::Read, 0, 5), t.tRCD);
    EXPECT_EQ(rank.readyAt(DramCommand::Write, 0, 5), t.tRCD);
    EXPECT_EQ(rank.readyAt(DramCommand::Read, 0, 6), kNoCycle);
    EXPECT_EQ(rank.readyAt(DramCommand::Activate, 0, 6), kNoCycle);
}

class ReadyAtAgrees : public ::testing::TestWithParam<DramPreset>
{
};

TEST_P(ReadyAtAgrees, WithCanIssueOnRandomLegalSequences)
{
    const DramTiming t =
        DramTiming::fromNs(DramTimingNs::preset(GetParam()));
    DramOrg org;
    org.banksPerRank = 4;
    org.rowsPerBank = 64;
    Rank rank(t, org);
    Rng rng(GetParam() == DramPreset::Ddr4 ? 41 : 42);
    const DramCommand cmds[] = {
        DramCommand::Activate, DramCommand::Read, DramCommand::Write,
        DramCommand::Precharge, DramCommand::Refresh};
    std::uint64_t issued = 0, refreshes = 0, migrations = 0;
    // During a lull only open banks are precharged, so the rank can
    // go idle and refresh.
    Cycle lullUntil = 0;

    for (Cycle now = 0; now < 100'000; ++now) {
        for (std::uint32_t b = 0; b < org.banksPerRank; ++b) {
            const Bank &bank = rank.bank(b);
            // The open row (or some row), another row, a row past the
            // end of the bank.
            const RowId rows[] = {bank.rowOpen() ? bank.openRow() : 7, 9,
                                  org.rowsPerBank};
            for (const DramCommand cmd : cmds) {
                for (const RowId row : rows) {
                    ASSERT_EQ(rank.canIssue(cmd, b, row, now),
                              now >= rank.readyAt(cmd, b, row))
                        << commandName(cmd) << " bank " << b << " row "
                        << row << " at cycle " << now;
                    ASSERT_EQ(bank.canIssue(cmd, row, now),
                              now >= bank.readyAt(cmd, row))
                        << commandName(cmd) << " bank " << b << " row "
                        << row << " at cycle " << now;
                }
            }
        }
        ASSERT_EQ(rank.canRefresh(now), now >= rank.refreshReadyAt())
            << "cycle " << now;

        // Drive the rank: at most one legal command per cycle, with
        // the occasional refresh or migration block.
        if (rank.canRefresh(now) && rng.nextBool(0.2)) {
            rank.refresh(now);
            ++refreshes;
            continue;
        }
        if (now >= lullUntil && rng.nextBool(0.002))
            lullUntil = now + 600;
        const auto b = static_cast<std::uint32_t>(
            rng.nextBelow(org.banksPerRank));
        Bank &bank = rank.bank(b);
        if (!bank.blocked(now) && !bank.rowOpen() && rng.nextBool(0.002)) {
            bank.blockFor(now, 50 + rng.nextBelow(400));
            ++migrations;
            continue;
        }
        if (now < lullUntil && !bank.rowOpen())
            continue;
        const DramCommand cmd = now < lullUntil
            ? DramCommand::Precharge : cmds[rng.nextBelow(4)];
        const RowId row = cmd == DramCommand::Activate
            ? static_cast<RowId>(rng.nextBelow(org.rowsPerBank))
            : bank.openRow();
        if (rank.canIssue(cmd, b, row, now) && rng.nextBool(0.5)) {
            rank.issue(cmd, b, row, now, rng.nextBool(0.5));
            ++issued;
        }
    }
    // The walk reached every kind of state.
    EXPECT_GT(issued, 1000u);
    EXPECT_GT(refreshes, 20u);
    EXPECT_GT(migrations, 50u);
}

INSTANTIATE_TEST_SUITE_P(Presets, ReadyAtAgrees,
                         ::testing::Values(DramPreset::Ddr4,
                                           DramPreset::Ddr5));


TEST(Ddr5Preset, DoubledRefreshHalvesTheWindow)
{
    const DramTimingNs ddr4;
    const DramTimingNs ddr5 = DramTimingNs::ddr5();
    EXPECT_DOUBLE_EQ(ddr5.tREFI, ddr4.tREFI / 2.0);
    EXPECT_LT(ddr5.tCK, ddr4.tCK);
    // Core row timing is generation-stable.
    EXPECT_DOUBLE_EQ(ddr5.tRC, ddr4.tRC);
    // The attack-relevant quantity: refresh epochs per 64 ms double,
    // so activations available per epoch halve.
    const DramTiming t4 = DramTiming::fromNs(ddr4);
    const DramTiming t5 = DramTiming::fromNs(ddr5);
    EXPECT_NEAR(static_cast<double>(t5.tREFI),
                static_cast<double>(t4.tREFI) / 2.0, 2.0);
}

} // namespace
} // namespace srs
