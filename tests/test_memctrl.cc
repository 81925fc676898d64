/**
 * @file
 * Unit tests for the memory controller: request flow, scheduling,
 * refresh, write draining, migration jobs and the mitigation hooks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "common/logging.hh"
#include "memctrl/controller.hh"

namespace srs
{
namespace
{

struct CtrlFixture : public ::testing::Test
{
    CtrlFixture()
        : timing(DramTiming::fromNs(DramTimingNs{})),
          ctrl(org, timing), map(org)
    {
        ctrl.setReadCallback([this](const MemRequest &req) {
            completed.push_back(req);
        });
    }

    /** Tick the controller up to @p until (bus-clock granularity). */
    void
    runUntil(Cycle until)
    {
        for (; now < until; now += timing.busClock)
            ctrl.tick(now);
    }

    Addr
    addrOf(std::uint32_t ch, std::uint32_t bank, RowId row,
           std::uint32_t col = 0)
    {
        DramCoord c;
        c.channel = ch;
        c.bank = bank;
        c.row = row;
        c.column = col;
        return map.encode(c);
    }

    DramOrg org;
    DramTiming timing;
    MemoryController ctrl;
    AddressMap map;
    std::vector<MemRequest> completed;
    Cycle now = 0;
};

TEST_F(CtrlFixture, SingleReadCompletes)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    runUntil(2000);
    ASSERT_EQ(completed.size(), 1u);
    // ACT + tRCD + CAS + tBL is on the order of 100 cycles.
    EXPECT_LT(completed[0].completion, 200u);
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
}

TEST_F(CtrlFixture, SameRowReadsCoalesceIntoOneActivation)
{
    for (std::uint32_t col = 0; col < 8; ++col)
        ctrl.enqueue(addrOf(0, 0, 100, col), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 8u);
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
    EXPECT_EQ(ctrl.stats().get("row_hits"), 8u);
}

TEST_F(CtrlFixture, DifferentRowsConflictAndReactivate)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    ctrl.enqueue(addrOf(0, 0, 200), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 2u);
    EXPECT_EQ(ctrl.stats().get("activations"), 2u);
}

TEST_F(CtrlFixture, BanksOperateInParallel)
{
    for (std::uint32_t b = 0; b < 8; ++b)
        ctrl.enqueue(addrOf(0, b, 100), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 8u);
    // All eight finish well before eight serialized tRC windows.
    Cycle last = 0;
    for (const auto &req : completed)
        last = std::max(last, req.completion);
    EXPECT_LT(last, 8 * timing.tRC);
}

TEST_F(CtrlFixture, ReadForwardsFromWriteQueue)
{
    const Addr a = addrOf(1, 3, 50, 7);
    ctrl.enqueue(a, true, 0, 0);
    ctrl.enqueue(a, false, 0, 0);
    runUntil(200);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
}

TEST_F(CtrlFixture, WritesDrainEventually)
{
    for (std::uint32_t i = 0; i < 20; ++i)
        ctrl.enqueue(addrOf(0, i % 16, 10 + i), true, 0, 0);
    runUntil(20000);
    EXPECT_EQ(ctrl.stats().get("writes_issued"), 20u);
    EXPECT_TRUE(ctrl.idle(now));
}

TEST_F(CtrlFixture, RefreshHappensEveryTrefi)
{
    runUntil(timing.tREFI * 10);
    // Two channels x one rank, ~9-10 refreshes each.
    const std::uint64_t refreshes = ctrl.stats().get("refreshes");
    EXPECT_GE(refreshes, 16u);
    EXPECT_LE(refreshes, 20u);
}

TEST_F(CtrlFixture, QueueCapacityIsEnforced)
{
    const MemCtrlConfig cfg;
    std::uint32_t accepted = 0;
    for (std::uint32_t i = 0; i < cfg.readQueueDepth + 10; ++i) {
        if (ctrl.canAccept(addrOf(0, 0, i), false)) {
            ctrl.enqueue(addrOf(0, 0, i), false, 0, 0);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, cfg.readQueueDepth);
}

TEST_F(CtrlFixture, MigrationBlocksBankAndChargesRows)
{
    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = 5000;
    job.charges.push_back(RowCharge{42, 1});
    job.charges.push_back(RowCharge{77, 2});
    ctrl.scheduleMigration(0, 0, job);
    ctrl.enqueue(addrOf(0, 0, 42), false, 0, 0);
    runUntil(1000);
    // The demand read waits behind the migration.
    EXPECT_TRUE(completed.empty());
    EXPECT_TRUE(ctrl.bankAt(0, 0).blocked(now));
    runUntil(8000);
    EXPECT_EQ(completed.size(), 1u);
    // Charges: 1 + 2 latent plus the demand activation of row 42.
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(42), 2u);
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(77), 2u);
    EXPECT_EQ(ctrl.stats().get("latent_activations"), 3u);
    EXPECT_EQ(ctrl.stats().get("mig_started_swap"), 1u);
}

TEST_F(CtrlFixture, MigrationDoesNotBlockOtherBanks)
{
    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = 20000;
    ctrl.scheduleMigration(0, 0, job);
    ctrl.enqueue(addrOf(0, 1, 42), false, 0, 0);
    runUntil(2000);
    EXPECT_EQ(completed.size(), 1u);
}

TEST_F(CtrlFixture, PendingMigrationsAreCounted)
{
    MigrationJob job;
    job.duration = 100000;
    ctrl.scheduleMigration(0, 5, job);
    ctrl.scheduleMigration(0, 5, job);
    EXPECT_EQ(ctrl.pendingMigrations(0, 5), 2u);
    runUntil(10);
    EXPECT_EQ(ctrl.pendingMigrations(0, 5), 1u); // one started
}

/** Listener that remaps one logical row and records activations. */
struct TestListener : public MemCtrlListener
{
    RowId
    remapRow(std::uint32_t, std::uint32_t, RowId logical) override
    {
        return logical == 100 ? 5000 : logical;
    }

    void
    onActivate(std::uint32_t, std::uint32_t, RowId physRow,
               Cycle) override
    {
        activations.push_back(physRow);
    }

    std::vector<RowId> activations;
};

TEST_F(CtrlFixture, ListenerRemapAndObserve)
{
    TestListener listener;
    ctrl.setListener(&listener);
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    ctrl.enqueue(addrOf(0, 0, 200), false, 0, 0);
    runUntil(2000);
    ASSERT_EQ(completed.size(), 2u);
    ASSERT_EQ(listener.activations.size(), 2u);
    // Logical 100 activated at physical 5000.
    EXPECT_TRUE((listener.activations[0] == 5000 &&
                 listener.activations[1] == 200) ||
                (listener.activations[0] == 200 &&
                 listener.activations[1] == 5000));
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(5000), 1u);
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(100), 0u);
}

TEST_F(CtrlFixture, EpochResetClearsBankCounters)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    runUntil(1000);
    EXPECT_GT(ctrl.bankAt(0, 0).totalActivations(), 0u);
    ctrl.resetEpochCounters();
    EXPECT_EQ(ctrl.bankAt(0, 0).totalActivations(), 0u);
}

TEST_F(CtrlFixture, IdleReportsCorrectly)
{
    EXPECT_TRUE(ctrl.idle(0));
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    EXPECT_FALSE(ctrl.idle(0));
    runUntil(2000);
    EXPECT_TRUE(ctrl.idle(now));
}

TEST_F(CtrlFixture, RandomTrafficSustainsThroughput)
{
    // Regression guard for the write-hit scheduling deadlock: random
    // mixed traffic must sustain healthy throughput.
    Rng rng(7);
    std::uint64_t enqueued = 0;
    for (Cycle c = 0; c < 200000; c += timing.busClock) {
        while (enqueued - completed.size() < 12) {
            const Addr a = addrOf(rng.nextBelow(2) & 1,
                                  static_cast<std::uint32_t>(
                                      rng.nextBelow(16)),
                                  static_cast<RowId>(
                                      rng.nextBelow(512)),
                                  static_cast<std::uint32_t>(
                                      rng.nextBelow(128)));
            const bool isWrite = rng.nextBool(0.3);
            if (!ctrl.canAccept(a, isWrite))
                break;
            ctrl.enqueue(a, isWrite, 0, c);
            if (!isWrite)
                ++enqueued;
        }
        ctrl.tick(c);
    }
    // ~200K cycles at worst-case tRC-bound service of ~12 banks in
    // flight must complete thousands of reads, not hundreds.
    EXPECT_GT(completed.size(), 5000u);
}

TEST(MemCtrlConfig, WatermarksValidated)
{
    DramOrg org;
    const DramTiming t = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.writeHiWatermark = 8;
    cfg.writeLoWatermark = 8;
    EXPECT_THROW(MemoryController(org, t, cfg), FatalError);
}

TEST(MigrationKind, Names)
{
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::Swap), "swap");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::UnswapSwap),
                 "unswap_swap");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::PlaceBack),
                 "place_back");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::CounterAccess),
                 "counter_access");
}


// ---------------------------------------------------------------------
// Throttle hook (BlockHammer's controller interface).
// ---------------------------------------------------------------------

/**
 * Listener that forbids ACTs of one row until a given cycle and
 * records every activation it observes.
 */
struct ThrottleListener : public MemCtrlListener
{
    RowId row = kInvalidRow;
    Cycle until = 0;
    std::uint64_t queries = 0;
    /** (flat bank, physical row) per onActivate call, in order */
    std::vector<std::pair<std::uint32_t, RowId>> activations;

    Cycle
    actAllowedAt(std::uint32_t, std::uint32_t, RowId physRow,
                 Cycle) override
    {
        ++queries;
        return physRow == row ? until : 0;
    }

    void
    onActivate(std::uint32_t, std::uint32_t bank, RowId physRow,
               Cycle) override
    {
        activations.emplace_back(bank, physRow);
    }
};

TEST(ControllerThrottle, ThrottledRowWaitsOthersProceed)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    ThrottleListener listener;
    const AddressMap &map = ctrl.addressMap();

    // Two reads to different rows of the same bank; row 50 throttled.
    const Addr throttled = map.rowBaseAddr(0, 0, 0, 50);
    const Addr free = map.rowBaseAddr(0, 0, 0, 60);
    listener.row = 50;
    listener.until = 1'000'000;
    ctrl.setListener(&listener);

    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });
    ctrl.enqueue(throttled, false, 0, 0);
    ctrl.enqueue(free, false, 0, 0);

    Cycle now = 0;
    while (done.size() < 1 && now < 100'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], free);
    EXPECT_GT(listener.queries, 0u);
    EXPECT_GT(ctrl.stats().get("p2_skip_throttled"), 0u);

    // Release the throttle: the stalled request now completes.
    listener.until = 0;
    while (done.size() < 2 && now < 300'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1], throttled);
}

TEST(ControllerThrottle, RowHitsBypassThrottle)
{
    // Throttling gates ACTs only; an already-open row's hits flow
    // (matches BlockHammer: the damage vector is the activation).
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    MemoryController ctrl(org, timing, cfg);
    ThrottleListener listener;
    const AddressMap &map = ctrl.addressMap();
    const Addr rowBase = map.rowBaseAddr(0, 0, 0, 50);

    std::uint32_t done = 0;
    ctrl.setReadCallback([&done](const MemRequest &) { ++done; });

    // First access opens the row (no throttle yet).
    ctrl.enqueue(rowBase, false, 0, 0);
    Cycle now = 0;
    while (done < 1 && now < 100'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done, 1u);

    // Throttle the row, then issue a second access to another
    // column: it is a row hit and must complete anyway.
    listener.row = 50;
    listener.until = 10'000'000;
    ctrl.setListener(&listener);
    ctrl.enqueue(rowBase + 64, false, 0, now);
    const Cycle limit = now + 100'000;
    while (done < 2 && now < limit) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    EXPECT_EQ(done, 2u);
}

// ---------------------------------------------------------------------
// Cross-bank arrival order: FR-FCFS serves the oldest request across
// all banks, never the lowest-numbered bank first.
// ---------------------------------------------------------------------

TEST(CrossBankOrder, OldestClosedBankActivatesFirst)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    ThrottleListener listener;
    ctrl.setListener(&listener);
    const AddressMap &map = ctrl.addressMap();

    ctrl.enqueue(map.rowBaseAddr(0, 0, 5, 70), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 80), false, 0, 0);
    ctrl.tick(0);
    ASSERT_EQ(listener.activations.size(), 1u);
    EXPECT_EQ(listener.activations[0].first, 5u);
    EXPECT_EQ(listener.activations[0].second, 70u);
}

TEST(CrossBankOrder, OlderHitInHigherBankIsServedFirst)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    MemoryController ctrl(org, timing, cfg);
    const AddressMap &map = ctrl.addressMap();
    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });

    // Open row 10 in bank 3 and row 20 in bank 9; open-page keeps
    // both rows open once their reads complete.
    ctrl.enqueue(map.rowBaseAddr(0, 0, 3, 10), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 9, 20), false, 0, 0);
    Cycle now = 0;
    while (done.size() < 2 && now < 10'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 2u);

    // One queued hit per open bank; the higher bank's is older.
    const Addr older = map.rowBaseAddr(0, 0, 9, 20) + 64;
    const Addr younger = map.rowBaseAddr(0, 0, 3, 10) + 64;
    ctrl.enqueue(older, false, 0, now);
    ctrl.enqueue(younger, false, 0, now);
    const Cycle limit = now + 10'000;
    while (done.size() < 4 && now < limit) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[2], older);
    EXPECT_EQ(done[3], younger);
    EXPECT_EQ(ctrl.stats().get("activations"), 2u);
}

TEST(CrossBankOrder, ThrottledOldestYieldsToNextOldestSameTick)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    ThrottleListener listener;
    listener.row = 50;
    listener.until = 1'000'000;
    ctrl.setListener(&listener);
    const AddressMap &map = ctrl.addressMap();

    ctrl.enqueue(map.rowBaseAddr(0, 0, 7, 50), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 2, 60), false, 0, 0);
    ctrl.tick(0);
    // The throttled row was asked first, then the next-oldest
    // request's row, which activated in the same tick.
    EXPECT_EQ(listener.queries, 2u);
    ASSERT_EQ(listener.activations.size(), 1u);
    EXPECT_EQ(listener.activations[0].first, 2u);
    EXPECT_EQ(listener.activations[0].second, 60u);
    EXPECT_EQ(ctrl.stats().get("p2_skip_throttled"), 1u);
}

TEST(ForwardingReject, ForwardEligibleReadAcceptedWhenReadQueueFull)
{
    // Regression: canAccept() used to check read-queue capacity
    // before forwarding eligibility, so a read that would have been
    // served straight from a queued write was rejected — and the
    // issuing core stalled — whenever the read queue was full.
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.readQueueDepth = 2;
    MemoryController ctrl(org, timing, cfg);
    const AddressMap &map = ctrl.addressMap();

    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });

    const Addr written = map.rowBaseAddr(0, 0, 0, 50);
    ctrl.enqueue(written, true, 0, 0);
    for (RowId row = 60; row < 62; ++row)
        ctrl.enqueue(map.rowBaseAddr(0, 0, 0, row), false, 0, 0);

    // The queue is full: an unrelated read is rejected...
    EXPECT_FALSE(ctrl.canAccept(map.rowBaseAddr(0, 0, 0, 70), false));
    // ...but a read of the queued write's line is forward-eligible
    // and must be accepted regardless of capacity.
    EXPECT_TRUE(ctrl.canAccept(written, false));
    const std::uint64_t id = ctrl.enqueue(written, false, 0, 0);
    EXPECT_NE(id, std::numeric_limits<std::uint64_t>::max());

    Cycle now = 0;
    while (done.empty() && now < 10'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done[0], written);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
}

// ---------------------------------------------------------------------
// Quiet spans: scenarios with long stretches in which no channel tick
// issues a command, each broken by one kind of event.  Every ACT
// (cycle, channel, bank, physical row), every read completion, the
// throttle-query count and the whole counter set are pinned, so a
// scheduler that reuses a tick's decisions past the event that
// changed them shows up by name.
// ---------------------------------------------------------------------

/** Listener that remaps and throttles rows and logs every ACT. */
struct RecordingListener : public MemCtrlListener
{
    /** logical -> physical; rows not listed map to themselves */
    std::map<RowId, RowId> remap;
    RowId throttledRow = kInvalidRow;
    Cycle throttleUntil = 0;
    std::uint64_t queries = 0;
    std::ostringstream *log = nullptr;

    RowId
    remapRow(std::uint32_t, std::uint32_t, RowId logical) override
    {
        const auto it = remap.find(logical);
        return it == remap.end() ? logical : it->second;
    }

    void
    onActivate(std::uint32_t channel, std::uint32_t bank, RowId physRow,
               Cycle now) override
    {
        *log << "act " << now << " ch" << channel << " b" << bank << " r"
             << physRow << '\n';
    }

    Cycle
    actAllowedAt(std::uint32_t, std::uint32_t, RowId physRow,
                 Cycle) override
    {
        ++queries;
        return physRow == throttledRow ? throttleUntil : 0;
    }
};

/** A controller ticked on the bus clock, logging what it does. */
struct QuietSpan
{
    explicit QuietSpan(const MemCtrlConfig &cfg)
        : timing(DramTiming::fromNs(DramTimingNs{})),
          ctrl(org, timing, cfg)
    {
        listener.log = &log;
        ctrl.setListener(&listener);
        ctrl.setReadCallback([this](const MemRequest &req) {
            log << "done " << req.completion << " ch" << req.coord.channel
                << " b" << req.coord.bank << " r" << req.coord.row << " c"
                << req.coord.column << '\n';
        });
    }

    void
    runUntil(Cycle until)
    {
        for (; now < until; now += timing.busClock)
            ctrl.tick(now);
    }

    void
    enqueue(std::uint32_t ch, std::uint32_t bank, RowId row,
            std::uint32_t col, bool isWrite)
    {
        DramCoord c;
        c.channel = ch;
        c.bank = bank;
        c.row = row;
        c.column = col;
        const Addr addr = ctrl.addressMap().encode(c);
        ASSERT_NE(ctrl.enqueue(addr, isWrite, 0, now),
                  std::numeric_limits<std::uint64_t>::max());
    }

    /** The log, the throttle-query count and every counter. */
    std::string
    transcript() const
    {
        std::ostringstream out;
        out << log.str() << "queries " << listener.queries << '\n';
        std::string line;
        for (const auto &[name, value] : ctrl.stats().all()) {
            const std::string item = name + '=' + std::to_string(value);
            if (!line.empty() && line.size() + 1 + item.size() > 72) {
                out << line << '\n';
                line.clear();
            }
            line += (line.empty() ? "" : " ") + item;
        }
        out << line << '\n';
        return out.str();
    }

    DramOrg org;
    DramTiming timing;
    MemoryController ctrl;
    RecordingListener listener;
    std::ostringstream log;
    Cycle now = 0;
};

MemCtrlConfig
openPage()
{
    MemCtrlConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    return cfg;
}

TEST(QuietSpan, StaleRequestIntoOpenBank)
{
    QuietSpan s(openPage());
    s.listener.remap[100] = 5000;
    s.enqueue(0, 0, 100, 0, false);
    s.runUntil(50);
    // The bank holds row 5000 with no queued hit, and its next RD is
    // a few bus clocks away: the new request becomes a hit only once
    // the scheduler revalidates it.
    s.enqueue(0, 0, 100, 1, false);
    s.runUntil(3000);
    // Idle open bank: a hit and a conflict behind it.
    s.enqueue(0, 0, 100, 2, false);
    s.enqueue(0, 0, 200, 0, false);
    s.runUntil(8000);
    // The mapping moves without a migration; a new request takes the
    // new translation and conflicts with the open row.
    s.listener.remap[100] = 7000;
    s.enqueue(0, 0, 100, 3, false);
    s.runUntil(12000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b0 r5000
done 99 ch0 b0 r100 c0
done 115 ch0 b0 r100 c1
done 3053 ch0 b0 r100 c2
act 3070 ch0 b0 r200
done 3169 ch0 b0 r200 c0
act 8046 ch0 b0 r7000
done 8145 ch0 b0 r100 c3
queries 3
activations=3 forced_precharges=0 idle_closes=0 latent_activations=0
mig_scheduled_counter_access=0 mig_scheduled_place_back=0
mig_scheduled_swap=0 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=0 mig_started_swap=0
mig_started_unswap_swap=0 migration_busy_cycles=0 p2_skip_throttled=0
read_latency_cycles=531 reads_completed=5 reads_enqueued=5
reads_forwarded=0 reads_issued=5 refreshes=0 row_conflicts=2 row_hits=5
writes_enqueued=0 writes_issued=0
)");
}

TEST(QuietSpan, MigrationRemapsOpenRow)
{
    QuietSpan s(openPage());
    s.listener.remap[100] = 5000;
    s.enqueue(0, 0, 100, 0, false);
    s.enqueue(0, 1, 300, 0, false);
    s.runUntil(2000);
    // Both banks idle and open.  The mitigation moves logical row 100
    // (open in bank 0) and queues the migration that performs it.
    s.listener.remap[100] = 6000;
    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = 3000;
    job.charges = {RowCharge{5000, 1}, RowCharge{6000, 1}};
    s.ctrl.scheduleMigration(0, 0, job);
    s.enqueue(0, 0, 100, 1, false);
    s.runUntil(2600);
    s.enqueue(0, 1, 300, 1, false);
    s.runUntil(8000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b0 r5000
act 16 ch0 b1 r300
done 99 ch0 b0 r100 c0
done 115 ch0 b1 r300 c0
done 2653 ch0 b1 r300 c1
act 5046 ch0 b0 r6000
done 5145 ch0 b0 r100 c1
queries 3
activations=3 forced_precharges=0 idle_closes=0 latent_activations=2
mig_scheduled_counter_access=0 mig_scheduled_place_back=0
mig_scheduled_swap=1 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=0 mig_started_swap=1
mig_started_unswap_swap=0 migration_busy_cycles=3000 p2_skip_throttled=0
read_latency_cycles=3412 reads_completed=4 reads_enqueued=4
reads_forwarded=0 reads_issued=4 refreshes=0 row_conflicts=0 row_hits=4
writes_enqueued=0 writes_issued=0
)");
}

TEST(QuietSpan, MigrationStartsUnderActPacing)
{
    QuietSpan s(MemCtrlConfig{});
    s.enqueue(0, 0, 10, 0, false);
    s.runUntil(136);
    // Bank 0 was idle-closed at cycle 100, so tRC and tRP hold its
    // next ACT until 145; an ACT to bank 1 at 136 adds tRRD on top.
    s.enqueue(0, 1, 30, 0, false);
    s.runUntil(140);
    // The migration starts as soon as bank 0's own timing allows,
    // before the rank's ACT pacing would have let its request go.
    MigrationJob job;
    job.kind = MigrationJob::Kind::PlaceBack;
    job.duration = 1000;
    s.ctrl.scheduleMigration(0, 0, job);
    s.enqueue(0, 0, 20, 0, false);
    s.runUntil(3000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b0 r10
done 99 ch0 b0 r10 c0
act 136 ch0 b1 r30
done 235 ch0 b1 r30 c0
act 1146 ch0 b0 r20
done 1245 ch0 b0 r20 c0
queries 3
activations=3 forced_precharges=0 idle_closes=3 latent_activations=0
mig_scheduled_counter_access=0 mig_scheduled_place_back=1
mig_scheduled_swap=0 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=1 mig_started_swap=0
mig_started_unswap_swap=0 migration_busy_cycles=1000 p2_skip_throttled=0
read_latency_cycles=1303 reads_completed=3 reads_enqueued=3
reads_forwarded=0 reads_issued=3 refreshes=0 row_conflicts=0 row_hits=3
writes_enqueued=0 writes_issued=0
)");
}

TEST(QuietSpan, RefreshDebtForcesRefresh)
{
    MemCtrlConfig cfg = openPage();
    cfg.maxPostponedRefreshes = 2;
    QuietSpan s(cfg);
    // Open rows hold refresh off, so debt accrues each tREFI.
    s.enqueue(0, 0, 10, 0, false);
    s.enqueue(1, 0, 10, 0, false);
    s.runUntil(40000);
    s.enqueue(0, 3, 20, 0, false);
    // At 2 tREFI the debt reaches the bound: forced precharges, then
    // two back-to-back refreshes.  A request arriving meanwhile waits
    // behind them.
    s.runUntil(2 * s.timing.tREFI + 4);
    s.enqueue(0, 5, 30, 0, false);
    s.runUntil(3 * s.timing.tREFI + 2000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b0 r10
act 0 ch1 b0 r10
done 99 ch0 b0 r10 c0
done 99 ch1 b0 r10 c0
act 40000 ch0 b3 r20
done 40099 ch0 b3 r20 c0
act 52208 ch0 b5 r30
done 52307 ch0 b5 r30 c0
queries 4
activations=4 forced_precharges=3 idle_closes=0 latent_activations=0
mig_scheduled_counter_access=0 mig_scheduled_place_back=0
mig_scheduled_swap=0 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=0 mig_started_swap=0
mig_started_unswap_swap=0 migration_busy_cycles=0 p2_skip_throttled=0
read_latency_cycles=2680 reads_completed=4 reads_enqueued=4
reads_forwarded=0 reads_issued=4 refreshes=5 row_conflicts=0 row_hits=4
writes_enqueued=0 writes_issued=0
)");
}

TEST(QuietSpan, WriteDrainFlip)
{
    MemCtrlConfig cfg;
    cfg.writeHiWatermark = 6;
    cfg.writeLoWatermark = 2;
    QuietSpan s(cfg);
    // Reads to conflicting rows of bank 0 keep the read queue busy
    // while writes to one row of bank 2 park below the watermark.
    for (std::uint32_t i = 0; i < 6; ++i)
        s.enqueue(0, 0, 10 + i, 0, false);
    for (std::uint32_t col = 0; col < 5; ++col)
        s.enqueue(0, 2, 40, col, true);
    s.runUntil(300);
    // The sixth write starts a drain; it stops at the low watermark
    // with two writes to the open row still queued.
    s.enqueue(0, 2, 40, 5, true);
    s.runUntil(1500);
    for (std::uint32_t i = 0; i < 2; ++i)
        s.enqueue(0, 2, 50 + i, 0, false);
    s.runUntil(4000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b0 r10
done 99 ch0 b0 r10 c0
act 146 ch0 b0 r11
done 245 ch0 b0 r11 c0
act 292 ch0 b0 r12
act 308 ch0 b2 r40
done 391 ch0 b0 r12 c0
act 440 ch0 b0 r13
done 539 ch0 b0 r13 c0
act 586 ch0 b0 r14
done 685 ch0 b0 r14 c0
act 732 ch0 b0 r15
act 780 ch0 b2 r40
done 831 ch0 b0 r15 c0
act 1500 ch0 b2 r50
done 1599 ch0 b2 r50 c0
act 1646 ch0 b2 r51
done 1745 ch0 b2 r51 c0
queries 10
activations=10 forced_precharges=0 idle_closes=4 latent_activations=0
mig_scheduled_counter_access=0 mig_scheduled_place_back=0
mig_scheduled_swap=0 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=0 mig_started_swap=0
mig_started_unswap_swap=0 migration_busy_cycles=0 p2_skip_throttled=0
read_latency_cycles=3134 reads_completed=8 reads_enqueued=8
reads_forwarded=0 reads_issued=8 refreshes=0 row_conflicts=6 row_hits=8
writes_enqueued=6 writes_issued=6
)");
}

TEST(QuietSpan, ThrottlingListener)
{
    QuietSpan s(MemCtrlConfig{});
    s.listener.throttledRow = 50;
    s.listener.throttleUntil = 3001;
    s.enqueue(0, 0, 50, 0, false);
    s.enqueue(0, 1, 60, 0, false);
    s.runUntil(1000);
    s.enqueue(0, 0, 50, 1, false);
    s.runUntil(4000);
    // Throttle the row again, from outside the controller.
    s.listener.throttleUntil = 6500;
    s.enqueue(0, 0, 50, 2, false);
    s.enqueue(0, 4, 70, 0, false);
    s.runUntil(8000);
    EXPECT_EQ(s.transcript(), R"(act 0 ch0 b1 r60
done 99 ch0 b1 r60 c0
act 3002 ch0 b0 r50
done 3101 ch0 b0 r50 c0
done 3117 ch0 b0 r50 c1
act 4000 ch0 b4 r70
done 4099 ch0 b4 r70 c0
act 6500 ch0 b0 r50
done 6599 ch0 b0 r50 c2
queries 3740
activations=4 forced_precharges=0 idle_closes=4 latent_activations=0
mig_scheduled_counter_access=0 mig_scheduled_place_back=0
mig_scheduled_swap=0 mig_scheduled_unswap_swap=0
mig_started_counter_access=0 mig_started_place_back=0 mig_started_swap=0
mig_started_unswap_swap=0 migration_busy_cycles=0 p2_skip_throttled=3736
read_latency_cycles=8015 reads_completed=5 reads_enqueued=5
reads_forwarded=0 reads_issued=5 refreshes=0 row_conflicts=0 row_hits=5
writes_enqueued=0 writes_issued=0
)");
}

} // namespace
} // namespace srs
