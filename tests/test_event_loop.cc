/**
 * @file
 * Event-driven loop equivalence: the skip-ahead System::run must be
 * indistinguishable from the tick-per-cycle reference loop
 * (SystemConfig::referenceLoop, the oracle no production caller
 * selects).  Skipping a cycle is only legal when ticking every
 * component there is provably a no-op, so every observable — IPC per
 * core, mitigation activity, Row Hammer ground truth, the latency
 * histogram — must match exactly, not approximately.
 *
 * The end-to-end comparison cannot see a deadline hook that is merely
 * early, nor one whose lateness the other components' wakes happen to
 * cover, so DeadlineHooksAreExact checks each hook on its own.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "memctrl/controller.hh"
#include "mitigation/blockhammer.hh"
#include "mitigation/srs.hh"
#include "sim/experiment.hh"
#include "trace/attack.hh"
#include "tracker/misra_gries.hh"

namespace srs
{
namespace
{

RunResult
runCell(const char *workload, MitigationKind kind, TrackerKind tracker,
        bool referenceLoop, std::uint32_t trh = 1200,
        const SystemAxes &axes = {})
{
    ExperimentConfig exp;
    exp.cycles = 120'000;
    exp.epochLen = 50'000;
    SystemConfig cfg = makeSystemConfig(exp, kind, trh, 6, tracker, axes);
    cfg.referenceLoop = referenceLoop;
    return runWorkload(cfg, profileByName(workload), exp);
}

void
expectIdentical(const RunResult &ref, const RunResult &ev,
                const std::string &label)
{
    // Exact double equality is intentional: both loops execute the
    // same component code at the same simulated cycles, so there is
    // no rounding to forgive.
    EXPECT_EQ(ref.aggregateIpc, ev.aggregateIpc) << label;
    ASSERT_EQ(ref.coreIpc.size(), ev.coreIpc.size()) << label;
    for (std::size_t i = 0; i < ref.coreIpc.size(); ++i)
        EXPECT_EQ(ref.coreIpc[i], ev.coreIpc[i]) << label << " core " << i;
    EXPECT_EQ(ref.swaps, ev.swaps) << label;
    EXPECT_EQ(ref.unswapSwaps, ev.unswapSwaps) << label;
    EXPECT_EQ(ref.placeBacks, ev.placeBacks) << label;
    EXPECT_EQ(ref.latentActivations, ev.latentActivations) << label;
    EXPECT_EQ(ref.maxRowActivations, ev.maxRowActivations) << label;
    EXPECT_EQ(ref.rowsPinned, ev.rowsPinned) << label;
    // Whole read-latency distributions must match bucket for bucket,
    // not just the three percentile columns derived from them.
    EXPECT_EQ(ref.readLatency, ev.readLatency) << label;
    EXPECT_EQ(ref.p50Lat, ev.p50Lat) << label;
    EXPECT_EQ(ref.p99Lat, ev.p99Lat) << label;
    EXPECT_EQ(ref.p999Lat, ev.p999Lat) << label;
}

TEST(EventLoop, MatchesReferenceAcrossMitigations)
{
    // Every defense a figure or bench runs.  At T_RH 1200 (T_S = 200)
    // no row of this window reaches T_S; at T_RH 120 (T_S = 20) every
    // row-moving defense swaps, so the loops are also compared across
    // migrations, unswaps, place-backs and latent charges.  The
    // open-page and DDR5 2x2x32 axes move the controller's deadlines.
    const char *workloads[] = {"gups", "gcc"};
    const MitigationKind kinds[] = {
        MitigationKind::None,
        MitigationKind::Rrs,
        MitigationKind::RrsNoUnswap,
        MitigationKind::Srs,
        MitigationKind::ScaleSrs,
        MitigationKind::BlockHammer,
        MitigationKind::Aqua,
    };
    const std::uint32_t trhs[] = {1200, 120};
    SystemAxes open;
    open.pagePolicy = PagePolicy::Open;
    SystemAxes openDdr5 = open; // open@ddr5@org=2x2x32
    openDdr5.preset = DramPreset::Ddr5;
    openDdr5.orgRanks = 2;
    openDdr5.orgBanks = 32;
    const SystemAxes axesList[] = {SystemAxes{}, open, openDdr5};
    for (const char *wl : workloads) {
        for (const MitigationKind kind : kinds) {
            for (const std::uint32_t trh : trhs) {
                for (const SystemAxes &axes : axesList) {
                    const std::string label = std::string(wl) + "/"
                        + mitigationKindName(kind) + "/"
                        + std::to_string(trh) + "/" + axes.field();
                    const RunResult ref = runCell(
                        wl, kind, TrackerKind::MisraGries, true, trh, axes);
                    const RunResult ev = runCell(
                        wl, kind, TrackerKind::MisraGries, false, trh,
                        axes);
                    expectIdentical(ref, ev, label);
                    const bool swapping = trh == 120
                        && kind != MitigationKind::None
                        && kind != MitigationKind::BlockHammer;
                    if (swapping) {
                        EXPECT_GT(ev.swaps, 0u) << label;
                    }
                }
            }
        }
    }
}

TEST(EventLoop, MatchesReferenceWhileScaleSrsPins)
{
    // The grid above never reaches Scale-SRS's outlier threshold.  A
    // hammer stream with outlierSwaps = 1 pins its row at the first
    // crossing, so the loops are also compared across pinned-row
    // hits and the restores each epoch boundary posts.
    double ipc[2];
    std::string dumps[2];
    for (int refLoop = 0; refLoop < 2; ++refLoop) {
        ExperimentConfig exp;
        exp.epochLen = 100'000;
        SystemConfig cfg =
            makeSystemConfig(exp, MitigationKind::ScaleSrs, 600, 6);
        cfg.numCores = 1;
        cfg.scaleCfg.outlierSwaps = 1;
        cfg.referenceLoop = refLoop == 1;
        System sys(cfg);
        sys.setTrace(0, std::make_unique<HammerTrace>(
                            sys.controller().addressMap(), 0, 0, 5000));
        sys.run(250'000);
        const std::string label = refLoop ? "reference" : "event";
        EXPECT_GT(sys.mitigation().stats().get("rows_pinned"), 0u)
            << label;
        EXPECT_GT(sys.stats().get("pinned_absorbed"), 0u) << label;
        EXPECT_GT(sys.stats().get("pinned_rows_restored"), 0u) << label;
        ipc[refLoop] = sys.aggregateIpc();
        const LatencyHistogram &lat = sys.controller().readLatency();
        dumps[refLoop] =
            "max_acts " + std::to_string(sys.maxEpochActivations())
            + "\nlat_p99 " + std::to_string(lat.quantilePermille(990))
            + "\nlat_samples " + std::to_string(lat.total()) + '\n'
            + sys.stats().dump() + sys.controller().stats().dump()
            + sys.mitigation().stats().dump();
    }
    EXPECT_EQ(ipc[1], ipc[0]);
    EXPECT_EQ(dumps[1], dumps[0]);
}

TEST(EventLoop, MatchesReferenceWithHydraTracker)
{
    const RunResult ref =
        runCell("gups", MitigationKind::Srs, TrackerKind::Hydra, true);
    const RunResult ev =
        runCell("gups", MitigationKind::Srs, TrackerKind::Hydra, false);
    expectIdentical(ref, ev, "gups/srs/hydra");
}

TEST(EventLoop, MatchesReferenceOnGeneratorWorkloads)
{
    // The generator-backed streams (Zipf, migrating hotspot, blend
    // with an embedded hammer stream) draw their records from
    // generator-time, not wall-clock scheduling, so both loops must
    // see the identical access stream — and the identical latency
    // histogram.
    const char *specs[] = {
        "zipf:4096@s=0.99",
        "hotspot:1024@hot=0.1@p=0.9@shift=20000",
        "blend:zipf:4096@s=0.9+attack@0.05",
    };
    for (const char *spelling : specs) {
        const GeneratorSpec gen = GeneratorSpec::parse(spelling);
        RunResult results[2];
        for (int refLoop = 0; refLoop < 2; ++refLoop) {
            ExperimentConfig exp;
            exp.cycles = 120'000;
            exp.epochLen = 50'000;
            SystemConfig cfg = makeSystemConfig(
                exp, MitigationKind::ScaleSrs, 1200, 6);
            cfg.referenceLoop = refLoop == 1;
            results[refLoop] = runWorkloadGenerator(cfg, gen, exp);
        }
        expectIdentical(results[1], results[0], spelling);
        EXPECT_GT(results[0].readLatency.total(), 0u) << spelling;
    }
}

/** Plays a fixed list of records, then pure compute forever. */
class ScriptTrace : public TraceSource
{
  public:
    explicit ScriptTrace(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {
    }

    TraceRecord next() override
    {
        return next_ < records_.size() ? records_[next_++] : TraceRecord{};
    }

  private:
    std::vector<TraceRecord> records_;
    std::size_t next_ = 0;
};

/**
 * Run @p sys one cycle at a time for @p cycles.  @return every
 * core's retired instructions and the completed reads after each
 * cycle, then System's and the controller's counters.
 */
std::string
cycleByCycle(System &sys, Cycle cycles)
{
    std::string out;
    for (Cycle c = 0; c < cycles; ++c) {
        sys.run(1);
        out += std::to_string(c);
        for (CoreId k = 0; k < sys.config().numCores; ++k) {
            out += ' ' + std::to_string(std::llround(
                sys.coreIpc(k) * static_cast<double>(sys.now())));
        }
        out += ' ' + std::to_string(sys.controller().readLatency().total())
            + '\n';
    }
    return out + sys.stats().dump() + sys.controller().stats().dump();
}

/** Compare an event-loop transcript with the reference's. */
void
expectSameCycles(const std::string &ev, const std::string &ref,
                 const std::string &label)
{
    if (ev == ref)
        return;
    std::size_t at = 0;
    while (at < ev.size() && at < ref.size() && ev[at] == ref[at])
        ++at;
    const std::size_t line = ev.rfind('\n', at) + 1;
    ADD_FAILURE() << label << ": the loops diverge; event loop\n"
                  << ev.substr(line, 80) << "\nreference\n"
                  << ref.substr(line, 80);
}

/** @return the address of (channel 0, rank 0, bank, row, column). */
Addr
lineAt(const System &sys, std::uint32_t bank, RowId row,
       std::uint32_t column)
{
    DramCoord c;
    c.bank = bank;
    c.row = row;
    c.column = column;
    return sys.controller().addressMap().encode(c);
}

TEST(EventLoop, RefusedCoresWakeWhenTheirRetryCanPass)
{
    // A one-entry read queue that core 0's stream of reads refills on
    // the cycle after each slot frees, so every other read is refused
    // until it can forward from a posted write.  The reader core's
    // reads of lines L_i pass only once the writer core posts a write
    // to L_i.  A writer with the lower index is ticked first, so the
    // reader's retry passes in the same cycle; a writer with the
    // higher index lets it pass one cycle later.  The two loops must
    // agree cycle by cycle.
    constexpr std::uint32_t kRounds = 24;
    const CoreId orders[][2] = {{1, 2}, {2, 1}};   // {writer, reader}
    for (const auto &[writer, reader] : orders) {
        const std::string label = "writer " + std::to_string(writer)
            + ", reader " + std::to_string(reader);
        std::string runs[2];
        for (int refLoop = 0; refLoop < 2; ++refLoop) {
            SystemConfig cfg;
            cfg.numCores = 3;
            cfg.epochLen = 1'000'000;
            cfg.memCtrl.readQueueDepth = 1;
            cfg.referenceLoop = refLoop == 1;
            System sys(cfg);
            std::vector<TraceRecord> stream, writes, reads;
            for (std::uint32_t i = 0; i < 2000; ++i)
                stream.push_back({0, lineAt(sys, i % 16, 1000 + i / 16, 0),
                                  false});
            for (std::uint32_t i = 0; i < kRounds; ++i) {
                const Addr line = lineAt(sys, 3, 50'000 + i, 5);
                // Gaps of 10 to 30 cycles at four instructions a cycle,
                // so the writes land at varied bus-clock phases.
                writes.push_back({40 + 13 * (i % 7) + (i % 3), line, true});
                reads.push_back({0, line, false});
            }
            sys.setTrace(0, std::make_unique<ScriptTrace>(stream));
            sys.setTrace(writer, std::make_unique<ScriptTrace>(writes));
            sys.setTrace(reader, std::make_unique<ScriptTrace>(reads));
            runs[refLoop] = cycleByCycle(sys, 12'000);
            EXPECT_EQ(sys.controller().stats().get("reads_forwarded"),
                      kRounds) << label;
        }
        expectSameCycles(runs[0], runs[1], label);
    }
}

TEST(EventLoop, RefusedCoresWakeWhenTheirRowIsPinned)
{
    // Core 0 alternates two rows of one bank with no gap and takes
    // every freed slot of a one-entry read queue, so core 1's reads
    // of the first row are refused until Scale-SRS pins that row.
    // From the next cycle they hit the pin buffer.
    std::string runs[2];
    for (int refLoop = 0; refLoop < 2; ++refLoop) {
        ExperimentConfig exp;
        exp.epochLen = 100'000;
        SystemConfig cfg =
            makeSystemConfig(exp, MitigationKind::ScaleSrs, 60, 6);
        cfg.numCores = 2;
        cfg.scaleCfg.outlierSwaps = 1;
        cfg.memCtrl.readQueueDepth = 1;
        cfg.referenceLoop = refLoop == 1;
        System sys(cfg);
        std::vector<TraceRecord> hammer, victim;
        for (std::uint32_t i = 0; i < 4000; ++i) {
            hammer.push_back({0, lineAt(sys, 2, 700 + 9 * (i % 2), i % 64),
                              false});
            victim.push_back({0, lineAt(sys, 2, 700, 64 + i % 64), false});
        }
        sys.setTrace(0, std::make_unique<ScriptTrace>(hammer));
        sys.setTrace(1, std::make_unique<ScriptTrace>(victim));
        runs[refLoop] = cycleByCycle(sys, 30'000);
        EXPECT_GT(sys.mitigation().stats().get("rows_pinned"), 0u);
        EXPECT_GT(sys.stats().get("pinned_absorbed"), 0u);
    }
    expectSameCycles(runs[0], runs[1], "pin");
}

// ---------------------------------------------------------------------
// The deadline contract behind the skip-ahead.
// ---------------------------------------------------------------------

/** One self-timed component as the run loop sees it. */
struct Timed
{
    std::function<void(Cycle)> tick;
    /** nextEventAt(now); kNoCycle when no future tick has an effect. */
    std::function<Cycle(Cycle)> deadline;
    /** Everything a tick can change, as one comparable string. */
    std::function<std::string()> observe;
    /** Tick lattice: 1 for cores, the bus clock for memory. */
    Cycle step = 1;
    /** How long to keep ticking after the component reports kNoCycle;
     *  longer than any self-timed work it could have hidden. */
    Cycle horizon = 0;
};

/**
 * Tick @p t at every lattice point after @p now, which was just
 * ticked, through @p deadlines reported deadlines.  Before each
 * deadline nothing observable may change.  At it something must
 * change, or the component must learn there that it may sleep: its
 * next deadline lies beyond the next lattice point (a core that
 * filled its ROB last cycle) or is kNoCycle (SRS's last lazy step
 * finds no stale entry left).  After kNoCycle nothing may ever
 * change.
 * @return the number of deadlines visited
 */
int
expectDeadlineContract(const Timed &t, Cycle now, int deadlines,
                       const std::string &label)
{
    for (int visited = 0; visited < deadlines; ++visited) {
        const std::string before = t.observe();
        const Cycle reported = t.deadline(now);
        if (reported == kNoCycle) {
            for (Cycle c = now + t.step; c <= now + t.horizon; c += t.step) {
                t.tick(c);
                if (t.observe() != before) {
                    ADD_FAILURE() << label << ": changed at cycle " << c
                                  << " after reporting kNoCycle at "
                                  << now;
                    return visited;
                }
            }
            return visited;
        }
        // Memory deadlines round up to the bus lattice, as System does.
        const Cycle at = (reported + t.step - 1) / t.step * t.step;
        if (at <= now) {
            ADD_FAILURE() << label << ": deadline " << reported
                          << " is not after " << now;
            return visited;
        }
        for (Cycle c = now + t.step; c < at; c += t.step) {
            t.tick(c);
            if (t.observe() != before) {
                ADD_FAILURE() << label << ": changed at cycle " << c
                              << ", before its deadline " << at;
                return visited;
            }
        }
        t.tick(at);
        const Cycle next = t.deadline(at);
        if (t.observe() == before && next != kNoCycle
            && next <= at + t.step) {
            ADD_FAILURE() << label << ": nothing changed at its deadline "
                          << at;
            return visited;
        }
        now = at;
    }
    return deadlines;
}

/** Feeds a core back-to-back reads, so every fetch is observable. */
class ReadTrace : public TraceSource
{
  public:
    TraceRecord next() override
    {
        TraceRecord r;
        r.addr = 0x1000 + 64 * records_++;
        return r;
    }

  private:
    Addr records_ = 0;
};

/** Serves the first @p hits reads after a fixed latency, then leaves
 *  every read pending until the test completes it.  While `full`, it
 *  refuses every access, as a full queue does. */
class SlowMemory : public CoreMemoryInterface
{
  public:
    explicit SlowMemory(std::uint64_t hits) : hits_(hits) {}

    Outcome access(Addr, bool, CoreId, std::uint64_t token, Cycle,
                   Cycle &latencyOut) override
    {
        if (full)
            return Outcome::Reject;
        if (hits_ == 0) {
            pending.push_back(token);
            return Outcome::Pending;
        }
        --hits_;
        latencyOut = 300;
        return Outcome::Hit;
    }

    /** Tokens of the pending reads, oldest first. */
    std::vector<std::uint64_t> pending;
    bool full = false;

  private:
    std::uint64_t hits_;
};

std::string
pendingMigrations(const MemoryController &ctrl)
{
    std::uint64_t n = 0;
    const DramOrg &org = ctrl.org();
    for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
        for (std::uint32_t b = 0;
             b < org.ranksPerChannel * org.banksPerRank; ++b)
            n += ctrl.pendingMigrations(ch, b);
    }
    return " migrations=" + std::to_string(n);
}

MisraGriesConfig
trackerConfig(std::uint32_t ts)
{
    MisraGriesConfig cfg;
    cfg.ts = ts;
    cfg.actMaxPerEpoch = 100'000;
    return cfg;
}

TEST(EventLoop, DeadlineHooksAreExact)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    const Cycle bus = timing.busClock;
    MitigationConfig mitCfg;
    mitCfg.trh = 120;
    mitCfg.swapRate = 6;   // T_S = 20

    {
        // Core: running (wake next cycle), asleep behind a 300-cycle
        // read at the head of a full ROB, asleep behind a pending read
        // (kNoCycle), then woken by that read's completion.
        ReadTrace trace;
        SlowMemory mem(120);
        Core core(0, CoreConfig{}, trace, mem);
        Timed t;
        t.tick = [&](Cycle now) { core.tick(now); };
        t.deadline = [&](Cycle) { return core.nextEventAt(); };
        t.observe = [&] {
            return std::to_string(core.retiredInstrs()) + " "
                + std::to_string(core.memReads());
        };
        t.horizon = 2000;
        core.tick(0);
        expectDeadlineContract(t, 0, 100'000, "core");
        EXPECT_EQ(core.nextEventAt(), kNoCycle);
        EXPECT_EQ(core.retiredInstrs(), 120u);
        ASSERT_FALSE(mem.pending.empty());
        core.complete(mem.pending.front(), 10'000);
        expectDeadlineContract(t, 10'000, 100, "core after a completion");
        EXPECT_EQ(core.retiredInstrs(), 121u);
    }

    {
        // Core refused by a full queue: asleep behind the 300-cycle
        // reads at the head of its ROB, then, with the ROB drained,
        // kNoCycle.  Once the memory admits again, wake() re-arms it.
        // Refused again behind a pending read, it sleeps until that
        // read's completion.
        ReadTrace trace;
        SlowMemory mem(4);
        Core core(0, CoreConfig{}, trace, mem);
        Timed t;
        t.tick = [&](Cycle now) { core.tick(now); };
        t.deadline = [&](Cycle) { return core.nextEventAt(); };
        t.observe = [&] {
            return std::to_string(core.retiredInstrs()) + " "
                + std::to_string(core.memReads());
        };
        t.horizon = 2000;
        core.tick(0);
        mem.full = true;
        core.tick(1);
        EXPECT_EQ(core.nextEventAt(), 300u);
        expectDeadlineContract(t, 1, 100, "refused core");
        EXPECT_EQ(core.nextEventAt(), kNoCycle);
        EXPECT_EQ(core.retiredInstrs(), 4u);

        mem.full = false;
        core.wake(5000);
        core.wake(6000);   // a later wake keeps the earlier one
        EXPECT_EQ(core.nextEventAt(), 5000u);
        expectDeadlineContract(t, 4999, 100'000, "refused core, woken");
        EXPECT_EQ(core.nextEventAt(), kNoCycle);
        EXPECT_EQ(core.memReads(), 4u + 192u);

        mem.full = true;
        core.complete(mem.pending.front(), 20'000);
        expectDeadlineContract(t, 20'000, 100, "refused core, completed");
        EXPECT_EQ(core.nextEventAt(), kNoCycle);
        EXPECT_EQ(core.retiredInstrs(), 5u);
        core.complete(mem.pending[1], 30'000);
        EXPECT_EQ(core.nextEventAt(), 30'001u);
    }

    {
        // Controller, drained: one read in flight, then tREFI refresh
        // deadlines, forever.  A slow CL lets the closed-page idle
        // close precharge the bank before the data returns.
        DramTimingNs slowCas;
        slowCas.tCAS = 60.0;
        MemoryController ctrl(org, DramTiming::fromNs(slowCas));
        std::uint64_t completed = 0;
        ctrl.setReadCallback([&](const MemRequest &) { ++completed; });
        ctrl.enqueue(0x4000, false, 0, 0);
        Cycle now = 0;
        ctrl.tick(now);
        while (ctrl.nextEventAt(now) <= now + bus && now < 100'000) {
            now += bus;
            ctrl.tick(now);
        }
        ASSERT_EQ(completed, 0u) << "the read must still be in flight";
        Timed t;
        t.tick = [&](Cycle c) { ctrl.tick(c); };
        t.deadline = [&](Cycle c) { return ctrl.nextEventAt(c); };
        t.observe = [&] {
            return ctrl.stats().dump() + " completed="
                + std::to_string(completed);
        };
        t.step = bus;
        t.horizon = 3 * ctrl.timing().tREFI;
        EXPECT_EQ(expectDeadlineContract(t, now, 4, "controller"), 4);
        EXPECT_EQ(completed, 1u);
        EXPECT_GE(ctrl.stats().get("refreshes"), 3u);
    }

    {
        // Base-class lazy pacing: SRS places back the last epoch's
        // swaps one per paced deadline, then reports kNoCycle.
        MemoryController ctrl(org, timing);
        MisraGriesTracker tracker(trackerConfig(mitCfg.ts()));
        SrsConfig srsCfg;
        srsCfg.modelCounterTraffic = false;
        Srs srs(ctrl, tracker, mitCfg, srsCfg);
        for (std::uint32_t bank = 0; bank < 3; ++bank) {
            for (int i = 0; i < 2 * static_cast<int>(mitCfg.ts()); ++i)
                srs.onActivate(0, bank, 500 + bank, 0);
        }
        ASSERT_GT(srs.stats().get("swaps"), 0u);
        srs.onEpochEnd(0, 60'000);
        Timed t;
        t.tick = [&](Cycle c) { srs.tick(c); };
        t.deadline = [&](Cycle c) { return srs.nextEventAt(c); };
        t.observe = [&] {
            return srs.stats().dump() + pendingMigrations(ctrl);
        };
        t.step = bus;
        t.horizon = 120'000;
        expectDeadlineContract(t, 0, 1000, "srs lazy pacing");
        EXPECT_EQ(srs.nextEventAt(0), kNoCycle);
        EXPECT_EQ(srs.stats().get("place_backs"),
                  srs.stats().get("swaps"));
    }

    {
        // BlockHammer: a filter rotation every half epoch, forever,
        // with a blacklisted row whose stamp a rotation drops.
        MemoryController ctrl(org, timing);
        MisraGriesTracker tracker(trackerConfig(mitCfg.ts()));
        BlockHammer bh(ctrl, tracker, mitCfg);
        bh.onEpochEnd(0, 8000);
        for (std::uint32_t i = 0; i <= bh.blacklistThreshold(); ++i)
            bh.onActivate(0, 0, 900, 0);
        ASSERT_EQ(bh.blacklistedRows(0, 0), 1u);
        Timed t;
        t.tick = [&](Cycle c) { bh.tick(c); };
        t.deadline = [&](Cycle c) { return bh.nextEventAt(c); };
        t.observe = [&] {
            return bh.stats().dump() + " blacklisted="
                + std::to_string(bh.blacklistedRows(0, 0))
                + pendingMigrations(ctrl);
        };
        t.step = bus;
        t.horizon = 20'000;
        EXPECT_EQ(expectDeadlineContract(t, 0, 3, "blockhammer"), 3);
        EXPECT_EQ(bh.stats().get("filter_rotations"), 3u);
    }
}

} // namespace
} // namespace srs
