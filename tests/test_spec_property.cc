/**
 * @file
 * Property-style coverage of the experiment-identity grammar
 * (sim/workload_spec.hh): for a few hundred seeded-RNG-generated
 * WorkloadSpec and GeneratorSpec values, `parse(label(x)) == x`
 * holds exactly — the spellings these types put into CSV identity
 * columns and shard manifests are loss-free — SystemAxes::field()
 * is injective (distinct axes never share a spelling, so never a
 * baseline), and every malformed workload spelling dies with a
 * fatal() that names the offending input *verbatim* and lists the
 * accepted spellings (table-driven negative cases).
 *
 * The generators only produce *valid* values (e.g. effective
 * tRC >= tRCD + tRP); invalid axes are covered by the SystemAxesApi
 * tests (test_sweep), invalid workloads by the negative tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/sweep.hh"
#include "sim/workload_spec.hh"
#include "trace/generators.hh"
#include "trace/profiles.hh"

namespace srs
{
namespace
{

constexpr int kIterations = 300;

/**
 * Draw one valid SystemAxes: random policy and preset, a random
 * in-bounds organization triple with probability ~1/2 (sometimes
 * landing on the default 2x1x16, which field() must canonicalize
 * away), each timing knob overridden with probability ~1/2.  tRC
 * (when overridden) is drawn at or above the effective tRCD + tRP,
 * and tRFC below the effective tREFI, so the combination always
 * validates.
 */
SystemAxes
randomAxes(Rng &rng)
{
    SystemAxes axes;
    axes.pagePolicy =
        rng.nextBool(0.5) ? PagePolicy::Closed : PagePolicy::Open;
    axes.preset =
        rng.nextBool(0.5) ? DramPreset::Ddr4 : DramPreset::Ddr5;
    if (rng.nextBool(0.5)) {
        static const std::uint32_t chs[] = {1, 2, 4, 8};
        static const std::uint32_t rks[] = {1, 2, 4};
        static const std::uint32_t bks[] = {4, 8, 16, 32, 64};
        axes.orgChannels = chs[rng.nextBelow(std::size(chs))];
        axes.orgRanks = rks[rng.nextBelow(std::size(rks))];
        axes.orgBanks = bks[rng.nextBelow(std::size(bks))];
    }
    if (rng.nextBool(0.5))
        axes.tRcdNs = static_cast<std::uint32_t>(rng.nextRange(1, 100));
    if (rng.nextBool(0.5))
        axes.tRpNs = static_cast<std::uint32_t>(rng.nextRange(1, 100));
    // Effective tRCD/tRP fall back to the preset default (14 ns in
    // both presets) when not overridden; when their sum outgrows the
    // default tRC (45 ns), a tRC override is forced so the generated
    // axes always validate.
    const std::uint32_t trcd = axes.tRcdNs ? axes.tRcdNs : 14;
    const std::uint32_t trp = axes.tRpNs ? axes.tRpNs : 14;
    if (trcd + trp > 45 || rng.nextBool(0.5)) {
        axes.tRcNs = static_cast<std::uint32_t>(
            rng.nextRange(trcd + trp, trcd + trp + 400));
    }
    // Likewise a refresh must end before the next is due: tRFC is
    // drawn below the effective tREFI, and forced when the preset's
    // tRFC is not below an overridden tREFI.
    if (rng.nextBool(0.5))
        axes.tRefiNs =
            static_cast<std::uint32_t>(rng.nextRange(2, 100'000));
    const DramTimingNs preset = DramTimingNs::preset(axes.preset);
    const std::uint32_t trefi = axes.tRefiNs
        ? axes.tRefiNs : static_cast<std::uint32_t>(preset.tREFI);
    if (preset.tRFC >= trefi || rng.nextBool(0.5)) {
        axes.tRfcNs = static_cast<std::uint32_t>(
            rng.nextRange(1, std::min<std::uint32_t>(10'000, trefi - 1)));
    }
    return axes;
}

/** Draw one trace path from the CSV/manifest-safe character set. */
std::string
randomTracePath(Rng &rng)
{
    static const char safe[] =
        "abcdefghijklmnopqrstuvwxyz0123456789_.-";
    std::string path = "/";
    const std::uint64_t len = rng.nextRange(1, 24);
    for (std::uint64_t i = 0; i < len; ++i) {
        if (rng.nextBool(0.15)) {
            path += '/';
            continue;
        }
        path += safe[rng.nextBelow(sizeof(safe) - 1)];
    }
    return path;
}

/**
 * Draw one valid GeneratorSpec across all three families: a Zipf or
 * hotspot victim, optionally wrapped into a blend by a nonzero
 * attack rate.  Every knob spans its full accepted range so the
 * canonical decimal formatter (trailing-zero stripping, whole-number
 * collapse) is exercised at its edges.
 */
GeneratorSpec
randomGenerator(Rng &rng)
{
    GeneratorSpec gen;
    if (rng.nextBool(0.5)) {
        gen.family = GeneratorFamily::Zipf;
        gen.rows =
            static_cast<std::uint32_t>(rng.nextRange(1, 65536));
        gen.skewMilli =
            static_cast<std::uint32_t>(rng.nextRange(0, 8000));
    } else {
        gen.family = GeneratorFamily::Hotspot;
        gen.rows =
            static_cast<std::uint32_t>(rng.nextRange(1, 65536));
        gen.hotFracMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 999));
        gen.hotProbMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 1000));
        if (rng.nextBool(0.5))
            gen.shiftCycles = rng.nextRange(1, 1'000'000'000);
    }
    if (rng.nextBool(0.5))
        gen.attackRateMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 999));
    return gen;
}

TEST(SpecProperty, SystemAxesFieldIsInjective)
{
    // The sweep shares one baseline per workload and field(), so two
    // different axes spelling one field would share a baseline.  Every
    // random axes keeps its spelling to itself, and so does each of
    // its neighbours: one knob changed, or two timing overrides
    // swapped (a suffix spelled under the wrong knob's name).
    using Tweak = void (*)(SystemAxes &);
    const Tweak tweaks[] = {
        [](SystemAxes &a) {
            a.pagePolicy = a.pagePolicy == PagePolicy::Open
                               ? PagePolicy::Closed
                               : PagePolicy::Open;
        },
        [](SystemAxes &a) {
            a.preset = a.preset == DramPreset::Ddr4 ? DramPreset::Ddr5
                                                    : DramPreset::Ddr4;
        },
        [](SystemAxes &a) { a.orgChannels = a.orgChannels == 2 ? 4 : 2; },
        [](SystemAxes &a) { a.orgRanks = a.orgRanks == 1 ? 2 : 1; },
        [](SystemAxes &a) { a.orgBanks = a.orgBanks == 16 ? 32 : 16; },
        [](SystemAxes &a) { ++a.tRcNs; },
        [](SystemAxes &a) { ++a.tRcdNs; },
        [](SystemAxes &a) { ++a.tRpNs; },
        [](SystemAxes &a) { ++a.tRefiNs; },
        [](SystemAxes &a) { ++a.tRfcNs; },
    };
    std::uint32_t SystemAxes::*const timings[] = {
        &SystemAxes::tRcNs, &SystemAxes::tRcdNs, &SystemAxes::tRpNs,
        &SystemAxes::tRefiNs, &SystemAxes::tRfcNs};
    Rng rng(0xA85e5);
    std::map<std::string, SystemAxes> seen;
    for (int i = 0; i < kIterations; ++i) {
        const SystemAxes axes = randomAxes(rng);
        const std::string spelling = axes.field();
        SCOPED_TRACE(spelling);
        EXPECT_EQ(seen.emplace(spelling, axes).first->second, axes);
        for (const Tweak tweak : tweaks) {
            SystemAxes neighbour = axes;
            tweak(neighbour);
            EXPECT_NE(neighbour.field(), spelling);
        }
        for (auto i = std::begin(timings); i != std::end(timings); ++i) {
            for (auto j = i + 1; j != std::end(timings); ++j) {
                SystemAxes swapped = axes;
                std::swap(swapped.**i, swapped.**j);
                if (swapped != axes) {
                    EXPECT_NE(swapped.field(), spelling);
                }
            }
        }
        // The spelling survives a CSV cell.
        EXPECT_EQ(spelling.find(','), std::string::npos);
        EXPECT_EQ(spelling.find('#'), std::string::npos);
        EXPECT_EQ(spelling.find(' '), std::string::npos);
    }
}

TEST(SpecProperty, WorkloadSpecParseIsTheExactInverseOfLabel)
{
    Rng rng(0x10ad5);
    const std::vector<WorkloadProfile> &profiles = allProfiles();
    for (int i = 0; i < kIterations; ++i) {
        WorkloadSpec spec;
        if (rng.nextBool(0.5)) {
            spec = WorkloadSpec::synthetic(
                profiles[rng.nextBelow(profiles.size())].name);
        } else {
            const std::size_t count = rng.nextBool(0.5) ? 1 : 8;
            std::vector<std::string> paths;
            for (std::size_t p = 0; p < count; ++p)
                paths.push_back(randomTracePath(rng));
            spec = WorkloadSpec::traceFiles(std::move(paths));
        }
        const std::string spelling = spec.label();
        SCOPED_TRACE(spelling);
        const WorkloadSpec back = WorkloadSpec::parse(spelling, 8);
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.label(), spelling);
        EXPECT_EQ(spelling.find(','), std::string::npos);
    }
}

TEST(SpecProperty, GeneratorSpecParseIsTheExactInverseOfLabel)
{
    Rng rng(0x21Bf);
    for (int i = 0; i < kIterations; ++i) {
        const GeneratorSpec gen = randomGenerator(rng);
        const std::string spelling = gen.label();
        SCOPED_TRACE(spelling);
        const GeneratorSpec back = GeneratorSpec::parse(spelling);
        EXPECT_EQ(back, gen);
        // label() is canonical: re-serializing changes nothing.
        EXPECT_EQ(back.label(), spelling);
        // The spelling survives a CSV cell and a manifest value.
        EXPECT_EQ(spelling.find(','), std::string::npos);
        EXPECT_EQ(spelling.find('#'), std::string::npos);
        EXPECT_EQ(spelling.find(' '), std::string::npos);
        // The same spelling routes through the WorkloadSpec grammar
        // (the `--workloads` list and the manifest `workloads=` key).
        const WorkloadSpec spec = WorkloadSpec::parse(spelling, 8);
        EXPECT_EQ(spec.kind, WorkloadKind::Generator);
        EXPECT_EQ(spec.generator, gen);
        EXPECT_EQ(spec.label(), spelling);
    }
}

TEST(SpecProperty, GeneratorDecimalKnobsKeepExactMilliResolution)
{
    // The fractional knobs are stored in exact milli units: any
    // spelling with at most three fractional digits roundtrips to
    // the canonical form with trailing zeros stripped, never through
    // a lossy double.
    const GeneratorSpec a = GeneratorSpec::parse("zipf:4096@s=0.990");
    EXPECT_EQ(a.skewMilli, 990u);
    EXPECT_EQ(a.label(), "zipf:4096@s=0.99");
    const GeneratorSpec b = GeneratorSpec::parse("zipf:4096@s=1.000");
    EXPECT_EQ(b.skewMilli, 1000u);
    EXPECT_EQ(b.label(), "zipf:4096@s=1");
    const GeneratorSpec c =
        GeneratorSpec::parse("hotspot:64@hot=0.100@p=1.0");
    EXPECT_EQ(c.hotFracMilli, 100u);
    EXPECT_EQ(c.hotProbMilli, 1000u);
    EXPECT_EQ(c.label(), "hotspot:64@hot=0.1@p=1");
}

TEST(SpecProperty, MixSpecsAreDeterministicPureFunctionsOfTheIndex)
{
    // The same index always draws the same per-core profile list
    // under the same label, and the label reads back as that spec
    // (CSV rows, manifests and `--workloads` spell MIX points so),
    // across the whole 32-bit index range and its two ends.
    Rng rng(0x3717);
    for (int i = 0; i < kIterations; ++i) {
        const std::uint32_t index =
            i == 0   ? 0u
            : i == 1 ? 0xFFFFFFFFu
                     : static_cast<std::uint32_t>(
                           rng.nextBelow(i % 2 ? 1000 : 1ull << 32));
        const std::uint32_t cores =
            static_cast<std::uint32_t>(rng.nextRange(1, 8));
        const WorkloadSpec a = WorkloadSpec::mix(index, cores);
        const WorkloadSpec b = WorkloadSpec::mix(index, cores);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a.label(), "mix" + std::to_string(index));
        EXPECT_EQ(a.mixProfiles.size(), cores);
        EXPECT_EQ(WorkloadSpec::parse(a.label(), cores), a);
    }
}

/** One malformed-spelling case: input + substrings the fatal must name. */
struct NegativeCase
{
    const char *input;
    std::vector<const char *> needles;
};

TEST(SpecProperty, MalformedWorkloadSpellingsNameInputAndGrammar)
{
    const NegativeCase cases[] = {
        {"trace:", {"trace:", "trace:<path>"}},
        {"trace:;;;", {"trace:;;;", "trace:<path>"}},
        {"trace:/a;/b;/c", {"trace:/a;/b;/c", "8"}},
        {"trace:/tmp/a b.usimm", {"a b.usimm", "trace:<path>"}},
        {"trace:/tmp/a#b.usimm", {"a#b.usimm", "trace:<path>"}},
        // mix<N>: N canonical decimal, no sign, no leading zero, at
        // most 2^32-1 — the only spellings WorkloadSpec::mix writes.
        {"mix", {"'mix'", "mix<N>"}},
        {"mix01", {"mix01", "mix<N>", "leading zero"}},
        {"mix-1", {"mix-1", "mix<N>", "no sign"}},
        {"mix+1", {"mix+1", "mix<N>"}},
        {"mix4294967296", {"mix4294967296", "0..4294967295"}},
        {"mixer", {"mixer", "mix<N>"}},
    };
    for (const NegativeCase &c : cases) {
        SCOPED_TRACE(c.input);
        try {
            WorkloadSpec::parse(c.input, 8);
            FAIL() << "'" << c.input << "' was not rejected";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            for (const char *needle : c.needles)
                EXPECT_NE(msg.find(needle), std::string::npos)
                    << "message lacks '" << needle << "': " << msg;
        }
    }
}

TEST(SpecProperty, MalformedGeneratorSpellingsNameInputAndGrammar)
{
    // Generator fatals quote the whole offending spelling verbatim
    // and append the full three-family grammar, so a typo'd
    // --workloads item or manifest entry is self-explanatory.
    const char *kGrammar = "zipf:<rows>@s=<skew>";
    const NegativeCase cases[] = {
        {"zipf:0", {"zipf:0", "zipf:<rows>@s=<skew>",
                    "blend:<zipf-or-hotspot-spec>+attack@<rate>"}},
        {"zipf:0@s=1", {"zipf:0@s=1", "row count", "1..65536"}},
        {"zipf:999999@s=1", {"zipf:999999@s=1", "row count"}},
        {"zipf:4096@s=-1", {"zipf:4096@s=-1", "skew", kGrammar}},
        {"zipf:4096@s=8.001", {"zipf:4096@s=8.001", "skew"}},
        {"zipf:4096@s=0.9999", {"zipf:4096@s=0.9999", "skew"}},
        {"zipf:4096@skew=1", {"zipf:4096@skew=1", "s=<value>"}},
        {"hotspot:4096@hot=0@p=0.5",
         {"hotspot:4096@hot=0@p=0.5", "hot fraction"}},
        {"hotspot:4096@hot=1.5@p=0.5",
         {"hotspot:4096@hot=1.5@p=0.5", "hot fraction"}},
        {"hotspot:4096@hot=0.1@p=0",
         {"hotspot:4096@hot=0.1@p=0", "hot probability"}},
        {"hotspot:4096@hot=0.1@p=0.5@shift=0",
         {"hotspot:4096@hot=0.1@p=0.5@shift=0", "shift period"}},
        {"hotspot:4096@hot=0.1",
         {"hotspot:4096@hot=0.1", "@shift=<cycles>"}},
        {"blend:zipf:64@s=1",
         {"blend:zipf:64@s=1", "+attack@", kGrammar}},
        {"blend:zipf:64@s=1+attack@0",
         {"blend:zipf:64@s=1+attack@0", "attack rate"}},
        {"blend:zipf:64@s=1+attack@1",
         {"blend:zipf:64@s=1+attack@1", "attack rate"}},
        {"blend:blend:zipf:64@s=1+attack@0.1",
         {"blend:blend:zipf:64@s=1+attack@0.1", "not another blend"}},
    };
    for (const NegativeCase &c : cases) {
        SCOPED_TRACE(c.input);
        try {
            // Through the WorkloadSpec entry point, the route the
            // --workloads list and the manifest take.
            WorkloadSpec::parse(c.input, 8);
            FAIL() << "'" << c.input << "' was not rejected";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            for (const char *needle : c.needles)
                EXPECT_NE(msg.find(needle), std::string::npos)
                    << "message lacks '" << needle << "': " << msg;
        }
    }
}

TEST(SpecProperty, RandomAxesSurviveTheSweepGridAndIdentityPrefix)
{
    // End-to-end identity property: a random axes value placed in a
    // sweep cell appears verbatim inside identityPrefix() — the
    // bytes resume validation and the shard merge compare.
    Rng rng(0x1dff);
    for (int i = 0; i < 50; ++i) {
        SweepCell cell;
        cell.workload = WorkloadSpec::synthetic("gups");
        cell.axes = randomAxes(rng);
        const std::string prefix =
            SweepRunner::identityPrefix(7, cell, 0x1234);
        EXPECT_NE(prefix.find("," + cell.axes.field() + ","),
                  std::string::npos)
            << prefix;
    }
}

} // namespace
} // namespace srs
