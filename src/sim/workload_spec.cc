#include "sim/workload_spec.hh"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

#include "common/logging.hh"
#include "common/options.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

namespace srs
{

namespace
{

constexpr const char *kTracePrefix = "trace:";
constexpr const char *kMixPrefix = "mix";

/** Split @p value on @p sep into its non-empty items. */
std::vector<std::string>
splitOn(const std::string &value, char sep)
{
    std::vector<std::string> items;
    std::string::size_type start = 0;
    while (start <= value.size()) {
        const auto at = value.find(sep, start);
        const auto end = at == std::string::npos ? value.size() : at;
        if (end > start)
            items.push_back(value.substr(start, end - start));
        if (at == std::string::npos)
            break;
        start = at + 1;
    }
    return items;
}

/**
 * A trace path appears verbatim inside one CSV field and one
 * manifest value, so it must not contain the characters those
 * formats give meaning to — nor ';', the per-core path separator,
 * or the label would re-parse as a different spec.
 */
void
validateTracePath(const std::string &path)
{
    for (const char c : path) {
        if (c == ',' || c == ';' || c == '#'
            || std::isspace(static_cast<unsigned char>(c))) {
            fatal("trace path '", path, "' contains '", std::string(1, c),
                  "', which cannot be spelled in a sweep CSV or shard "
                  "manifest (no commas, semicolons, whitespace or "
                  "'#'; want trace:<path> or trace:<p0>;<p1>;...)");
        }
    }
}

} // namespace

std::string
WorkloadSpec::label() const
{
    if (kind != WorkloadKind::TraceFile)
        return name;
    std::string joined = kTracePrefix;
    for (std::size_t i = 0; i < tracePaths.size(); ++i) {
        if (i > 0)
            joined += ';';
        joined += tracePaths[i];
    }
    return joined;
}

WorkloadSpec
WorkloadSpec::synthetic(const std::string &profileName)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Synthetic;
    spec.name = profileName;
    return spec;
}

WorkloadSpec
WorkloadSpec::mix(std::uint32_t index, std::uint32_t cores)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Mix;
    spec.name = kMixPrefix + std::to_string(index);
    for (const WorkloadProfile &p : mixWorkload(index, cores))
        spec.mixProfiles.push_back(p.name);
    return spec;
}

WorkloadSpec
WorkloadSpec::traceFiles(std::vector<std::string> paths)
{
    if (paths.empty()) {
        fatal("trace workload spec needs at least one path (want "
              "trace:<path> or trace:<p0>;<p1>;... with one path per "
              "core)");
    }
    for (const std::string &path : paths)
        validateTracePath(path);
    WorkloadSpec spec;
    spec.kind = WorkloadKind::TraceFile;
    spec.tracePaths = std::move(paths);
    spec.name = spec.label();
    return spec;
}

WorkloadSpec
WorkloadSpec::generatorSpec(const GeneratorSpec &gen)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Generator;
    spec.generator = gen;
    spec.name = gen.label();
    return spec;
}

WorkloadSpec
WorkloadSpec::parse(const std::string &spelling, std::uint32_t cores)
{
    if (GeneratorSpec::matchesPrefix(spelling))
        return generatorSpec(GeneratorSpec::parse(spelling));
    if (spelling.rfind(kMixPrefix, 0) == 0) {
        // mix() spells the index with std::to_string, so only that
        // spelling reads back: no sign, no leading zero.
        const std::string digits =
            spelling.substr(std::string(kMixPrefix).size());
        const std::optional<std::uint64_t> index = parseUnsigned(
            digits, std::numeric_limits<std::uint32_t>::max());
        if (!index || digits != std::to_string(*index)) {
            fatal("workload spec '", spelling, "' is not a MIX point "
                  "(want mix<N>, N a decimal index in 0..4294967295 "
                  "with no sign or leading zero)");
        }
        return mix(static_cast<std::uint32_t>(*index), cores);
    }
    if (spelling.rfind(kTracePrefix, 0) != 0)
        return synthetic(spelling);
    std::vector<std::string> paths =
        splitOn(spelling.substr(std::string(kTracePrefix).size()), ';');
    if (paths.empty()) {
        fatal("workload spec '", spelling, "': trace spec needs at "
              "least one path (want trace:<path> or "
              "trace:<p0>;<p1>;... with one path per core)");
    }
    if (paths.size() != 1 && paths.size() != cores) {
        fatal("workload spec '", spelling, "': ", paths.size(),
              " trace paths, but a per-core list needs exactly ",
              cores, " (or a single path shared by every core)");
    }
    return traceFiles(std::move(paths));
}

namespace
{

/**
 * The timing-knob suffixes of an axes spelling, in canonical order:
 * field() emits overridden knobs in this sequence.
 */
struct AxesKnob
{
    const char *key;
    std::uint32_t SystemAxes::*member;
    /** Largest accepted override in ns (row timings stay far below
     *  refresh-interval scale, so the sanity bound is per knob). */
    std::uint32_t maxNs;
};

constexpr AxesKnob kAxesKnobs[] = {
    {"trc", &SystemAxes::tRcNs, 10'000},
    {"trcd", &SystemAxes::tRcdNs, 10'000},
    {"trp", &SystemAxes::tRpNs, 10'000},
    // DDR4's default tREFI is already 7800 ns; relaxed-refresh
    // sensitivity points (2x, 4x tREFI) must stay spellable.
    {"trefi", &SystemAxes::tRefiNs, 100'000},
    {"trfc", &SystemAxes::tRfcNs, 10'000},
};

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** One strictly-decimal component of a CxRxB triple. */
bool
parseOrgPart(const std::string &part, std::uint32_t &out)
{
    if (part.empty()
        || !std::isdigit(static_cast<unsigned char>(part[0])))
        return false;
    char *endp = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &endp, 10);
    if (endp != part.c_str() + part.size() || v > 0xFFFFFFFFull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Shape check only: exactly three 'x'-separated decimal fields. */
bool
parseOrgValue(const std::string &value, std::uint32_t &channels,
              std::uint32_t &ranks, std::uint32_t &banks)
{
    const auto x1 = value.find('x');
    if (x1 == std::string::npos)
        return false;
    const auto x2 = value.find('x', x1 + 1);
    if (x2 == std::string::npos
        || value.find('x', x2 + 1) != std::string::npos)
        return false;
    return parseOrgPart(value.substr(0, x1), channels)
        && parseOrgPart(value.substr(x1 + 1, x2 - x1 - 1), ranks)
        && parseOrgPart(value.substr(x2 + 1), banks);
}

bool
orgInBounds(std::uint32_t channels, std::uint32_t ranks,
            std::uint32_t banks)
{
    return isPow2(channels) && channels <= 8
        && isPow2(ranks) && ranks <= 4
        && isPow2(banks) && banks >= 4 && banks <= 64;
}

} // namespace

std::string
SystemAxes::field() const
{
    std::string text = pagePolicyName(pagePolicy);
    if (preset != DramPreset::Ddr4) {
        text += '@';
        text += dramPresetName(preset);
    }
    const DramOrg defaultOrg{};
    if (orgChannels != defaultOrg.channels
        || orgRanks != defaultOrg.ranksPerChannel
        || orgBanks != defaultOrg.banksPerRank) {
        text += "@org=" + std::to_string(orgChannels) + "x"
                + std::to_string(orgRanks) + "x"
                + std::to_string(orgBanks);
    }
    for (const AxesKnob &knob : kAxesKnobs) {
        const std::uint32_t ns = this->*knob.member;
        if (ns != 0)
            text += "@" + std::string(knob.key) + "="
                    + std::to_string(ns);
    }
    return text;
}

DramTimingNs
SystemAxes::effectiveTimingNs() const
{
    DramTimingNs ns = DramTimingNs::preset(preset);
    if (tRcNs != 0)
        ns.tRC = static_cast<double>(tRcNs);
    if (tRcdNs != 0)
        ns.tRCD = static_cast<double>(tRcdNs);
    if (tRpNs != 0)
        ns.tRP = static_cast<double>(tRpNs);
    if (tRefiNs != 0)
        ns.tREFI = static_cast<double>(tRefiNs);
    if (tRfcNs != 0)
        ns.tRFC = static_cast<double>(tRfcNs);
    // tRAS is never overridden directly; it is re-derived so the
    // bank state machine stays self-consistent.
    ns.tRAS = ns.tRC - ns.tRP;
    return ns;
}

void
SystemAxes::validate() const
{
    if (!orgInBounds(orgChannels, orgRanks, orgBanks)) {
        fatal("system axes '", field(), "': DRAM organization ",
              orgChannels, "x", orgRanks, "x", orgBanks,
              " out of range — channels, ranks and banks-per-rank "
              "must be powers of two within 1..8 / 1..4 / 4..64");
    }
    for (const AxesKnob &knob : kAxesKnobs) {
        const std::uint32_t ns = this->*knob.member;
        if (ns > knob.maxNs) {
            fatal("system axes '", field(), "': ", knob.key,
                  " override of ", ns, " ns is out of range (want "
                  "1..", knob.maxNs, " ns, or 0 for the preset's "
                  "value)");
        }
    }
    const DramTimingNs ns = effectiveTimingNs();
    if (ns.tRC < ns.tRCD + ns.tRP) {
        fatal("system axes '", field(), "': inconsistent timings — "
              "tRC (", ns.tRC, "ns) is smaller than tRCD + tRP (",
              ns.tRCD, "ns + ", ns.tRP, "ns); a row cycle must cover "
              "opening and closing the row");
    }
    if (ns.tRFC >= ns.tREFI) {
        fatal("system axes '", field(), "': inconsistent timings — "
              "tRFC (", ns.tRFC, "ns) is not smaller than tREFI (",
              ns.tREFI, "ns); a refresh must end before the next one "
              "is due");
    }
}

void
SystemAxes::apply(SystemConfig &cfg) const
{
    validate();
    cfg.memCtrl.pagePolicy = pagePolicy;
    cfg.org.channels = orgChannels;
    cfg.org.ranksPerChannel = orgRanks;
    cfg.org.banksPerRank = orgBanks;
    const double cpuFreqGHz = cfg.timingNs.cpuFreqGHz;
    cfg.timingNs = effectiveTimingNs();
    cfg.timingNs.cpuFreqGHz = cpuFreqGHz;
}

const char *
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
      case PagePolicy::Closed: return "closed";
      case PagePolicy::Open:   return "open";
    }
    return "?";
}

PagePolicy
pagePolicyFromName(const std::string &name)
{
    if (name == "closed")
        return PagePolicy::Closed;
    if (name == "open")
        return PagePolicy::Open;
    fatal("unknown page policy '", name, "' (want closed|open)");
}

const char *
dramPresetName(DramPreset preset)
{
    switch (preset) {
      case DramPreset::Ddr4: return "ddr4";
      case DramPreset::Ddr5: return "ddr5";
    }
    return "?";
}

DramPreset
dramPresetFromName(const std::string &name)
{
    if (name == "ddr4")
        return DramPreset::Ddr4;
    if (name == "ddr5")
        return DramPreset::Ddr5;
    fatal("unknown DRAM preset '", name, "' (want ddr4|ddr5)");
}

void
dramOrgFromName(const std::string &name, SystemAxes &axes)
{
    std::uint32_t channels = 0, ranks = 0, banks = 0;
    if (!parseOrgValue(name, channels, ranks, banks)
        || !orgInBounds(channels, ranks, banks)) {
        fatal("unknown DRAM org '", name, "' (want CxRxB — "
              "power-of-two channels x ranks x banks-per-rank, "
              "channels 1..8, ranks 1..4, banks 4..64)");
    }
    axes.orgChannels = channels;
    axes.orgRanks = ranks;
    axes.orgBanks = banks;
}

std::vector<std::string>
splitList(const std::string &value)
{
    return splitOn(value, ',');
}

namespace
{

// One item of a list by its type: read from its spelling (and
// checked; @p what names the list in messages), or spelled.

std::uint32_t
readItem(const std::string &item, const std::string &what, std::uint32_t)
{
    const std::optional<std::uint64_t> v =
        parseUnsigned(item, std::numeric_limits<std::uint32_t>::max());
    if (!v)
        fatal(what, ": '", item, "' is not a 32-bit unsigned integer");
    return static_cast<std::uint32_t>(*v);
}

std::string
readItem(const std::string &org, const std::string &, const std::string &)
{
    SystemAxes probe;
    dramOrgFromName(org, probe);
    return org;
}

PagePolicy
readItem(const std::string &name, const std::string &, PagePolicy)
{
    return pagePolicyFromName(name);
}

DramPreset
readItem(const std::string &name, const std::string &, DramPreset)
{
    return dramPresetFromName(name);
}

std::string spellItem(std::uint32_t ns) { return std::to_string(ns); }
std::string spellItem(const std::string &org) { return org; }
std::string spellItem(PagePolicy policy) { return pagePolicyName(policy); }
std::string spellItem(DramPreset preset) { return dramPresetName(preset); }

} // namespace

std::vector<std::uint32_t>
splitUint32List(const std::string &value, const std::string &what)
{
    std::vector<std::uint32_t> items;
    for (const std::string &item : splitList(value))
        items.push_back(readItem(item, what, std::uint32_t{}));
    return items;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string joined;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            joined += ',';
        joined += items[i];
    }
    return joined;
}

std::string
joinUint32List(const std::vector<std::uint32_t> &items)
{
    std::vector<std::string> strings;
    for (const std::uint32_t v : items)
        strings.push_back(std::to_string(v));
    return joinList(strings);
}

namespace
{

/** One list of a SystemAxesGrid: its name and its codec. */
struct AxisList
{
    /** The `sweep` flag and the manifest key. */
    const char *name;
    /** Replace the list with @p text's items; @p what names it. */
    void (*read)(SystemAxesGrid &grid, const std::string &text,
                 const std::string &what);
    /** The list's items, comma-joined. */
    std::string (*spell)(const SystemAxesGrid &grid);
};

template <auto List>
void
readList(SystemAxesGrid &grid, const std::string &text,
         const std::string &what)
{
    auto &list = grid.*List;
    using Item = typename std::decay_t<decltype(list)>::value_type;
    list.clear();
    for (const std::string &item : splitList(text))
        list.push_back(readItem(item, what, Item{}));
    if (list.empty())
        fatal(what, ": empty list; a system axis needs at least one value");
}

template <auto List>
std::string
spellList(const SystemAxesGrid &grid)
{
    std::vector<std::string> items;
    for (const auto &item : grid.*List)
        items.push_back(spellItem(item));
    return joinList(items);
}

template <auto List>
constexpr AxisList
axisList(const char *name)
{
    return {name, readList<List>, spellList<List>};
}

/** Every list in axis order, named as docs/sweep-format.md has it. */
constexpr AxisList kAxisLists[] = {
    axisList<&SystemAxesGrid::pagePolicies>("page-policy"),
    axisList<&SystemAxesGrid::presets>("preset"),
    axisList<&SystemAxesGrid::orgs>("org"),
    axisList<&SystemAxesGrid::tRcOverrides>("trc"),
    axisList<&SystemAxesGrid::tRcdOverrides>("trcd"),
    axisList<&SystemAxesGrid::tRpOverrides>("trp"),
    axisList<&SystemAxesGrid::tRefiOverrides>("trefi"),
    axisList<&SystemAxesGrid::tRfcOverrides>("trfc"),
};

} // namespace

std::vector<SystemAxes>
SystemAxesGrid::axes() const
{
    std::vector<SystemAxes> out;
    out.reserve(axesCount());
    for (const PagePolicy policy : pagePolicies) {
        for (const DramPreset preset : presets) {
            for (const std::string &org : orgs) {
                for (const std::uint32_t trc : tRcOverrides) {
                    for (const std::uint32_t trcd : tRcdOverrides) {
                        for (const std::uint32_t trp : tRpOverrides) {
                            for (const std::uint32_t trefi : tRefiOverrides) {
                                for (const std::uint32_t trfc : tRfcOverrides) {
                                    SystemAxes a;
                                    a.pagePolicy = policy;
                                    a.preset = preset;
                                    dramOrgFromName(org, a);
                                    a.tRcNs = trc;
                                    a.tRcdNs = trcd;
                                    a.tRpNs = trp;
                                    a.tRefiNs = trefi;
                                    a.tRfcNs = trfc;
                                    a.validate();
                                    out.push_back(a);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

std::size_t
SystemAxesGrid::axesCount() const
{
    return pagePolicies.size() * presets.size() * orgs.size()
           * tRcOverrides.size() * tRcdOverrides.size()
           * tRpOverrides.size() * tRefiOverrides.size()
           * tRfcOverrides.size();
}

void
SystemAxesGrid::readLists(const Options &opts)
{
    for (const AxisList &list : kAxisLists) {
        if (opts.has(list.name)) {
            list.read(*this, opts.getString(list.name, ""),
                      opts.name(list.name));
        }
    }
}

std::vector<std::pair<std::string, std::string>>
SystemAxesGrid::spellLists() const
{
    std::vector<std::pair<std::string, std::string>> lists;
    for (const AxisList &list : kAxisLists)
        lists.emplace_back(list.name, list.spell(*this));
    return lists;
}

} // namespace srs
