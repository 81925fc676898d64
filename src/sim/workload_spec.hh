/**
 * @file
 * First-class experiment-identity types shared by the sweep engine,
 * the orchestrator, and the CLI:
 *
 *  - WorkloadSpec names *what* a sweep cell runs — a synthetic
 *    rate-mode profile, a per-core MIX profile list, recorded USIMM
 *    trace file(s), or a generator-backed spec (Zipf / hotspot /
 *    blend-with-attack, trace/generators.hh) — behind one canonical
 *    label that keys the cell's trace seed and baseline exactly as
 *    the plain workload name used to;
 *  - SystemAxes names *which machine variant* it runs on — the
 *    page-management policy, a DRAM-generation timing preset
 *    (ddr4/ddr5), the DRAM organization (`org=CxRxB`: channels x
 *    ranks-per-channel x banks-per-rank), and per-knob nanosecond
 *    timing overrides (tRC, tRCD, tRP, tREFI, tRFC) — as a
 *    sweepable axis applied uniformly to the protected run and its
 *    unprotected baseline;
 *  - SystemAxesGrid holds one list per SystemAxes knob, the grid of
 *    machine variants both sweeps cross their cells with.
 *
 * Both types have a canonical, comma-free text spelling that appears
 * verbatim in the sweep CSV identity columns (`workload_spec`,
 * `axes`), so resume validation and the shard merge can compare
 * identities byte for byte; the shard manifest spells the workloads
 * the same way and the axes as SystemAxesGrid's lists
 * (docs/sweep-format.md specs the formats, schema v8).
 */

#ifndef SRS_SIM_WORKLOAD_SPEC_HH
#define SRS_SIM_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dram/command.hh"
#include "dram/params.hh"
#include "trace/generators.hh"

namespace srs
{

class Options;
struct SystemConfig;

/** Which flavour of input drives a sweep cell's cores. */
enum class WorkloadKind
{
    /** One synthetic profile on every core (rate mode). */
    Synthetic,
    /** One synthetic profile per core (MIX workloads). */
    Mix,
    /** Recorded USIMM trace file(s), looped in rate mode. */
    TraceFile,
    /** Generator-backed spec (Zipf / hotspot / blend-with-attack). */
    Generator,
};

/**
 * Identity of one workload: what runs on the cores, plus the
 * canonical label that keys per-cell seeding and baseline sharing.
 *
 * The label is also the spec's text spelling (CSV `workload_spec`
 * column, manifest `workloads=` items, CLI `--workloads` items):
 *
 *  - Synthetic: the profile name (`gcc`);
 *  - Mix:       the MIX label (`mix0`); the per-core profile list is
 *               a pure function of the MIX index, so the label alone
 *               reproduces the spec;
 *  - TraceFile: `trace:<path>` (every core replays the file) or
 *               `trace:<p0>;<p1>;…` (one path per core);
 *  - Generator: the generator's canonical spelling
 *               (`zipf:4096@s=0.99`, `hotspot:…`, `blend:…+attack@…`
 *               — trace/generators.hh has the grammar).
 *
 * Two cells with the same label must carry the same spec; the sweep
 * runner rejects a label reused with different contents.
 */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::Synthetic;
    /** Profile name (Synthetic) or MIX label (Mix). */
    std::string name;
    /** Per-core profile names (Mix only). */
    std::vector<std::string> mixProfiles;
    /** Trace file path(s): one for all cores, or one per core. */
    std::vector<std::string> tracePaths;
    /** Generator identity (Generator only). */
    GeneratorSpec generator;

    bool operator==(const WorkloadSpec &) const = default;

    /**
     * Canonical label: keys the cell's trace seed and its shared
     * baseline, and is the spec's verbatim CSV/manifest spelling.
     */
    std::string label() const;

    /** Rate-mode spec for one named synthetic profile. */
    static WorkloadSpec synthetic(const std::string &profileName);

    /**
     * MIX point @p index: label "mix<index>" plus the deterministic
     * per-core profile draw of mixWorkload(index, cores).
     */
    static WorkloadSpec mix(std::uint32_t index, std::uint32_t cores);

    /**
     * Trace-file spec; @p paths holds one path (all cores) or one
     * per core.  fatal() on an empty list or a path that cannot be
     * spelled in a CSV/manifest (embedded comma, whitespace or '#').
     */
    static WorkloadSpec traceFiles(std::vector<std::string> paths);

    /** Generator-backed spec; the label is @p gen's canonical
     *  spelling (GeneratorSpec::label). */
    static WorkloadSpec generatorSpec(const GeneratorSpec &gen);

    /**
     * Parse one spelling (a `--workloads` item, a manifest
     * `workloads=` item, or a CSV `workload_spec` field), so that
     * `parse(x.label(), cores) == x` for every spec:
     * `trace:<path>[;<path>…]` yields a TraceFile spec (fatal()
     * unless the list has exactly one or @p cores entries);
     * `zipf:…`, `hotspot:…` and `blend:…` yield a Generator spec
     * (GeneratorSpec::parse, fatal() listing the generator grammar
     * on malformed input); `mix<N>` yields mix(N, @p cores), and any
     * other spelling starting with `mix` — N empty, signed, with a
     * leading zero or past 2^32-1 — is fatal() naming the grammar;
     * anything else is a Synthetic profile name, validated later
     * against the profile table by the sweep runner.
     */
    static WorkloadSpec parse(const std::string &spelling,
                              std::uint32_t cores);
};

/**
 * System-configuration overlay swept as its own axis: the page
 * policy, a DRAM-generation timing preset (DDR4 Table III defaults
 * or the DDR5-4800-class variant), the DRAM organization (channels,
 * ranks per channel, banks per rank), and per-knob nanosecond
 * timing overrides layered on top of the preset.  Applied by
 * makeSystemConfig() to protected and baseline runs alike, so
 * normalization always compares like with like.
 */
struct SystemAxes
{
    PagePolicy pagePolicy = PagePolicy::Closed;
    /** Timing preset the overrides below are layered onto. */
    DramPreset preset = DramPreset::Ddr4;
    /**
     * DRAM organization (the `@org=CxRxB` suffix): channels, ranks
     * per channel and banks per rank, each a power of two within
     * channels 1..8, ranks 1..4, banks-per-rank 4..64.  The
     * defaults mirror DramOrg{} (2x1x16, the Table III geometry),
     * and — like `@ddr4` — the default triple is canonicalized away
     * by field().  Rows-per-bank and row/line bytes are not swept.
     */
    std::uint32_t orgChannels = 2;
    std::uint32_t orgRanks = 1;
    std::uint32_t orgBanks = 16;
    /**
     * Per-knob timing overrides in nanoseconds; 0 keeps the preset's
     * value.  tRAS is re-derived as tRC - tRP so the bank state
     * machine stays self-consistent, and the effective combination
     * must satisfy tRC >= tRCD + tRP (validate()).
     */
    std::uint32_t tRcNs = 0;
    std::uint32_t tRcdNs = 0;
    std::uint32_t tRpNs = 0;
    std::uint32_t tRefiNs = 0;
    std::uint32_t tRfcNs = 0;

    bool operator==(const SystemAxes &) const = default;

    /**
     * Canonical text field (CSV `axes` column): the policy name,
     * then `@ddr5` when the preset is not DDR4, then `@org=CxRxB`
     * when the organization is not the default 2x1x16, then one
     * `@<knob>=<ns>` suffix per overridden knob in the fixed order
     * trc, trcd, trp, trefi, trfc — `closed`, `open`, `open@trc=48`,
     * `open@ddr5@org=2x2x32@trefi=3900`.  Distinct axes spell
     * distinct fields: the sweep shares one baseline per workload
     * and field().  Nothing reads a field back; the grid lists
     * (SystemAxesGrid) are the input spelling.
     */
    std::string field() const;

    /**
     * Effective timing values — the preset's defaults with this
     * axes' overrides applied — as raw nanosecond parameters.
     */
    DramTimingNs effectiveTimingNs() const;

    /**
     * fatal() when the organization triple is out of range, a timing
     * override exceeds its bound (10000 ns; tREFI 100000 ns), or the
     * effective timings are inconsistent (tRC < tRCD + tRP, which
     * would make the derived tRAS unable to cover the row-open
     * window, or tRFC >= tREFI, a machine that never finishes a
     * refresh); the message names field() and the offending values.
     * apply() and SystemAxesGrid::axes() both call it, so every
     * reader rejects an out-of-range override alike.
     */
    void validate() const;

    /** Overlay these axes onto a SystemConfig (validate()s first). */
    void apply(SystemConfig &cfg) const;
};

/**
 * The system-axes part of a grid: one list per SystemAxes knob,
 * crossed by axes().  SweepGrid and SecurityGrid derive from it, so
 * both sweeps enumerate the same machine variants in the same order.
 * One table names each list (`page-policy`, `preset`, `org`, `trc`
 * .. `trfc`: the `sweep` flag and the manifest key alike);
 * readLists() and spellLists() walk it.
 */
struct SystemAxesGrid
{
    /** Page-policy axis (outermost of the system axes). */
    std::vector<PagePolicy> pagePolicies = {PagePolicy::Closed};
    /** DRAM-generation preset axis (ddr4 = Table III defaults). */
    std::vector<DramPreset> presets = {DramPreset::Ddr4};
    /**
     * DRAM-organization axis: `CxRxB` spellings (channels x ranks x
     * banks-per-rank, dramOrgFromName bounds).  "2x1x16" is the
     * default Table III geometry and is canonicalized away in the
     * axes field, exactly like the ddr4 preset.
     */
    std::vector<std::string> orgs = {"2x1x16"};
    /** Timing-override axes in ns; 0 = the preset's default. */
    std::vector<std::uint32_t> tRcOverrides = {0};
    std::vector<std::uint32_t> tRcdOverrides = {0};
    std::vector<std::uint32_t> tRpOverrides = {0};
    std::vector<std::uint32_t> tRefiOverrides = {0};
    std::vector<std::uint32_t> tRfcOverrides = {0};

    /**
     * pagePolicies x presets x orgs x the five timing-override lists,
     * crossed in declaration order (policy outermost, tRFC
     * innermost).  Every combination is validated
     * (SystemAxes::validate), so an inconsistent grid is fatal()
     * before any simulation starts.
     */
    std::vector<SystemAxes> axes() const;

    /** The number of axes(), without building or validating them. */
    std::size_t axesCount() const;

    /**
     * Replace each list given in @p opts with its comma-separated
     * items; a list not given is left as it is.  fatal() on a
     * malformed item (integer lists name the list as @p opts names
     * it, Options::name()) or an empty list (naming it the same way).
     */
    void readLists(const Options &opts);

    /**
     * Each list's name and comma-joined spelling, in axis order: what
     * readLists() reads back.
     */
    std::vector<std::pair<std::string, std::string>> spellLists() const;
};

/**
 * Split a comma-separated list ("a,b,c") into its non-empty items;
 * an empty string yields no items.  The list syntax shared by the
 * CLI flags and the shard manifest.
 */
std::vector<std::string> splitList(const std::string &value);

/**
 * Parse a comma-separated list of 32-bit unsigned integers;
 * fatal() on malformed, negative, or out-of-range items, naming
 * @p what (Options::name() of the list's key) in the message.
 */
std::vector<std::uint32_t> splitUint32List(const std::string &value,
                                           const std::string &what);

/** Join items with commas (inverse of splitList). */
std::string joinList(const std::vector<std::string> &items);

/** Join integers with commas (inverse of splitUint32List). */
std::string joinUint32List(const std::vector<std::uint32_t> &items);

/** @return printable page-policy name ("closed" / "open"). */
const char *pagePolicyName(PagePolicy policy);

/** Parse a page-policy name; fatal() listing accepted spellings. */
PagePolicy pagePolicyFromName(const std::string &name);

/** @return printable DRAM-preset name ("ddr4" / "ddr5"). */
const char *dramPresetName(DramPreset preset);

/** Parse a DRAM-preset name; fatal() listing accepted spellings. */
DramPreset dramPresetFromName(const std::string &name);

/**
 * Parse a `CxRxB` DRAM-organization spelling (an `org` list item)
 * into @p axes' org fields; fatal() listing
 * the accepted shape and bounds on malformed or out-of-range input.
 */
void dramOrgFromName(const std::string &name, SystemAxes &axes);

} // namespace srs

#endif // SRS_SIM_WORKLOAD_SPEC_HH
