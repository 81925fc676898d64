/**
 * @file
 * Full-system wiring: cores + pin-buffer + memory controller +
 * tracker + mitigation, with refresh-epoch management.
 *
 * Traces are post-LLC miss streams fed straight to the memory
 * controller, the paper's USIMM methodology.  The only cache state
 * is the Scale-SRS pin-buffer: an access to a pinned row is an LLC
 * hit and never reaches DRAM.
 */

#ifndef SRS_SIM_SYSTEM_HH
#define SRS_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/pin_buffer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "memctrl/controller.hh"
#include "mitigation/mitigation.hh"
#include "mitigation/aqua.hh"
#include "mitigation/blockhammer.hh"
#include "mitigation/rrs.hh"
#include "mitigation/scale_srs.hh"
#include "mitigation/srs.hh"
#include "tracker/hydra.hh"
#include "tracker/misra_gries.hh"

namespace srs
{

/** Which defense protects the system. */
enum class MitigationKind
{
    None,
    Rrs,
    RrsNoUnswap,
    Srs,
    ScaleSrs,
    BlockHammer,
    Aqua,
};

/** Which aggressor tracker feeds the defense. */
enum class TrackerKind
{
    MisraGries,
    Hydra,
};

/** @return printable mitigation name. */
const char *mitigationKindName(MitigationKind kind);

/** Top-level configuration (defaults reproduce paper Table III). */
struct SystemConfig
{
    DramOrg org;
    DramTimingNs timingNs;
    MemCtrlConfig memCtrl;
    CoreConfig core;
    std::uint32_t numCores = 8;

    MitigationKind mitigation = MitigationKind::None;
    TrackerKind tracker = TrackerKind::MisraGries;
    MitigationConfig mit;
    SrsConfig srsCfg;
    ScaleSrsConfig scaleCfg;

    /** Refresh-interval length in CPU cycles; 0 derives 64 ms. */
    Cycle epochLen = 0;

    /**
     * Run the tick-per-cycle reference loop instead of the
     * event-driven skip-ahead loop.  It selects the oracle of the
     * loop-equivalence tests (tests/test_event_loop.cc); no
     * production caller sets it, so every CLI command, sweep, bench
     * and example runs the event-driven loop.
     */
    bool referenceLoop = false;

    std::uint64_t seed = 0xD00DULL;

    /** Effective epoch length in cycles. */
    Cycle effectiveEpochLen() const;

    /**
     * ACT_max for one bank in one epoch (tRC-limited).  fatal() when
     * the epoch, less its refresh share, is shorter than one tRC:
     * a tracker sized from it would hold no entries.
     */
    std::uint64_t actMaxPerEpoch() const;
};

/** The simulated machine. */
class System : public CoreMemoryInterface
{
  public:
    explicit System(const SystemConfig &cfg);

    /** Attach a trace to core @p core (must cover all cores). */
    void setTrace(CoreId core, std::unique_ptr<TraceSource> trace);

    /** Advance the machine by @p cycles CPU cycles. */
    void run(Cycle cycles);

    /** CoreMemoryInterface */
    Outcome access(Addr addr, bool isWrite, CoreId core,
                   std::uint64_t token, Cycle now,
                   Cycle &latencyOut) override;

    Cycle now() const { return now_; }
    std::uint64_t epochsCompleted() const { return epochs_; }

    /** Retired instructions per cycle, summed over cores. */
    double aggregateIpc() const;
    double coreIpc(CoreId core) const;

    MemoryController &controller() { return *ctrl_; }
    const MemoryController &controller() const { return *ctrl_; }
    Mitigation &mitigation() { return *mitigation_; }
    AggressorTracker &tracker() { return *tracker_; }
    const SystemConfig &config() const { return cfg_; }

    /**
     * Highest per-row activation count observed in any bank in any
     * completed epoch (the Row Hammer ground truth; compare against
     * T_RH to decide whether the defense held).
     */
    std::uint64_t maxEpochActivations() const;

    const StatSet &stats() const { return stats_; }

  private:
    /**
     * The access a full queue refused a core at its last tick.  Every
     * tick of a refused core retries that access first, so the
     * record stays current until the retry passes.
     */
    struct Refusal
    {
        bool active = false;
        std::uint32_t channel = 0;
        bool isWrite = false;
        Addr line = 0;
    };

    void onEpochBoundary();
    void onReadDone(const MemRequest &req);
    void runReference(Cycle end);
    void runEventDriven(Cycle end);
    /** wake every refused core at @p at */
    void wakeRefused(Cycle at);
    /** wake the refused cores whose queue the last tick freed a slot in */
    void wakeOnFreedSlots();

    SystemConfig cfg_;
    Cycle epochLen_;
    DramTiming timing_;

    std::unique_ptr<MemoryController> ctrl_;
    PinBuffer pins_;
    std::unique_ptr<AggressorTracker> tracker_;
    std::unique_ptr<Mitigation> mitigation_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;

    /** outstanding read id -> (core, token) */
    std::unordered_map<std::uint64_t,
                       std::pair<CoreId, std::uint64_t>> outstanding_;
    /** per core */
    std::vector<Refusal> refused_;

    Cycle now_ = 0;
    Cycle nextEpochAt_;
    std::uint64_t epochs_ = 0;
    std::uint64_t maxEpochActs_ = 0;
    StatSet stats_;
    StatSet::Handle pinnedAbsorbed_, pinnedRowsRestored_,
        pinnedRestoresDropped_;
};

} // namespace srs

#endif // SRS_SIM_SYSTEM_HH
