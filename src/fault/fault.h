/**
 * @file
 * Deterministic fault injection for end-to-end recovery experiments.
 *
 * The paper deploys SDF with no drive-internal redundancy (no parity
 * across channels, no over-provisioned spare area beyond a handful of
 * blocks), betting that the distributed software layer absorbs hardware
 * failure. This subsystem makes that bet testable: a FaultPlan is a
 * deterministic, replayable schedule of hardware faults (chip stalls and
 * deaths, latent page corruption, transient link CRC windows, elevated
 * raw bit-error rates) that a FaultInjector applies to the NAND channels
 * of one or more SdfDevices at simulated times.
 *
 * Plans come from two places: Random() synthesizes one from a seeded Rng
 * (same seed, same plan — campaigns are bit-reproducible), and
 * Parse()/ToText() round-trip a one-fault-per-line text format so
 * interesting scenarios can be saved and replayed from a file:
 *
 *   # <when_us> <kind> <device> <channel> [kind-specific fields]
 *   1000 stall 0 3 500          # at 1ms, stall dev0/ch3 for 500us
 *   2000 death 0 7              # at 2ms, kill dev0/ch7
 *   3000 corrupt 0 1 2 14 9     # corrupt dev0/ch1 plane2 block14 page9
 *   4000 crc 0 5 800 0.25       # 800us window of 25% read CRC errors
 *   5000 rber 0 2 0 3 50.0      # multiply ch2 plane0 block3 RBER by 50
 *   6000 failslow 2 0 2000 4.0  # node2 serves 4x slower for 2000us
 *
 * kFailSlow is a node-level fault, not a NAND one: the `device` field
 * names a storage node, and the injector delivers it through a sink
 * callback (typically wired to cluster::StorageNode::SetFailSlow). The
 * multiplier is restored to 1.0 when the window ends.
 */
#ifndef SDF_FAULT_FAULT_H
#define SDF_FAULT_FAULT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace sdf::fault {

using util::TimeNs;

/** The hardware failure modes the injector can produce. */
enum class FaultKind : uint8_t
{
    kChannelStall,    ///< Bus + planes busy for `duration` (firmware hiccup).
    kChannelDeath,    ///< Channel permanently dead (chip/engine failure).
    kPageCorruption,  ///< One page uncorrectable at every retry level.
    kLinkCrcWindow,   ///< Reads fail with `magnitude` prob for `duration`.
    kRberElevation,   ///< One block's RBER multiplied by `magnitude`.
    kFailSlow,        ///< Node `device` serves `magnitude`x slower for `duration`.
};

const char *FaultKindName(FaultKind k);

/** The largest kFailSlow multiplier: a node this much slower is as good as
 *  dead, and the cap keeps every scaled service time inside the clock. */
inline constexpr double kMaxFailSlowFactor = 1000;

/** Whether @p m is a usable kFailSlow multiplier, in [1,
 *  kMaxFailSlowFactor]. NaN fails. */
constexpr bool
ValidFailSlowFactor(double m)
{
    return m >= 1 && m <= kMaxFailSlowFactor;
}

/** One scheduled fault. Fields beyond (when, kind, device, channel) are
 *  kind-specific; unused ones stay zero. */
struct FaultEvent
{
    TimeNs when = 0;
    FaultKind kind = FaultKind::kChannelStall;
    uint32_t device = 0;
    uint32_t channel = 0;
    uint32_t plane = 0;     ///< kPageCorruption, kRberElevation.
    uint32_t block = 0;     ///< kPageCorruption, kRberElevation.
    uint32_t page = 0;      ///< kPageCorruption.
    TimeNs duration = 0;    ///< kChannelStall, kLinkCrcWindow.
    double magnitude = 0;   ///< kLinkCrcWindow prob / kRberElevation factor.
};

/** Knobs for FaultPlan::Random(). The kinds' relative weights are
 *  constants in fault.cc; Random() draws no kFailSlow events. */
struct FaultPlanSpec
{
    uint32_t fault_count = 100;
    TimeNs horizon = util::MsToNs(1000);  ///< Faults spread over [0, horizon).
    uint32_t devices = 1;
    uint32_t channels = 44;
    uint32_t planes = 4;
    uint32_t blocks_per_plane = 16;
    uint32_t pages_per_block = 256;
    /** At most this many channel deaths total (keep the system alive). */
    uint32_t max_deaths = 2;
    TimeNs stall_max = util::UsToNs(2000);
};

/** A deterministic, replayable schedule of faults, sorted by time. */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::vector<FaultEvent> events);

    /** Synthesize a plan from @p spec; equal seeds give equal plans. */
    static FaultPlan Random(const FaultPlanSpec &spec, uint64_t seed);

    /**
     * Parse the text format (see file header). Comment ('#') and blank
     * lines are skipped. Returns false on malformed input and leaves
     * @p error describing the first bad line.
     */
    static bool Parse(const std::string &text, FaultPlan *out,
                      std::string *error);

    /** Serialize to the text format Parse() accepts. */
    std::string ToText() const;

    const std::vector<FaultEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }
    size_t size() const { return events_.size(); }

  private:
    std::vector<FaultEvent> events_;
};

/** Counters of what the injector actually applied. */
struct FaultInjectorStats
{
    uint64_t stalls = 0;
    uint64_t deaths = 0;
    uint64_t corruptions = 0;
    uint64_t crc_windows = 0;
    uint64_t rber_elevations = 0;
    uint64_t fail_slows = 0;
    uint64_t skipped = 0;  ///< Out-of-range targets (clamped plans).

    uint64_t total() const
    {
        return stalls + deaths + corruptions + crc_windows + rber_elevations +
               fail_slows;
    }
};

/**
 * Applies a FaultPlan to live devices on the simulator clock. Construction
 * schedules every event; the faults then fire as the simulation runs.
 * Events targeting nonexistent devices/channels/blocks are counted as
 * skipped rather than crashing, so one plan can drive differently sized
 * configurations.
 */
class FaultInjector
{
  public:
    /** Delivers kFailSlow events: (node, multiplier); the injector calls it
     *  again with 1.0 when the window expires. */
    using FailSlowSink = std::function<void(uint32_t node, double multiplier)>;

    FaultInjector(sim::Simulator &sim, std::vector<core::SdfDevice *> devices,
                  const FaultPlan &plan, FailSlowSink fail_slow = nullptr);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultInjectorStats &stats() const { return stats_; }

  private:
    void Apply(const FaultEvent &e);

    sim::Simulator &sim_;
    std::vector<core::SdfDevice *> devices_;
    FailSlowSink fail_slow_;
    FaultInjectorStats stats_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
};

}  // namespace sdf::fault

#endif  // SDF_FAULT_FAULT_H
