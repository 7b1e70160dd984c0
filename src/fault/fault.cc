#include "fault/fault.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/hub.h"

namespace sdf::fault {

const char *
FaultKindName(FaultKind k)
{
    switch (k) {
        case FaultKind::kChannelStall: return "stall";
        case FaultKind::kChannelDeath: return "death";
        case FaultKind::kPageCorruption: return "corrupt";
        case FaultKind::kLinkCrcWindow: return "crc";
        case FaultKind::kRberElevation: return "rber";
        case FaultKind::kFailSlow: return "failslow";
    }
    return "?";
}

namespace {

/** Relative weights per kind Random() draws. */
constexpr double kWeightStall = 3.0;
constexpr double kWeightDeath = 0.5;
constexpr double kWeightCorrupt = 4.0;
constexpr double kWeightCrc = 2.0;
constexpr double kWeightRber = 4.0;
constexpr TimeNs kCrcWindowMax = util::UsToNs(5000);
constexpr double kCrcProbMax = 0.5;
constexpr double kRberFactorMax = 100.0;

bool
KindFromName(const std::string &name, FaultKind *out)
{
    for (FaultKind k :
         {FaultKind::kChannelStall, FaultKind::kChannelDeath,
          FaultKind::kPageCorruption, FaultKind::kLinkCrcWindow,
          FaultKind::kRberElevation, FaultKind::kFailSlow}) {
        if (name == FaultKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

void
SortByTime(std::vector<FaultEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.when < b.when;
                     });
}

}  // namespace

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events))
{
    SortByTime(events_);
}

FaultPlan
FaultPlan::Random(const FaultPlanSpec &spec, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<FaultEvent> events;
    events.reserve(spec.fault_count);

    const double weights[] = {kWeightStall, kWeightDeath, kWeightCorrupt,
                              kWeightCrc, kWeightRber};
    double total_weight = 0;
    for (double w : weights) total_weight += w;

    uint32_t deaths = 0;
    for (uint32_t i = 0; i < spec.fault_count; ++i) {
        FaultEvent e;
        e.when = static_cast<TimeNs>(
            rng.NextBelow(static_cast<uint64_t>(spec.horizon)));
        e.device = static_cast<uint32_t>(rng.NextBelow(spec.devices));
        e.channel = static_cast<uint32_t>(rng.NextBelow(spec.channels));

        double pick = rng.NextDouble() * total_weight;
        int kind = 0;
        while (kind < 4 && pick >= weights[kind]) pick -= weights[kind++];
        if (kind == 1 && deaths >= spec.max_deaths) kind = 0;  // Demote.

        switch (kind) {
            case 0:
                e.kind = FaultKind::kChannelStall;
                e.duration = 1 + static_cast<TimeNs>(rng.NextBelow(
                                     static_cast<uint64_t>(spec.stall_max)));
                break;
            case 1:
                e.kind = FaultKind::kChannelDeath;
                ++deaths;
                break;
            case 2:
                e.kind = FaultKind::kPageCorruption;
                e.plane = static_cast<uint32_t>(rng.NextBelow(spec.planes));
                e.block = static_cast<uint32_t>(
                    rng.NextBelow(spec.blocks_per_plane));
                e.page = static_cast<uint32_t>(
                    rng.NextBelow(spec.pages_per_block));
                break;
            case 3:
                e.kind = FaultKind::kLinkCrcWindow;
                e.duration =
                    1 + static_cast<TimeNs>(rng.NextBelow(
                            static_cast<uint64_t>(kCrcWindowMax)));
                e.magnitude = rng.NextDouble() * kCrcProbMax;
                break;
            case 4:
                e.kind = FaultKind::kRberElevation;
                e.plane = static_cast<uint32_t>(rng.NextBelow(spec.planes));
                e.block = static_cast<uint32_t>(
                    rng.NextBelow(spec.blocks_per_plane));
                // Factor in [2, kRberFactorMax]: always a real elevation.
                e.magnitude =
                    2.0 + rng.NextDouble() * (kRberFactorMax - 2.0);
                break;
        }
        events.push_back(e);
    }
    return FaultPlan(std::move(events));
}

bool
FaultPlan::Parse(const std::string &text, FaultPlan *out, std::string *error)
{
    std::vector<FaultEvent> events;
    std::istringstream stream(text);
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string &why) {
        if (error) {
            *error = "line " + std::to_string(lineno) + ": " + why;
        }
        return false;
    };
    while (std::getline(stream, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        std::istringstream fields(line);
        double when_us;
        std::string kind_name;
        if (!(fields >> when_us)) {
            // Blank and comment-only lines are fine; anything else that
            // fails to start with a time is a malformed plan.
            if (line.find_first_not_of(" \t\r") != std::string::npos) {
                return fail("expected a time in microseconds");
            }
            continue;
        }
        if (!(fields >> kind_name)) return fail("missing fault kind");
        FaultEvent e;
        if (!util::FitsClock(when_us * util::kNsPerUs)) {
            return fail("time must be non-negative and fit the clock");
        }
        e.when = util::UsToNs(when_us);
        if (!KindFromName(kind_name, &e.kind))
            return fail("unknown fault kind '" + kind_name + "'");
        if (!(fields >> e.device >> e.channel))
            return fail("missing device/channel");
        // A duration must be positive and end inside the clock.
        auto ends_in_clock = [&](double dur_us) {
            return dur_us > 0 &&
                   util::FitsClock((when_us + dur_us) * util::kNsPerUs);
        };
        double dur_us;
        switch (e.kind) {
            case FaultKind::kChannelStall:
                if (!(fields >> dur_us) || !ends_in_clock(dur_us)) {
                    return fail("stall needs a positive duration (us) "
                                "ending inside the clock");
                }
                e.duration = util::UsToNs(dur_us);
                break;
            case FaultKind::kChannelDeath:
                break;
            case FaultKind::kPageCorruption:
                if (!(fields >> e.plane >> e.block >> e.page))
                    return fail("corrupt needs plane block page");
                break;
            case FaultKind::kLinkCrcWindow:
                if (!(fields >> dur_us >> e.magnitude) ||
                    !ends_in_clock(dur_us) || e.magnitude < 0 ||
                    e.magnitude > 1) {
                    return fail("crc needs duration (us) and prob in [0,1]");
                }
                e.duration = util::UsToNs(dur_us);
                break;
            case FaultKind::kRberElevation:
                if (!(fields >> e.plane >> e.block >> e.magnitude) ||
                    e.magnitude <= 0) {
                    return fail("rber needs plane block factor");
                }
                break;
            case FaultKind::kFailSlow:
                if (!(fields >> dur_us >> e.magnitude) ||
                    !ends_in_clock(dur_us) ||
                    !ValidFailSlowFactor(e.magnitude)) {
                    return fail("failslow needs duration (us) and a factor "
                                "in [1, 1000]");
                }
                e.duration = util::UsToNs(dur_us);
                break;
        }
        events.push_back(e);
    }
    *out = FaultPlan(std::move(events));
    return true;
}

std::string
FaultPlan::ToText() const
{
    std::string text = "# <when_us> <kind> <device> <channel> [fields]\n";
    char buf[160];
    for (const FaultEvent &e : events_) {
        const double us = util::NsToUs(e.when);
        switch (e.kind) {
            case FaultKind::kChannelStall:
                std::snprintf(buf, sizeof buf, "%.3f stall %u %u %.3f\n", us,
                              e.device, e.channel, util::NsToUs(e.duration));
                break;
            case FaultKind::kChannelDeath:
                std::snprintf(buf, sizeof buf, "%.3f death %u %u\n", us,
                              e.device, e.channel);
                break;
            case FaultKind::kPageCorruption:
                std::snprintf(buf, sizeof buf, "%.3f corrupt %u %u %u %u %u\n",
                              us, e.device, e.channel, e.plane, e.block,
                              e.page);
                break;
            case FaultKind::kLinkCrcWindow:
                std::snprintf(buf, sizeof buf, "%.3f crc %u %u %.3f %g\n", us,
                              e.device, e.channel, util::NsToUs(e.duration),
                              e.magnitude);
                break;
            case FaultKind::kRberElevation:
                std::snprintf(buf, sizeof buf, "%.3f rber %u %u %u %u %g\n",
                              us, e.device, e.channel, e.plane, e.block,
                              e.magnitude);
                break;
            case FaultKind::kFailSlow:
                std::snprintf(buf, sizeof buf, "%.3f failslow %u %u %.3f %g\n",
                              us, e.device, e.channel,
                              util::NsToUs(e.duration), e.magnitude);
                break;
        }
        text += buf;
    }
    return text;
}

FaultInjector::FaultInjector(sim::Simulator &sim,
                             std::vector<core::SdfDevice *> devices,
                             const FaultPlan &plan, FailSlowSink fail_slow)
    : sim_(sim), devices_(std::move(devices)), fail_slow_(std::move(fail_slow))
{
    for (const FaultEvent &e : plan.events()) {
        sim_.ScheduleAt(std::max(e.when, sim_.Now()),
                        [this, e]() { Apply(e); });
    }

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("fault");
        m.RegisterCounter(metric_prefix_ + ".stalls", &stats_.stalls);
        m.RegisterCounter(metric_prefix_ + ".deaths", &stats_.deaths);
        m.RegisterCounter(metric_prefix_ + ".corruptions",
                          &stats_.corruptions);
        m.RegisterCounter(metric_prefix_ + ".crc_windows",
                          &stats_.crc_windows);
        m.RegisterCounter(metric_prefix_ + ".rber_elevations",
                          &stats_.rber_elevations);
        m.RegisterCounter(metric_prefix_ + ".fail_slows", &stats_.fail_slows);
        m.RegisterCounter(metric_prefix_ + ".skipped", &stats_.skipped);
    }
}

FaultInjector::~FaultInjector()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

void
FaultInjector::Apply(const FaultEvent &e)
{
    if (e.kind == FaultKind::kFailSlow) {
        // Node-level fault: `device` names a storage node, delivered via the
        // sink rather than a NAND channel. No sink wired means this plan was
        // built for a device-only rig — count it as clamped, like an
        // out-of-range channel.
        if (!fail_slow_) {
            ++stats_.skipped;
            return;
        }
        fail_slow_(e.device, e.magnitude);
        ++stats_.fail_slows;
        if (e.duration > 0) {
            const uint32_t node = e.device;
            sim_.Schedule(e.duration, [this, node]() {
                fail_slow_(node, 1.0);
            });
        }
        return;
    }
    if (e.device >= devices_.size()) {
        ++stats_.skipped;
        return;
    }
    core::SdfDevice &dev = *devices_[e.device];
    if (e.channel >= dev.channel_count()) {
        ++stats_.skipped;
        return;
    }
    nand::Channel &ch = dev.flash().channel(e.channel);
    const nand::Geometry &geo = dev.flash().geometry();
    switch (e.kind) {
        case FaultKind::kChannelStall:
            ch.InjectStall(e.duration);
            ++stats_.stalls;
            break;
        case FaultKind::kChannelDeath:
            ch.InjectDeath();
            ++stats_.deaths;
            break;
        case FaultKind::kPageCorruption:
            if (e.plane >= geo.PlanesPerChannel() ||
                e.block >= geo.blocks_per_plane ||
                e.page >= geo.pages_per_block) {
                ++stats_.skipped;
                return;
            }
            ch.CorruptPage(nand::PageAddr{e.plane, e.block, e.page});
            ++stats_.corruptions;
            break;
        case FaultKind::kLinkCrcWindow:
            ch.InjectTransientErrors(e.duration, e.magnitude);
            ++stats_.crc_windows;
            break;
        case FaultKind::kRberElevation:
            if (e.plane >= geo.PlanesPerChannel() ||
                e.block >= geo.blocks_per_plane) {
                ++stats_.skipped;
                return;
            }
            ch.ElevateRber(nand::BlockAddr{e.plane, e.block}, e.magnitude);
            ++stats_.rber_elevations;
            break;
        case FaultKind::kFailSlow:
            break;  // Handled above; unreachable.
    }
}

}  // namespace sdf::fault
