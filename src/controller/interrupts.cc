#include "controller/interrupts.h"

#include <utility>

#include "util/assert.h"

namespace sdf::controller {

namespace {

/** First level: channels per merge group (11 per Spartan-6 on the SDF
 *  board). */
constexpr uint32_t kChannelsPerGroup = 11;
/** A group fires when this many completions pend... */
constexpr uint32_t kMergeCount = 4;
/** ... or when the oldest pending completion is this old. */
constexpr TimeNs kMergeWindow = util::UsToNs(20);
/** Second level (Virtex-5): fire when this many group batches pend. */
constexpr uint32_t kGlobalMergeCount = 2;
/** ... or when the oldest pending batch is this old. */
constexpr TimeNs kGlobalMergeWindow = util::UsToNs(15);
/** Host CPU time consumed by one interrupt (handler + wakeup). */
constexpr TimeNs kCpuCostPerInterrupt = util::UsToNs(6);

}  // namespace

InterruptCoalescer::InterruptCoalescer(sim::Simulator &sim,
                                       const InterruptConfig &config,
                                       uint32_t channel_count)
    : sim_(sim), config_(config)
{
    const uint32_t groups =
        (channel_count + kChannelsPerGroup - 1) / kChannelsPerGroup;
    groups_.resize(std::max(groups, 1u));
}

void
InterruptCoalescer::OnCompletion(uint32_t channel, sim::Callback deliver)
{
    ++completions_;
    if (!config_.coalesce) {
        ++interrupts_;
        cpu_time_ += kCpuCostPerInterrupt;
        if (deliver) deliver();
        return;
    }

    const uint32_t g = channel / kChannelsPerGroup;
    SDF_CHECK(g < groups_.size());
    Group &group = groups_[g];
    group.pending.push_back(std::move(deliver));

    if (group.pending.size() >= kMergeCount) {
        if (group.timer != sim::kInvalidEvent) {
            sim_.Cancel(group.timer);
            group.timer = sim::kInvalidEvent;
        }
        Fire(g);
    } else if (group.timer == sim::kInvalidEvent) {
        group.timer = sim_.Schedule(kMergeWindow, [this, g]() {
            groups_[g].timer = sim::kInvalidEvent;
            Fire(g);
        });
    }
}

void
InterruptCoalescer::Fire(uint32_t group_idx)
{
    // Level 1 (Spartan-6): the group's batch moves to the global stage.
    Group &group = groups_[group_idx];
    if (group.pending.empty()) return;
    for (auto &cb : group.pending) {
        global_pending_.push_back(std::move(cb));
    }
    group.pending.clear();
    ++global_batches_;

    if (global_batches_ >= kGlobalMergeCount) {
        if (global_timer_ != sim::kInvalidEvent) {
            sim_.Cancel(global_timer_);
            global_timer_ = sim::kInvalidEvent;
        }
        GlobalFire();
    } else if (global_timer_ == sim::kInvalidEvent) {
        global_timer_ = sim_.Schedule(kGlobalMergeWindow, [this]() {
            global_timer_ = sim::kInvalidEvent;
            GlobalFire();
        });
    }
}

void
InterruptCoalescer::GlobalFire()
{
    // Level 2 (Virtex-5): one MSI for everything pending. The whole batch
    // is handed to the completion ring as a single posted event — one
    // dispatch step drains every coalesced completion, mirroring how the
    // host ISR walks the merged completion queue in one pass.
    if (global_pending_.empty()) return;
    ++interrupts_;
    cpu_time_ += kCpuCostPerInterrupt;
    global_batches_ = 0;
    sim_.Post([batch = std::move(global_pending_)]() {
        for (const auto &cb : batch) {
            if (cb) cb();
        }
    });
    global_pending_.clear();
}

double
InterruptCoalescer::MergeFactor() const
{
    return interrupts_ ? static_cast<double>(completions_) /
                             static_cast<double>(interrupts_)
                       : 0.0;
}

}  // namespace sdf::controller
