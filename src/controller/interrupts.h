/**
 * @file
 * Interrupt generation and coalescing.
 *
 * SDF merges completion interrupts twice — once per Spartan-6 (11 channels)
 * and once globally in the Virtex-5 — so the host sees only 1/5 to 1/4 as
 * many interrupts as completions (§2.1). Fewer interrupts mean less host CPU
 * burned in handlers, which matters for IOPS-bound small reads.
 */
#ifndef SDF_CONTROLLER_INTERRUPTS_H
#define SDF_CONTROLLER_INTERRUPTS_H

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/units.h"

namespace sdf::controller {

using util::TimeNs;

/** Coalescing policy; the merge groups, counts and windows are constants
 *  in interrupts.cc. */
struct InterruptConfig
{
    /** Coalescing on/off (off = one interrupt per completion). */
    bool coalesce = true;
};

/**
 * Collects per-channel completion signals and delivers them to the host in
 * merged batches. Completion callbacks are deferred until their group's
 * interrupt fires.
 */
class InterruptCoalescer
{
  public:
    InterruptCoalescer(sim::Simulator &sim, const InterruptConfig &config,
                       uint32_t channel_count);

    InterruptCoalescer(const InterruptCoalescer &) = delete;
    InterruptCoalescer &operator=(const InterruptCoalescer &) = delete;

    /**
     * Signal a completion on @p channel; @p deliver runs when the merged
     * interrupt for the channel's group fires.
     */
    void OnCompletion(uint32_t channel, sim::Callback deliver);

    uint64_t completions() const { return completions_; }
    uint64_t interrupts() const { return interrupts_; }
    /** Total host CPU time charged to interrupt handling. */
    TimeNs cpu_time() const { return cpu_time_; }
    /** Completions per interrupt (the paper's merge factor, 4-5x). */
    double MergeFactor() const;

  private:
    struct Group
    {
        std::vector<sim::Callback> pending;
        sim::EventId timer = sim::kInvalidEvent;
    };

    void Fire(uint32_t group_idx);
    void GlobalFire();

    sim::Simulator &sim_;
    InterruptConfig config_;
    std::vector<Group> groups_;
    /** Level-2 stage: batches from group fires awaiting the global merge. */
    std::vector<sim::Callback> global_pending_;
    uint32_t global_batches_ = 0;
    sim::EventId global_timer_ = sim::kInvalidEvent;
    uint64_t completions_ = 0;
    uint64_t interrupts_ = 0;
    TimeNs cpu_time_ = 0;
};

}  // namespace sdf::controller

#endif  // SDF_CONTROLLER_INTERRUPTS_H
