/**
 * @file
 * Ring rebalancing and anti-entropy for the sharded cluster.
 *
 * When membership changes — a node dies permanently, or a restarted node
 * rejoins — the consistent-hash ring reassigns a slice of the key space.
 * The Rebalancer computes the ownership delta (which live keys are missing
 * from which of their current target replicas) and streams exactly those
 * keys between nodes over net::Network's bulk-transfer path, bounded by a
 * fixed in-flight cap so rebalance traffic shares the NICs with foreground
 * load instead of swamping it.
 *
 * Anti-entropy is the repair-after-permanent-loss form of the same pass
 * (RunRepairPass): after a node is marked down for good, one pass restores
 * full R-way redundancy for every key the dead node held (the surviving
 * replica streams each key to the new owner the ring picked).
 */
#ifndef SDF_CLUSTER_REBALANCER_H
#define SDF_CLUSTER_REBALANCER_H

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "sim/simulator.h"

namespace sdf::cluster {

/** One key transfer the pass decided to make. */
struct KeyMove
{
    uint64_t key = 0;
    uint32_t value_size = 0;
    uint32_t source = 0;  ///< Node the copy is read from.
    uint32_t dest = 0;    ///< Target replica that is missing the key.
};

/**
 * Streams keys to the replicas the current ring says should hold them.
 * A pass is: audit every live node's contents, diff against the ring's
 * target placement, then pump the resulting move list through the nodes'
 * StreamOut -> StreamIn path with bounded concurrency.
 */
class Rebalancer
{
  public:
    struct Stats
    {
        uint64_t passes = 0;
        uint64_t anti_entropy_passes = 0;
        uint64_t keys_examined = 0;
        uint64_t keys_moved = 0;
        uint64_t bytes_moved = 0;
        uint64_t move_failures = 0;
        uint64_t last_pass_ns = 0;
    };

    Rebalancer(sim::Simulator &sim, std::vector<StorageNode *> nodes,
               ClusterRouter &router);
    ~Rebalancer();

    Rebalancer(const Rebalancer &) = delete;
    Rebalancer &operator=(const Rebalancer &) = delete;

    /**
     * The ownership delta under the *current* ring: every (key, source,
     * dest) where dest is a target replica for key but holds no copy.
     * Pure audit — no traffic; this is what a pass would move.
     */
    std::vector<KeyMove> ComputeDelta() const;

    /** Distinct live keys currently short of their target replica count. */
    uint64_t CountUnderReplicated() const;

    /**
     * Run one rebalance pass: ComputeDelta(), then stream every move.
     * @p done fires when the last transfer settled. Passes requested while
     * one is active are queued and run back-to-back.
     */
    void RunPass(sim::Callback done = nullptr);

    /**
     * Redundancy repair after permanent node loss: one RunPass counted as
     * anti-entropy. Call after MarkNodeDown() on a node that will not come
     * back; @p done fires once every surviving key is back to
     * min(R, live nodes) copies.
     */
    void
    RunRepairPass(sim::Callback done = nullptr)
    {
        ++stats_.anti_entropy_passes;
        RunPass(std::move(done));
    }

    const Stats &stats() const { return stats_; }
    /** The moves performed by the most recently *started* pass. */
    const std::vector<KeyMove> &last_moves() const { return last_moves_; }
    bool active() const { return active_; }

  private:
    void StartPass(sim::Callback done);
    void Pump();
    void FinishPass();

    sim::Simulator &sim_;
    std::vector<StorageNode *> nodes_;
    ClusterRouter &router_;

    bool active_ = false;
    util::TimeNs pass_start_ = 0;
    std::deque<KeyMove> queue_;
    uint32_t inflight_ = 0;
    sim::Callback pass_done_;
    std::deque<sim::Callback> pending_;
    std::vector<KeyMove> last_moves_;
    Stats stats_;

    obs::Hub *hub_ = nullptr;
    std::string metric_prefix_;
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_REBALANCER_H
