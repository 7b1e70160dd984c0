/**
 * @file
 * Fail-slow detection for the cluster router.
 *
 * Fail-stop nodes are easy: they time out and the membership drops them.
 * The expensive failure mode in production is the node that keeps
 * answering — just 5-50x slower than its peers (degraded NIC, a dying
 * flash channel, a noisy neighbor stealing its CPU). Because replication
 * reads walk replicas in placement order, one such node poisons the tail
 * latency of every key it is primary for while every health check passes.
 *
 * The breaker watches the per-node service time the router observes
 * (request out -> typed completion back), smooths it with an EWMA, and
 * compares each node against the median of its peers. That comparison is
 * the cluster's one definition of "slow": 3x the peer median. The client
 * front door arms each read's hedge timer there (SlowAfter), and, when
 * the breaker is enabled, a node whose EWMA exceeds it is "open":
 * placement is untouched — the node keeps its keys and keeps receiving
 * writes, so its data stays fresh — but read ordering demotes it to the
 * back of every replica list until its EWMA falls back under 1.5x the
 * median (hysteresis so a node on the boundary does not flap).
 */
#ifndef SDF_CLUSTER_BREAKER_H
#define SDF_CLUSTER_BREAKER_H

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace sdf::cluster {

/** Fail-slow breaker policy. Disabled by default: demoting a replica is
 *  a policy decision benches/tools opt into. */
struct BreakerConfig
{
    /** Trip, reset and demote. The EWMAs are kept either way, because
     *  hedged reads time themselves off them (SlowAfter). */
    bool enabled = false;
};

/** Per-node service-time EWMA + open/closed state. */
class FailSlowBreaker
{
  public:
    struct Stats
    {
        uint64_t trips = 0;     ///< Closed -> open transitions.
        uint64_t resets = 0;    ///< Open -> closed transitions.
        uint64_t reroutes = 0;  ///< Replica orders changed by demotion.
    };

    FailSlowBreaker(uint32_t nodes, const BreakerConfig &cfg);

    /** Feed one observed service time for @p node and, when enabled,
     *  re-judge it. */
    void Record(uint32_t node, util::TimeNs service_time);

    /**
     * How long a request to @p node may take before it counts as slow:
     * the trip factor times the median EWMA of the node's peers (the
     * node's own EWMA plays no part). 0 until some peer has enough
     * samples to be judged against.
     */
    util::TimeNs SlowAfter(uint32_t node) const;

    bool IsOpen(uint32_t node) const { return open_[node] != 0; }
    bool AnyOpen() const { return open_count_ > 0; }
    uint32_t open_count() const { return open_count_; }
    double ewma_ms(uint32_t node) const { return ewma_[node] / 1e6; }

    void CountReroute() { ++stats_.reroutes; }
    const Stats &stats() const { return stats_; }

  private:
    double PeerMedian(uint32_t node) const;

    BreakerConfig cfg_;
    std::vector<double> ewma_;        ///< Smoothed service time, ns.
    std::vector<uint64_t> samples_;
    std::vector<uint8_t> open_;
    uint32_t open_count_ = 0;
    Stats stats_;
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_BREAKER_H
