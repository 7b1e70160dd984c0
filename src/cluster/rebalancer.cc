#include "cluster/rebalancer.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/hub.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace sdf::cluster {

namespace {

/** Concurrent key transfers per pass. */
constexpr uint32_t kMaxInflight = 4;

/** Who holds a key right now (live nodes only), and at what size. */
struct Holder
{
    uint32_t value_size = 0;
    std::vector<uint32_t> nodes;  ///< Ascending node ids.
};

}  // namespace

Rebalancer::Rebalancer(sim::Simulator &sim, std::vector<StorageNode *> nodes,
                       ClusterRouter &router)
    : sim_(sim), nodes_(std::move(nodes)), router_(router)
{
    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("cluster.rebalance");
        m.RegisterCounter(metric_prefix_ + ".passes", &stats_.passes);
        m.RegisterCounter(metric_prefix_ + ".anti_entropy_passes",
                          &stats_.anti_entropy_passes);
        m.RegisterCounter(metric_prefix_ + ".keys_examined",
                          &stats_.keys_examined);
        m.RegisterCounter(metric_prefix_ + ".keys_moved",
                          &stats_.keys_moved);
        m.RegisterCounter(metric_prefix_ + ".bytes_moved",
                          &stats_.bytes_moved);
        m.RegisterCounter(metric_prefix_ + ".move_failures",
                          &stats_.move_failures);
        m.RegisterGauge(metric_prefix_ + ".inflight", [this]() {
            return static_cast<double>(inflight_);
        });
        m.RegisterGauge(metric_prefix_ + ".queue_depth", [this]() {
            return static_cast<double>(queue_.size());
        });
        m.RegisterGauge(metric_prefix_ + ".last_pass_ms", [this]() {
            return static_cast<double>(stats_.last_pass_ns) / 1e6;
        });
        m.RegisterGauge(metric_prefix_ + ".under_replicated", [this]() {
            return static_cast<double>(CountUnderReplicated());
        });
    }
}

Rebalancer::~Rebalancer()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

std::vector<KeyMove>
Rebalancer::ComputeDelta() const
{
    // Audit: merge every live node's key set. std::map keeps the key
    // order (and thus the move schedule) deterministic.
    std::map<uint64_t, Holder> holders;
    std::map<uint64_t, uint32_t> node_keys;
    for (const StorageNode *n : nodes_) {
        if (!n->running() || !router_.node_live(n->id())) continue;
        node_keys.clear();
        n->CollectLive(node_keys);
        for (const auto &[key, size] : node_keys) {
            Holder &h = holders[key];
            h.value_size = std::max(h.value_size, size);
            h.nodes.push_back(n->id());
        }
    }

    std::vector<KeyMove> delta;
    for (const auto &[key, h] : holders) {
        const std::vector<uint32_t> targets = router_.ReplicaNodes(key);
        // Prefer sourcing from a replica that keeps the key under the new
        // placement (it holds a copy the router still reads from).
        uint32_t source = h.nodes.front();
        for (uint32_t t : targets) {
            if (std::find(h.nodes.begin(), h.nodes.end(), t) !=
                h.nodes.end()) {
                source = t;
                break;
            }
        }
        for (uint32_t t : targets) {
            if (std::find(h.nodes.begin(), h.nodes.end(), t) !=
                h.nodes.end()) {
                continue;  // Target already holds a copy.
            }
            delta.push_back(KeyMove{key, h.value_size, source, t});
        }
    }
    return delta;
}

uint64_t
Rebalancer::CountUnderReplicated() const
{
    const std::vector<KeyMove> delta = ComputeDelta();
    uint64_t keys = 0;
    uint64_t prev_key = 0;
    bool first = true;
    for (const KeyMove &m : delta) {
        if (first || m.key != prev_key) ++keys;
        prev_key = m.key;
        first = false;
    }
    return keys;
}

void
Rebalancer::RunPass(sim::Callback done)
{
    if (active_) {
        // Back-to-back passes: re-audit once the current one settles.
        pending_.push_back(std::move(done));
        return;
    }
    StartPass(std::move(done));
}

void
Rebalancer::StartPass(sim::Callback done)
{
    SDF_CHECK(!active_);
    active_ = true;
    pass_start_ = sim_.Now();
    pass_done_ = std::move(done);
    ++stats_.passes;

    std::vector<KeyMove> delta = ComputeDelta();
    uint64_t prev_key = 0;
    bool first = true;
    for (const KeyMove &m : delta) {
        if (first || m.key != prev_key) ++stats_.keys_examined;
        prev_key = m.key;
        first = false;
    }
    last_moves_ = delta;
    queue_.assign(delta.begin(), delta.end());
    if (queue_.empty()) {
        sim_.Post([this]() { FinishPass(); });
        return;
    }
    Pump();
}

void
Rebalancer::Pump()
{
    while (inflight_ < kMaxInflight && !queue_.empty()) {
        const KeyMove m = queue_.front();
        queue_.pop_front();
        ++inflight_;
        StorageNode *src = nodes_[m.source];
        StorageNode *dst = nodes_[m.dest];
        src->StreamOut(m.key, [this, m, dst](const kv::GetResult &r) {
            auto settle = [this]() {
                --inflight_;
                if (queue_.empty() && inflight_ == 0) {
                    FinishPass();
                    return;
                }
                Pump();
            };
            if (!r.ok || !r.found) {
                // Source died mid-pass or the key vanished under us; the
                // next pass re-audits and retries from a fresh holder.
                ++stats_.move_failures;
                settle();
                return;
            }
            dst->StreamIn(
                m.key, r.value_size,
                [this, m, r, settle](bool ok) {
                    if (ok) {
                        ++stats_.keys_moved;
                        stats_.bytes_moved += r.value_size;
                    } else {
                        ++stats_.move_failures;
                    }
                    settle();
                },
                r.payload);
        });
    }
}

void
Rebalancer::FinishPass()
{
    SDF_CHECK(active_ && inflight_ == 0 && queue_.empty());
    stats_.last_pass_ns = sim_.Now() - pass_start_;
    active_ = false;
    sim::Callback done = std::move(pass_done_);
    pass_done_ = nullptr;
    if (done) done();
    if (!active_ && !pending_.empty()) {
        sim::Callback next = std::move(pending_.front());
        pending_.pop_front();
        StartPass(std::move(next));
    }
}

}  // namespace sdf::cluster
