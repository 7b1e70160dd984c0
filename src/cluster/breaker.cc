#include "cluster/breaker.h"

#include <algorithm>

#include "util/assert.h"

namespace sdf::cluster {

namespace {

/** Samples a node needs before it can be judged (or judged against). */
constexpr uint64_t kMinSamples = 32;
/** Slow (trip, and hedge past) when EWMA > kTripFactor x peer median. */
constexpr double kTripFactor = 3.0;
/** Close again when EWMA < kResetFactor x peer median. */
constexpr double kResetFactor = 1.5;
/** EWMA smoothing weight for each new sample. */
constexpr double kAlpha = 0.05;

static_assert(kTripFactor > kResetFactor);
static_assert(kAlpha > 0.0 && kAlpha <= 1.0);

}  // namespace

FailSlowBreaker::FailSlowBreaker(uint32_t nodes, const BreakerConfig &cfg)
    : cfg_(cfg), ewma_(nodes, 0.0), samples_(nodes, 0), open_(nodes, 0)
{
    SDF_CHECK(nodes > 0);
}

double
FailSlowBreaker::PeerMedian(uint32_t node) const
{
    // Median over *other* nodes with enough history; a fleet-wide slowdown
    // (overload storm) raises the median and trips nobody — the breaker
    // targets divergence, not load.
    std::vector<double> peers;
    peers.reserve(ewma_.size());
    for (uint32_t i = 0; i < ewma_.size(); ++i) {
        if (i != node && samples_[i] >= kMinSamples) {
            peers.push_back(ewma_[i]);
        }
    }
    if (peers.empty()) return 0.0;
    const size_t mid = peers.size() / 2;
    std::nth_element(peers.begin(), peers.begin() + mid, peers.end());
    return peers[mid];
}

util::TimeNs
FailSlowBreaker::SlowAfter(uint32_t node) const
{
    return static_cast<util::TimeNs>(kTripFactor * PeerMedian(node));
}

void
FailSlowBreaker::Record(uint32_t node, util::TimeNs service_time)
{
    SDF_CHECK(node < ewma_.size());
    const auto x = static_cast<double>(service_time);
    ewma_[node] = samples_[node] == 0
                      ? x
                      : kAlpha * x + (1.0 - kAlpha) * ewma_[node];
    ++samples_[node];
    if (!cfg_.enabled || samples_[node] < kMinSamples) return;

    const double median = PeerMedian(node);
    if (median <= 0.0) return;
    if (open_[node] == 0) {
        if (ewma_[node] > kTripFactor * median) {
            open_[node] = 1;
            ++open_count_;
            ++stats_.trips;
        }
    } else if (ewma_[node] < kResetFactor * median) {
        open_[node] = 0;
        --open_count_;
        ++stats_.resets;
    }
}

}  // namespace sdf::cluster
