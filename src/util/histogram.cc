#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sdf::util {

namespace {

// Sub-buckets per power of two: 16 gives <= 1/16 relative bucket width.
constexpr int kSubBucketBits = 4;
constexpr int kSubBuckets = 1 << kSubBucketBits;

}  // namespace

Histogram::Histogram() = default;

size_t
Histogram::BucketFor(int64_t value)
{
    if (value < kSubBuckets) return static_cast<size_t>(std::max<int64_t>(value, 0));
    const auto v = static_cast<uint64_t>(value);
    const int log2 = 63 - std::countl_zero(v);
    const int sub = static_cast<int>((v >> (log2 - kSubBucketBits)) & (kSubBuckets - 1));
    return static_cast<size_t>(kSubBuckets + (log2 - kSubBucketBits) * kSubBuckets + sub);
}

int64_t
Histogram::BucketLow(size_t idx)
{
    if (idx < kSubBuckets) return static_cast<int64_t>(idx);
    const size_t rel = idx - kSubBuckets;
    const int log2 = static_cast<int>(rel / kSubBuckets) + kSubBucketBits;
    const int sub = static_cast<int>(rel % kSubBuckets);
    return (int64_t{1} << log2) + (int64_t{sub} << (log2 - kSubBucketBits));
}

int64_t
Histogram::BucketHigh(size_t idx)
{
    if (idx < kSubBuckets) return static_cast<int64_t>(idx) + 1;
    const size_t rel = idx - kSubBuckets;
    const int log2 = static_cast<int>(rel / kSubBuckets) + kSubBucketBits;
    return BucketLow(idx) + (int64_t{1} << (log2 - kSubBucketBits));
}

void
Histogram::Add(int64_t value)
{
    if (value < 0) value = 0;
    const size_t idx = BucketFor(value);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    const auto v = static_cast<double>(value);
    sum_ += v;
    sum_sq_ += v * v;
}

void
Histogram::Merge(const Histogram &other)
{
    if (other.count_ == 0) return;
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
}

Histogram
Histogram::Delta(const Histogram &prev, const Histogram &cur)
{
    if (prev.count_ == 0) return cur;
    if (cur.count_ < prev.count_ ||
        prev.buckets_.size() > cur.buckets_.size()) {
        return cur;
    }
    Histogram d;
    d.buckets_.assign(cur.buckets_.size(), 0);
    bool any = false;
    size_t lo = 0, hi = 0;
    for (size_t i = 0; i < cur.buckets_.size(); ++i) {
        const uint64_t p = i < prev.buckets_.size() ? prev.buckets_[i] : 0;
        if (cur.buckets_[i] < p) return cur;
        d.buckets_[i] = cur.buckets_[i] - p;
        if (d.buckets_[i] != 0) {
            if (!any) lo = i;
            hi = i;
            any = true;
        }
    }
    d.count_ = cur.count_ - prev.count_;
    if (!any || d.count_ == 0) return Histogram();
    d.sum_ = cur.sum_ - prev.sum_;
    d.sum_sq_ = cur.sum_sq_ - prev.sum_sq_;
    d.min_ = BucketLow(lo);
    d.max_ = BucketHigh(hi) - 1;
    if (d.count_ == 1) {
        // One-sample window: the sum difference recovers the sample exactly
        // (integer-valued doubles stay exact below 2^53), so pin min/max to
        // it — Quantile()'s clamp then reports the true value at every q
        // instead of a mid-bucket interpolation up to 1/16 off.
        const auto v = static_cast<int64_t>(std::llround(d.sum_));
        if (v >= BucketLow(lo) && v < BucketHigh(lo)) d.min_ = d.max_ = v;
    }
    return d;
}

void
Histogram::Reset()
{
    buckets_.clear();
    count_ = 0;
    min_ = max_ = 0;
    sum_ = sum_sq_ = 0.0;
}

double
Histogram::Mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::StdDev() const
{
    if (count_ < 2) return 0.0;
    const double n = static_cast<double>(count_);
    const double var = std::max(0.0, (sum_sq_ - sum_ * sum_ / n) / (n - 1));
    return std::sqrt(var);
}

double
Histogram::Quantile(double q) const
{
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) continue;
        const double next = seen + static_cast<double>(buckets_[i]);
        if (next >= target) {
            // Linear interpolation inside the bucket, clamped to observed
            // extremes so Quantile(0)/Quantile(1) equal min/max.
            const double frac =
                buckets_[i] ? (target - seen) / static_cast<double>(buckets_[i]) : 0.0;
            const double lo = static_cast<double>(BucketLow(i));
            const double hi = static_cast<double>(BucketHigh(i));
            const double v = lo + frac * (hi - lo);
            return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
        }
        seen = next;
    }
    return static_cast<double>(max_);
}

}  // namespace sdf::util
