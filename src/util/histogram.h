/**
 * @file
 * Log-bucketed histogram for latency and size distributions.
 *
 * Buckets grow geometrically so that a single histogram can capture values
 * from nanoseconds to seconds with bounded memory and ~4 % relative error,
 * which is ample for reproducing the paper's latency figures.
 */
#ifndef SDF_UTIL_HISTOGRAM_H
#define SDF_UTIL_HISTOGRAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdf::util {

/** Geometric-bucket histogram over non-negative 64-bit samples. */
class Histogram
{
  public:
    Histogram();

    /** Add one sample. Negative samples are clamped to zero. */
    void Add(int64_t value);

    /** Merge another histogram into this one. */
    void Merge(const Histogram &other);

    /**
     * Distribution of the samples added to @p cur after @p prev was copied
     * from it — bucket-wise subtraction, the primitive behind windowed
     * time-series percentiles (copy at window start, diff at window end).
     * min/max are approximated by the bounds of the lowest/highest
     * non-empty delta bucket. If @p cur does not contain @p prev (it was
     * Reset or replaced in between), @p cur is returned unchanged.
     */
    static Histogram Delta(const Histogram &prev, const Histogram &cur);

    /** Remove all samples. */
    void Reset();

    uint64_t count() const { return count_; }
    int64_t min() const { return count_ ? min_ : 0; }
    int64_t max() const { return count_ ? max_ : 0; }
    double Mean() const;
    double StdDev() const;

    /**
     * Value at quantile q in [0, 1], interpolated within the containing
     * bucket. Returns 0 for an empty histogram.
     */
    double Quantile(double q) const;

    /** Convenience percentile (p in [0, 100]). */
    double Percentile(double p) const { return Quantile(p / 100.0); }

  private:
    static size_t BucketFor(int64_t value);
    static int64_t BucketLow(size_t idx);
    static int64_t BucketHigh(size_t idx);

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    int64_t min_ = 0;
    int64_t max_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
};

}  // namespace sdf::util

#endif  // SDF_UTIL_HISTOGRAM_H
