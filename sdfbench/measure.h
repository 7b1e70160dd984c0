/**
 * @file
 * Small measuring helpers shared by the workloads.
 */
#ifndef SDFBENCH_MEASURE_H
#define SDFBENCH_MEASURE_H

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace sdfbench {

/** Wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}
    double
    Seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Peak resident memory of this process so far, MiB. */
inline double
PeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/** Nearest-rank percentile of a sample set, plus how many lie beyond. */
struct Quantile
{
    double value = 0;     ///< In the samples' unit.
    uint64_t count = 0;   ///< Samples.
    uint64_t beyond = 0;  ///< Samples strictly above `value`.
};

template <typename T>
Quantile
QuantileOf(std::vector<T> v, double pct)
{
    Quantile q;
    q.count = v.size();
    if (v.empty()) return q;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    q.value = static_cast<double>(v[rank - 1]);
    q.beyond = static_cast<uint64_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), v[rank - 1]));
    return q;
}

inline std::string
Fmt(const char *fmt, double a, double b = 0, double c = 0, double d = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, a, b, c, d);
    return buf;
}

/** Set r.layer[name] = num / den and record its base. */
inline void
Ratio(RepResult &r, const std::string &name, double num, double den,
      const std::string &num_label, const std::string &den_label)
{
    r.layer[name] = den > 0 ? num / den : 0.0;
    r.base[name] = num_label + " " + Fmt("%.0f", num) + " / " + den_label +
                   " " + Fmt("%.0f", den);
}

}  // namespace sdfbench

#endif  // SDFBENCH_MEASURE_H
