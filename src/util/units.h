/**
 * @file
 * Size and time unit constants and small formatting and parsing helpers
 * used across the SDF reproduction. Sizes are in bytes; simulated time is
 * in nanoseconds.
 */
#ifndef SDF_UTIL_UNITS_H
#define SDF_UTIL_UNITS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace sdf::util {

// -------------------------------------------------------------------------
// Sizes (bytes).
// -------------------------------------------------------------------------
inline constexpr uint64_t kKiB = 1024ULL;
inline constexpr uint64_t kMiB = 1024ULL * kKiB;
inline constexpr uint64_t kGiB = 1024ULL * kMiB;

// Decimal units: vendors (and the paper) quote bandwidth in MB/s = 1e6 B/s.
inline constexpr uint64_t kKB = 1000ULL;
inline constexpr uint64_t kMB = 1000ULL * kKB;
inline constexpr uint64_t kGB = 1000ULL * kMB;

// -------------------------------------------------------------------------
// Time (nanoseconds of simulated time).
// -------------------------------------------------------------------------
using TimeNs = int64_t;

inline constexpr TimeNs kNsPerUs = 1000;
inline constexpr TimeNs kNsPerMs = 1000 * kNsPerUs;
inline constexpr TimeNs kNsPerSec = 1000 * kNsPerMs;

/** Convert microseconds to simulated nanoseconds. */
constexpr TimeNs UsToNs(double us) { return static_cast<TimeNs>(us * kNsPerUs); }
/** Convert milliseconds to simulated nanoseconds. */
constexpr TimeNs MsToNs(double ms) { return static_cast<TimeNs>(ms * kNsPerMs); }
/** Convert seconds to simulated nanoseconds. */
constexpr TimeNs SecToNs(double s) { return static_cast<TimeNs>(s * kNsPerSec); }

/**
 * Whether @p ns, a time in nanoseconds computed in floating point (a flag
 * value times its unit), is non-negative and fits the simulated clock, so
 * converting it to TimeNs is defined. NaN and infinity fail.
 */
constexpr bool
FitsClock(double ns)
{
    return ns >= 0 &&
           ns < static_cast<double>(std::numeric_limits<TimeNs>::max());
}

/** Convert simulated nanoseconds to (double) milliseconds. */
constexpr double NsToMs(TimeNs ns) { return static_cast<double>(ns) / kNsPerMs; }
/** Convert simulated nanoseconds to (double) microseconds. */
constexpr double NsToUs(TimeNs ns) { return static_cast<double>(ns) / kNsPerUs; }
/** Convert simulated nanoseconds to (double) seconds. */
constexpr double NsToSec(TimeNs ns) { return static_cast<double>(ns) / kNsPerSec; }

/**
 * Time needed to move @p bytes at @p bytes_per_sec, rounded up to a whole
 * nanosecond. A zero rate yields zero time (infinite-speed link).
 */
constexpr TimeNs TransferTimeNs(uint64_t bytes, double bytes_per_sec)
{
    if (bytes_per_sec <= 0.0) return 0;
    const double sec = static_cast<double>(bytes) / bytes_per_sec;
    return static_cast<TimeNs>(sec * kNsPerSec + 0.5);
}

/** Bandwidth in MB/s (decimal) given bytes moved over a simulated duration. */
constexpr double BandwidthMBps(uint64_t bytes, TimeNs duration)
{
    if (duration <= 0) return 0.0;
    return static_cast<double>(bytes) / NsToSec(duration) / kMB;
}

/** Render a byte count as a human-readable string ("8 KB", "704 GB", ...). */
std::string FormatBytes(uint64_t bytes);

/**
 * Parse all of flag @p key's value @p val with @p parse (std::stod and
 * friends). Trailing junk, a malformed or an out-of-range value throws
 * std::invalid_argument naming the flag.
 */
template <typename Parse>
auto
ParseWhole(const std::string &key, const std::string &val, Parse parse)
{
    size_t used = 0;
    try {
        const auto v = parse(val, &used);
        if (used == val.size()) return v;
    } catch (const std::logic_error &) {
    }
    throw std::invalid_argument(key + ": bad value '" + val + "'");
}

}  // namespace sdf::util

#endif  // SDF_UTIL_UNITS_H
