/**
 * @file
 * Typed I/O completion status for the device and block-layer paths.
 *
 * The original prototype completed every operation with a bare `bool ok`,
 * which collapses "uncorrectable read after the full retry ladder" and
 * "channel controller died" into the same bit. Recovery code above the
 * device (block layer failover, KV replication) needs the distinction:
 * a dead channel means *re-route*, an uncorrectable read means *the data
 * is gone — fail over to a replica and re-replicate*.
 *
 * IoStatus converts implicitly to and from bool so the many call sites
 * that only care about success keep working; recovery-aware callers
 * inspect `.error`.
 */
#ifndef SDF_SDF_IO_STATUS_H
#define SDF_SDF_IO_STATUS_H

#include <cstdint>
#include <functional>

#include "sim/callback.h"

namespace sdf::core {

/** Why an I/O operation failed (kOk when it did not). */
enum class IoError : uint8_t
{
    kOk = 0,
    kContractViolation,   ///< Malformed request (alignment, state, range).
    kReadUncorrectable,   ///< Data lost: retry ladder exhausted, block retired.
    kChannelDead,         ///< The channel controller/chips no longer respond.
    kUnitDead,            ///< Unit lost to wear-out with no spare left.
    kNoSpace,             ///< No erased/spare unit available for the write.
    kWriteFailed,         ///< Program/erase failure not covered above.
    kNotFound,            ///< Block layer: unknown (or dropped) block ID.
    kTimedOut,            ///< Network: no response within the retry budget.
};

/**
 * Completion status carried by IoCallback. Implicitly interchangeable
 * with bool for legacy call sites: truthiness means success, and a bare
 * `false` maps to the generic kWriteFailed/kNotFound-agnostic failure.
 */
struct IoStatus
{
    IoError error = IoError::kOk;

    constexpr IoStatus() = default;
    constexpr IoStatus(IoError e) : error(e) {}  // NOLINT(runtime/explicit)
    constexpr IoStatus(bool ok)                  // NOLINT(runtime/explicit)
        : error(ok ? IoError::kOk : IoError::kWriteFailed)
    {
    }

    constexpr bool ok() const { return error == IoError::kOk; }
    constexpr operator bool() const { return ok(); }  // NOLINT
};

/** Completion callback for device and block-layer operations. */
using IoCallback = sim::Func<void(IoStatus)>;

}  // namespace sdf::core

#endif  // SDF_SDF_IO_STATUS_H
