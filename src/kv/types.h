/**
 * @file
 * Core types for CCDB, Baidu's LSM-tree KV store (§2.4).
 *
 * Keys are 64-bit integers (the production system hashes string keys into
 * ranges; benches use integer keys directly — the facades in store.h map
 * table rows and file paths onto them). Values are modeled by size and an
 * optional payload for data-integrity tests.
 */
#ifndef SDF_KV_TYPES_H
#define SDF_KV_TYPES_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/span.h"
#include "sim/callback.h"
#include "obs/trace_context.h"

namespace sdf::kv {

/** A key-value record as it flows through memtables and patches. */
struct KvItem
{
    uint64_t key = 0;
    uint32_t value_size = 0;
    /** Optional real payload (tests only; benches run timing-only). */
    std::shared_ptr<std::vector<uint8_t>> payload;
    /** Deletion marker: shadows older versions until compacted away. */
    bool tombstone = false;

    /** Bytes this record charges against the memtable/patch budget. */
    uint32_t
    StorageCharge() const
    {
        // A tombstone still costs an index entry's worth of space.
        return tombstone ? 64 : value_size;
    }
};

/**
 * Typed disposition of a KV front-door operation. Overload control needs
 * failures to say *why*: a shed request (kOverloaded) tells the client to
 * back off, a blown deadline (kDeadlineExceeded) tells it the work may
 * still complete server-side, and a storage error (kError) tells it to
 * fail over. Ranked by how actionable the signal is for backpressure.
 */
enum class OpStatus : uint8_t
{
    kOk = 0,              ///< Served (or an authoritative miss).
    kError,               ///< Storage-level failure on every replica tried.
    kDeadlineExceeded,    ///< Deadline or RPC retry budget exhausted.
    kOverloaded,          ///< Shed by admission control (server or client).
};

/** The more backpressure-actionable of two failure dispositions. */
inline OpStatus
WorseStatus(OpStatus a, OpStatus b)
{
    return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

/**
 * Per-operation context threaded from the front door down to the RPC
 * layer. `deadline` is an absolute simulated time; 0 means none — the
 * transport's own timeout/retry ladder still bounds the attempt.
 *
 * `trace` is the distributed-trace identity (0 = untraced) every layer
 * tags its trace events with, and `path` is the request's critical-path
 * span: the layer that currently owns the request marks milestones on it
 * (client queue, wire, admission, storage, ...) and the segments tile the
 * client-observed latency exactly. The span has a single writer at a
 * time — fan-out paths (put replication, hedges, batch members past the
 * first) strip `path` and keep only `trace`, so duplicates stay linked
 * in the trace without two writers corrupting one timeline.
 */
struct OpContext
{
    uint64_t deadline = 0;  ///< util::TimeNs; absolute, 0 = no deadline.
    obs::TraceContext trace;
    std::shared_ptr<obs::IoSpan> path;
};

/** Completion of a Get: found + size (+ data when payloads are on). */
struct GetResult
{
    bool found = false;
    bool ok = true;            ///< Storage-level success.
    uint32_t value_size = 0;
    std::shared_ptr<std::vector<uint8_t>> payload;
    /** Why ok is false (kOk whenever ok is true, even on a miss). */
    OpStatus status = OpStatus::kOk;
};

using GetCallback = sim::Func<void(const GetResult &)>;
using PutCallback = sim::Func<void(bool ok)>;
/** Typed put completion for admission-aware paths. */
using PutStatusCallback = sim::Func<void(OpStatus)>;

/** One record returned by a range scan: a live key and its value size. */
struct ScanEntry
{
    uint64_t key = 0;
    uint32_t value_size = 0;
};

/**
 * Completion of a Scan(start_key, limit): up to `limit` live keys >=
 * start_key in ascending order. `scanned_bytes` sums the entry value
 * sizes — the bytes a real scan streams back to the client.
 */
struct ScanResult
{
    bool ok = true;
    OpStatus status = OpStatus::kOk;
    std::vector<ScanEntry> entries;
    uint64_t scanned_bytes = 0;
};

using ScanCallback = sim::Func<void(const ScanResult &)>;

/**
 * Issues unique 64-bit block IDs. The production system runs a counter
 * service that clients request IDs from (§2.4); consecutive IDs land on
 * consecutive channels through the block layer's round-robin hash.
 */
class IdAllocator
{
  public:
    explicit IdAllocator(uint64_t first = 0) : next_(first) {}

    /**
     * Mirror every allocation into @p watermark. Models the counter
     * service's durable high-water mark: a restarted node resumes above
     * every ID ever issued, including ones whose writes never completed.
     */
    void
    BindWatermark(uint64_t *watermark)
    {
        watermark_ = watermark;
        if (watermark_) *watermark_ = std::max(*watermark_, next_);
    }

    uint64_t
    Next()
    {
        const uint64_t id = next_++;
        if (watermark_) *watermark_ = next_;
        return id;
    }
    uint64_t issued() const { return next_; }

  private:
    uint64_t next_;
    uint64_t *watermark_ = nullptr;
};

}  // namespace sdf::kv

#endif  // SDF_KV_TYPES_H
