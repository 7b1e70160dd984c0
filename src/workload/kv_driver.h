/**
 * @file
 * CCDB workload drivers for the production-system experiments
 * (Figures 10-14): slice preloading, batched random reads over the
 * network, index-building sequential scans, and the write+compaction mix.
 */
#ifndef SDF_WORKLOAD_KV_DRIVER_H
#define SDF_WORKLOAD_KV_DRIVER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kv/slice.h"
#include "kv/store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace sdf::workload {

using util::TimeNs;

/**
 * Preload @p slices with @p bytes_per_slice of values of @p value_size,
 * installed instantly as sorted patches (no simulated time).
 * @return per-slice key lists for the read drivers.
 */
std::vector<std::vector<uint64_t>>
PreloadSlices(const std::vector<kv::Slice *> &slices, uint64_t bytes_per_slice,
              uint32_t value_size);

/**
 * Preload keys 1..@p count of @p value_size into @p store, each in the
 * slice the store routes it to, as sorted full patches (no simulated
 * time). Unlike PreloadSlices' slice-tagged keys, every key is then
 * readable through Store::Get and ServiceFor(store).
 * @return the keys, ascending.
 */
std::vector<uint64_t> PreloadStore(kv::Store &store, uint64_t count,
                                   uint32_t value_size);

/** Result of a KV workload run. */
struct KvRunResult
{
    double client_mbps = 0.0;       ///< Payload delivered to clients.
    double device_read_mbps = 0.0;  ///< Compaction/scan reads at the store.
    double device_write_mbps = 0.0; ///< Patch writes (flush + compaction).
    uint64_t requests = 0;
    /** Scan drivers: completed requests per second and the bytes they
     *  scanned, so scan profiles stay comparable across value-size
     *  distributions (bytes/sec) and batch shapes (ops/sec) at once. */
    double ops_per_sec = 0.0;
    uint64_t scanned_bytes = 0;
};

/** Run parameters shared by the KV drivers. */
struct KvRunConfig
{
    TimeNs warmup = util::MsToNs(300);
    TimeNs duration = util::SecToNs(2.0);
    uint64_t seed = 7;
};

/**
 * Figures 10-12: one synchronous client per slice sends batched random
 * read requests of @p batch_size sub-requests over the network; the next
 * request leaves only when the previous response arrived.
 */
KvRunResult RunBatchedRandomReads(
    sim::Simulator &sim, net::Network &net,
    const std::vector<kv::Slice *> &slices,
    const std::vector<std::vector<uint64_t>> &keys, uint32_t batch_size,
    const KvRunConfig &run);

/**
 * Figure 13: index-building scans — @p threads_per_slice synchronous
 * server-side threads per slice sequentially reading whole patches.
 */
KvRunResult RunSequentialScan(sim::Simulator &sim,
                              const std::vector<kv::Slice *> &slices,
                              uint32_t threads_per_slice,
                              const KvRunConfig &run);

/**
 * Figure 14: one synchronous client per slice writes values uniformly
 * sized in [@p value_min, @p value_max]; patch flushes and compaction run
 * underneath. Reports client write goodput plus device-level compaction
 * traffic.
 */
KvRunResult RunKvWrites(sim::Simulator &sim, net::Network &net,
                        const std::vector<kv::Slice *> &slices,
                        uint32_t value_min, uint32_t value_max,
                        const KvRunConfig &run);

/**
 * A put/get frontend the load engine (workload::RunYcsb) can target: a
 * single Store, a cluster::ClusterRouter or a client::KvClient — the
 * engine does not care where the keys live. `put` must ack durability;
 * `get` must deliver the stored value size (res.found) or a typed
 * failure (res.ok).
 */
struct KvService
{
    std::function<void(uint64_t key, uint32_t value_size,
                       kv::PutCallback done)>
        put;
    std::function<void(uint64_t key, kv::GetCallback done)> get;
    /**
     * Typed put for admission-aware front doors (cluster router, client):
     * the callback says *why* a write failed (overload/deadline/error).
     * Optional — drivers that need it fall back to wrapping `put`.
     */
    std::function<void(uint64_t key, uint32_t value_size,
                       kv::PutStatusCallback done)>
        put_typed;
    /**
     * Range scan: up to `limit` live keys >= start_key in ascending
     * order (see kv::ScanResult). Optional — drivers treat a missing
     * scan as an error outcome for scan ops.
     */
    std::function<void(uint64_t start_key, uint32_t limit,
                       std::function<void(const kv::ScanResult &)> done)>
        scan;
};

/** KvService over a local Store (no network). */
KvService ServiceFor(kv::Store &store);

}  // namespace sdf::workload

#endif  // SDF_WORKLOAD_KV_DRIVER_H
