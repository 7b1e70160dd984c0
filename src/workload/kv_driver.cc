#include "workload/kv_driver.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "host/io_stack.h"
#include "util/assert.h"

namespace sdf::workload {

std::vector<std::vector<uint64_t>>
PreloadSlices(const std::vector<kv::Slice *> &slices, uint64_t bytes_per_slice,
              uint32_t value_size)
{
    SDF_CHECK(value_size > 0);
    std::vector<std::vector<uint64_t>> keys(slices.size());
    for (size_t s = 0; s < slices.size(); ++s) {
        kv::Slice *slice = slices[s];
        uint64_t loaded = 0;
        uint64_t next_key = uint64_t{s} << 40;
        const uint64_t patch_bytes = slice->patch_bytes();
        while (loaded < bytes_per_slice) {
            // One full patch of values.
            std::vector<kv::KvItem> items;
            uint64_t patch_fill = 0;
            const uint64_t patch_cap = bytes_per_slice - loaded;
            while (patch_fill + value_size <= patch_bytes &&
                   patch_fill + value_size <= patch_cap) {
                items.push_back(kv::KvItem{next_key, value_size, nullptr});
                keys[s].push_back(next_key);
                ++next_key;
                patch_fill += value_size;
            }
            if (items.empty()) break;
            if (!slice->DebugPreloadPatch(std::move(items))) {
                // Storage full: stop loading this slice.
                break;
            }
            loaded += patch_fill;
        }
        SDF_CHECK_MSG(!keys[s].empty(), "slice preload produced no keys");
    }
    return keys;
}

std::vector<uint64_t>
PreloadStore(kv::Store &store, uint64_t count, uint32_t value_size)
{
    SDF_CHECK(value_size > 0);
    const uint64_t per_patch =
        std::max<uint64_t>(1, store.slice(0).patch_bytes() / value_size);
    std::vector<std::vector<kv::KvItem>> pending(store.slice_count());
    auto install = [&store, &pending](uint32_t s) {
        SDF_CHECK_MSG(store.slice(s).DebugPreloadPatch(std::move(pending[s])),
                      "store preload ran out of space");
        pending[s].clear();
    };
    std::vector<uint64_t> keys;
    for (uint64_t key = 1; key <= count; ++key) {
        const uint32_t s = store.SliceOf(key);
        pending[s].push_back(kv::KvItem{key, value_size, nullptr});
        keys.push_back(key);
        if (pending[s].size() == per_patch) install(s);
    }
    for (uint32_t s = 0; s < store.slice_count(); ++s) {
        if (!pending[s].empty()) install(s);
    }
    return keys;
}

KvRunResult
RunBatchedRandomReads(sim::Simulator &sim, net::Network &net,
                      const std::vector<kv::Slice *> &slices,
                      const std::vector<std::vector<uint64_t>> &keys,
                      uint32_t batch_size, const KvRunConfig &run)
{
    SDF_CHECK(!slices.empty());
    SDF_CHECK(keys.size() == slices.size());
    SDF_CHECK(batch_size >= 1);

    struct Meter
    {
        bool measuring = false;
        uint64_t bytes = 0;
        uint64_t requests = 0;
    };
    auto meter = std::make_shared<Meter>();
    auto rng = std::make_shared<util::Rng>(run.seed);

    std::vector<std::unique_ptr<host::ClosedLoopActor>> clients;
    for (size_t s = 0; s < slices.size(); ++s) {
        kv::Slice *slice = slices[s];
        const auto &slice_keys = keys[s];
        const auto client = static_cast<uint32_t>(s);
        clients.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&net, slice, &slice_keys, client, batch_size, meter,
                  rng](host::ClosedLoopActor::Done done) {
                // One batched request; each sub-request's value streams
                // back to the client as soon as it is read, and the batch
                // completes when the last value lands at the client.
                auto at_server = [&net, slice, &slice_keys, client,
                                  batch_size, meter, rng, done]() {
                    auto remaining = std::make_shared<uint32_t>(batch_size);
                    for (uint32_t b = 0; b < batch_size; ++b) {
                        const uint64_t key =
                            slice_keys[rng->NextBelow(slice_keys.size())];
                        slice->Get(key, [&net, client, remaining, done,
                                         meter](const kv::GetResult &r) {
                            const uint64_t bytes =
                                r.found && r.ok ? r.value_size : 64;
                            auto delivered = [remaining, done, meter]() {
                                if (--*remaining == 0) {
                                    if (meter->measuring) ++meter->requests;
                                    done();
                                }
                            };
                            static_assert(sim::Callback::kFitsInline<
                                          decltype(delivered)>);
                            net.Push(client, bytes, std::move(delivered));
                        });
                    }
                };
                static_assert(sim::Callback::kFitsInline<decltype(at_server)>);
                net.ClientToServer(client, 256, std::move(at_server));
            }));
    }

    for (auto &c : clients) c->Start();
    sim.RunUntil(sim.Now() + run.warmup);
    meter->measuring = true;
    const uint64_t bytes_before = net.bytes_to_clients();
    const TimeNs t0 = sim.Now();
    sim.RunUntil(t0 + run.duration);
    const uint64_t delivered = net.bytes_to_clients() - bytes_before;
    meter->measuring = false;
    for (auto &c : clients) c->Stop();

    KvRunResult result;
    result.client_mbps = util::BandwidthMBps(delivered, run.duration);
    result.requests = meter->requests;
    return result;
}

KvRunResult
RunSequentialScan(sim::Simulator &sim, const std::vector<kv::Slice *> &slices,
                  uint32_t threads_per_slice, const KvRunConfig &run)
{
    SDF_CHECK(!slices.empty());
    SDF_CHECK(threads_per_slice >= 1);

    struct Meter
    {
        bool measuring = false;
        uint64_t bytes = 0;
        uint64_t requests = 0;
    };
    auto meter = std::make_shared<Meter>();

    std::vector<std::unique_ptr<host::ClosedLoopActor>> threads;
    for (kv::Slice *slice : slices) {
        // The scan walks all patches in key order, cycling for the run's
        // duration; threads share one cursor (six per slice in §3.3.2).
        auto patch_ids =
            std::make_shared<std::vector<uint64_t>>(slice->AllPatchIds());
        SDF_CHECK_MSG(!patch_ids->empty(), "scan over an empty slice");
        auto cursor = std::make_shared<size_t>(0);
        for (uint32_t t = 0; t < threads_per_slice; ++t) {
            threads.push_back(std::make_unique<host::ClosedLoopActor>(
                sim, [slice, patch_ids, cursor,
                      meter](host::ClosedLoopActor::Done done) {
                    const uint64_t id =
                        (*patch_ids)[(*cursor)++ % patch_ids->size()];
                    const uint64_t bytes = 8 * util::kMiB;
                    auto read = [meter, bytes, done](bool ok) {
                        if (ok && meter->measuring) {
                            meter->bytes += bytes;
                            ++meter->requests;
                        }
                        done();
                    };
                    static_assert(
                        kv::PatchCallback::kFitsInline<decltype(read)>);
                    slice->ReadPatchFully(id, std::move(read));
                }));
        }
    }

    for (auto &t : threads) t->Start();
    sim.RunUntil(sim.Now() + run.warmup);
    meter->measuring = true;
    const TimeNs t0 = sim.Now();
    sim.RunUntil(t0 + run.duration);
    meter->measuring = false;
    for (auto &t : threads) t->Stop();

    KvRunResult result;
    result.client_mbps = util::BandwidthMBps(meter->bytes, run.duration);
    result.device_read_mbps = result.client_mbps;
    result.requests = meter->requests;
    result.scanned_bytes = meter->bytes;
    result.ops_per_sec = static_cast<double>(meter->requests) /
                         (static_cast<double>(run.duration) * 1e-9);
    return result;
}

KvRunResult
RunKvWrites(sim::Simulator &sim, net::Network &net,
            const std::vector<kv::Slice *> &slices, uint32_t value_min,
            uint32_t value_max, const KvRunConfig &run)
{
    SDF_CHECK(!slices.empty());
    SDF_CHECK(value_min > 0 && value_min <= value_max);

    auto rng = std::make_shared<util::Rng>(run.seed);
    auto next_key = std::make_shared<uint64_t>(uint64_t{1} << 50);
    auto requests = std::make_shared<uint64_t>(0);

    std::vector<std::unique_ptr<host::ClosedLoopActor>> clients;
    for (size_t s = 0; s < slices.size(); ++s) {
        kv::Slice *slice = slices[s];
        const auto client = static_cast<uint32_t>(s);
        clients.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&net, slice, client, value_min, value_max, rng, next_key,
                  requests](host::ClosedLoopActor::Done done) {
                const auto size = static_cast<uint32_t>(rng->NextInRange(
                    value_min, value_max));
                net.Rpc(
                    client, /*request_bytes=*/size,
                    [slice, size, next_key,
                     requests](std::function<void(uint64_t)> reply) {
                        slice->Put((*next_key)++, size,
                                   [reply, requests](bool) {
                                       ++*requests;
                                       reply(64);  // Small ack message.
                                   });
                    },
                    std::move(done));
            }));
    }

    auto slice_writes = [&slices]() {
        uint64_t flushed = 0, cread = 0, cwrite = 0;
        for (const kv::Slice *s : slices) {
            // A flush counts once it starts, and stops counting if its
            // patch does not land.
            flushed += (s->stats().flushes - s->stats().failed_flushes) * 8 *
                       util::kMiB;
            cread += s->stats().compaction_bytes_read;
            cwrite += s->stats().compaction_bytes_written;
        }
        return std::tuple{flushed, cread, cwrite};
    };

    for (auto &c : clients) c->Start();
    sim.RunUntil(sim.Now() + run.warmup);
    const auto [f0, r0, w0] = slice_writes();
    const uint64_t req0 = *requests;
    const TimeNs t0 = sim.Now();
    sim.RunUntil(t0 + run.duration);
    const auto [f1, r1, w1] = slice_writes();
    for (auto &c : clients) c->Stop();

    KvRunResult result;
    result.device_write_mbps =
        util::BandwidthMBps((f1 - f0) + (w1 - w0), run.duration);
    result.device_read_mbps = util::BandwidthMBps(r1 - r0, run.duration);
    result.client_mbps = result.device_write_mbps -
        util::BandwidthMBps(w1 - w0, run.duration);  // flush share
    result.requests = *requests - req0;
    for (const kv::Slice *s : slices)
        result.failed_flushes += s->stats().failed_flushes;
    return result;
}

KvService
ServiceFor(kv::Store &store)
{
    KvService svc;
    svc.put = [&store](uint64_t key, uint32_t value_size,
                       kv::PutCallback done) {
        store.Put(key, value_size, std::move(done));
    };
    svc.get = [&store](uint64_t key, kv::GetCallback done) {
        store.Get(key, std::move(done));
    };
    svc.scan = [&store](uint64_t start_key, uint32_t limit,
                        std::function<void(const kv::ScanResult &)> done) {
        store.Scan(start_key, limit,
                   [done = std::move(done)](const kv::ScanResult &r) {
                       done(r);
                   });
    };
    return svc;
}

}  // namespace sdf::workload
