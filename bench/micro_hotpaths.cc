/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the simulator and
 * the library algorithms: event queue throughput, the per-page unit write
 * and read paths of the SDF device, FTL map operations, GC victim
 * selection, the compaction merge kernel, a slice's DRAM index (bytes per
 * preloaded key and lookups), and the striping address math.
 */
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <vector>

#include "ftl/page_map.h"
#include "ftl/striping.h"
#include "ftl/wear_leveler.h"
#include "kv/patch.h"
#include "kv/store.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/rng.h"

namespace sdf {
namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        int fired = 0;
        for (int i = 0; i < batch; ++i) {
            sim.Schedule(i % 1000, [&fired]() { ++fired; });
        }
        sim.Run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

/** One channel of the production board (Table 3) at 0.04 capacity. */
core::SdfConfig
OneBaiduChannel()
{
    core::SdfConfig cfg = core::BaiduSdfConfig(0.04);
    cfg.flash.geometry.channels = 1;
    return cfg;
}

void
BM_UnitWrite(benchmark::State &state)
{
    // An uncontended 8 MB unit write on one production channel (and the
    // erase before it): the per-page data-in and program path alone,
    // without the block layer, KV store or cluster above it.
    sim::Simulator sim;
    core::SdfDevice dev(sim, OneBaiduChannel());
    const uint64_t pages = dev.unit_bytes() / dev.read_unit_bytes();
    for (auto _ : state) {
        dev.EraseUnit(0, 0, nullptr);
        sim.Run();
        dev.WriteUnit(0, 0, nullptr);
        sim.Run();
        benchmark::DoNotOptimize(sim.Now());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * pages));
    state.SetLabel("items = flash pages");
}
BENCHMARK(BM_UnitWrite);

void
BM_UnitRead(benchmark::State &state)
{
    // An uncontended background read of a whole 8 MB unit on one
    // production channel, as compaction and recovery issue them: the
    // per-page sense, data-out and DMA path alone.
    sim::Simulator sim;
    core::SdfDevice dev(sim, OneBaiduChannel());
    dev.DebugForceWritten(0, 0);
    const uint64_t pages = dev.unit_bytes() / dev.read_unit_bytes();
    const core::ReadClassScope scope(core::ReadClass::kBackground);
    for (auto _ : state) {
        dev.Read(0, 0, 0, dev.unit_bytes(), nullptr);
        sim.Run();
        benchmark::DoNotOptimize(sim.Now());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * pages));
    state.SetLabel("items = flash pages");
}
BENCHMARK(BM_UnitRead);

void
BM_PageMapUpdate(benchmark::State &state)
{
    ftl::PageMap map(1 << 16, 1 << 17, 256);
    util::Rng rng(1);
    uint32_t ppn = 0;
    for (auto _ : state) {
        const auto lpn = static_cast<uint32_t>(rng.NextBelow(1 << 16));
        map.Update(lpn, ppn);
        ppn = (ppn + 1) % (1 << 17);
        // Keep the target physical page free.
        if (map.ReverseLookup(ppn) != ftl::kUnmappedPage) {
            map.Invalidate(map.ReverseLookup(ppn));
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageMapUpdate);

void
BM_GreedyVictimSelection(benchmark::State &state)
{
    const auto blocks = static_cast<uint32_t>(state.range(0));
    ftl::PageMap map(blocks * 128, blocks * 256, 256);
    util::Rng rng(2);
    std::vector<uint32_t> candidates;
    for (uint32_t b = 0; b < blocks; ++b) candidates.push_back(b);
    // Distinct physical pages, interleaved over blocks.
    for (uint32_t lpn = 0; lpn < blocks * 128; ++lpn) {
        map.Update(lpn, lpn * 2 + static_cast<uint32_t>(rng.NextBelow(2)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(ftl::PickGreedyVictim(map, candidates));
    }
    state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_GreedyVictimSelection)->Arg(256)->Arg(2048);

void
BM_WearLevelerChurn(benchmark::State &state)
{
    ftl::DynamicWearLeveler wl;
    for (uint32_t b = 0; b < 2048; ++b) wl.Release(b, 0);
    uint32_t ec = 0;
    for (auto _ : state) {
        const uint32_t b = wl.Allocate();
        wl.Release(b, ++ec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WearLevelerChurn);

void
BM_CompactionMerge(benchmark::State &state)
{
    const auto runs = static_cast<int>(state.range(0));
    util::Rng rng(5);
    std::vector<kv::PatchMeta> metas;
    for (int r = 0; r < runs; ++r) {
        std::vector<kv::KvItem> items;
        for (int i = 0; i < 64; ++i) {
            items.push_back(kv::KvItem{rng.NextBelow(100000), 100 * 1024,
                                       nullptr});
        }
        metas.push_back(kv::PatchMeta::Build(static_cast<uint64_t>(r),
                                             static_cast<uint64_t>(r), items,
                                             64ULL * 100 * 1024));
    }
    std::vector<const kv::PatchMeta *> inputs;
    for (const auto &m : metas) inputs.push_back(&m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kv::MergeEntries(inputs, 8 * 1024 * 1024));
    }
    state.SetItemsProcessed(state.iterations() * runs * 64);
}
BENCHMARK(BM_CompactionMerge)->Arg(4)->Arg(16);

/** sdfbench's ccdb_write_compaction stack: one SDF node, 16 slices. */
testbed::KvStack
CcdbStack(sim::Simulator &sim)
{
    testbed::KvStackConfig kc;
    kc.stack.capacity_scale = 0.10;
    kc.store.slice_count = 16;
    return testbed::BuildKvStack(sim, kc);
}

/** Keys in the ccdb preload: 4,096 4-KiB values per slice. */
constexpr uint64_t kPreloadKeys = 65536;

/**
 * Install 4 KiB values for keys 1..kPreloadKeys as sorted full patches
 * in their own slices, as ccdb_write_compaction's preload does.
 */
void
PreloadCcdb(kv::Store &store)
{
    const uint64_t per_patch = store.slice(0).patch_bytes() / (4 * 1024);
    std::vector<std::vector<kv::KvItem>> pending(store.slice_count());
    for (uint64_t key = 1; key <= kPreloadKeys; ++key) {
        const uint32_t s = store.SliceOf(key);
        pending[s].push_back(kv::KvItem{key, 4 * 1024, nullptr, false});
        if (pending[s].size() == per_patch) {
            SDF_CHECK(store.slice(s).DebugPreloadPatch(std::move(pending[s])));
            pending[s].clear();
        }
    }
    for (uint32_t s = 0; s < store.slice_count(); ++s) {
        if (!pending[s].empty())
            SDF_CHECK(store.slice(s).DebugPreloadPatch(std::move(pending[s])));
    }
}

void
BM_SlicePreload(benchmark::State &state)
{
    // The slices' DRAM cost per stored key: patch entries, the index and
    // the block layer's bookkeeping the preload adds, from the heap's
    // in-use bytes before and after it.
    double bytes_per_key = 0;
    for (auto _ : state) {
        state.PauseTiming();
        {
            sim::Simulator sim;
            testbed::KvStack stack = CcdbStack(sim);
            const size_t before = mallinfo2().uordblks;
            state.ResumeTiming();
            PreloadCcdb(*stack.store);
            benchmark::DoNotOptimize(
                stack.store->slice(0).total_indexed_keys());
            state.PauseTiming();
            bytes_per_key =
                static_cast<double>(mallinfo2().uordblks - before) /
                static_cast<double>(kPreloadKeys);
        }
        state.ResumeTiming();
    }
    state.counters["bytes_per_key"] = bytes_per_key;
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kPreloadKeys));
}
BENCHMARK(BM_SlicePreload)->Unit(benchmark::kMillisecond);

void
BM_SliceGet(benchmark::State &state)
{
    // Gets on one preloaded slice, 256 at a time. Arg 1: stored keys (an
    // index hit and one device read each); arg 0: keys the slice never
    // stored (the index's probe alone answers).
    const bool hits = state.range(0) != 0;
    sim::Simulator sim;
    testbed::KvStack stack = CcdbStack(sim);
    PreloadCcdb(*stack.store);
    kv::Store &store = *stack.store;
    std::vector<uint64_t> keys;
    const uint64_t first = hits ? 1 : kPreloadKeys + 1;
    for (uint64_t key = first; key < first + kPreloadKeys; ++key)
        if (store.SliceOf(key) == 0) keys.push_back(key);
    util::Rng rng(7);
    uint64_t found = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) {
            store.slice(0).Get(keys[rng.NextBelow(keys.size())],
                               [&found](const kv::GetResult &r) {
                                   found += r.found ? 1 : 0;
                               });
        }
        sim.Run();
    }
    benchmark::DoNotOptimize(found);
    const auto gets = static_cast<uint64_t>(state.iterations()) * 256;
    SDF_CHECK(found == (hits ? gets : 0));
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SliceGet)->Arg(1)->Arg(0);

void
BM_StripingSplit(benchmark::State &state)
{
    ftl::StripingLayout layout(44, 8192);
    util::Rng rng(6);
    for (auto _ : state) {
        const uint64_t off = rng.NextBelow(1ULL << 37) / 8192 * 8192;
        benchmark::DoNotOptimize(layout.Split(off, 512 * 1024));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StripingSplit);

}  // namespace
}  // namespace sdf

BENCHMARK_MAIN();
