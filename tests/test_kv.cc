/**
 * @file
 * Unit tests for CCDB: memtable, patch metadata, the compaction merge
 * kernel, slice put/get/flush/compaction behaviour, and the table view.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_layer.h"
#include "kv/key_index.h"
#include "kv/memtable.h"
#include "kv/patch.h"
#include "kv/slice.h"
#include "kv/store.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace sdf::kv {
namespace {

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

TEST(MemTable, AddLookupAndByteAccounting)
{
    MemTable mt(1000);
    mt.Add(KvItem{1, 100, nullptr});
    mt.Add(KvItem{2, 200, nullptr});
    EXPECT_EQ(mt.bytes(), 300u);
    EXPECT_EQ(mt.count(), 2u);
    ASSERT_NE(mt.Lookup(1), nullptr);
    EXPECT_EQ(mt.Lookup(1)->value_size, 100u);
    EXPECT_EQ(mt.Lookup(3), nullptr);
}

TEST(MemTable, ReplacementAdjustsBytes)
{
    MemTable mt(1000);
    mt.Add(KvItem{1, 100, nullptr});
    mt.Add(KvItem{1, 300, nullptr});
    EXPECT_EQ(mt.bytes(), 300u);
    EXPECT_EQ(mt.count(), 1u);
    EXPECT_EQ(mt.Lookup(1)->value_size, 300u);
}

TEST(MemTable, OverflowDetection)
{
    MemTable mt(500);
    mt.Add(KvItem{1, 400, nullptr});
    EXPECT_FALSE(mt.WouldOverflow(100));
    EXPECT_TRUE(mt.WouldOverflow(101));
}

TEST(MemTable, TakeAllResets)
{
    MemTable mt(1000);
    mt.Add(KvItem{1, 10, nullptr});
    mt.Add(KvItem{2, 20, nullptr});
    const auto items = mt.TakeAll();
    EXPECT_EQ(items.size(), 2u);
    EXPECT_TRUE(mt.empty());
    EXPECT_EQ(mt.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// PatchMeta and the merge kernel
// ---------------------------------------------------------------------------

TEST(PatchMeta, BuildSortsAndAssignsOffsets)
{
    std::vector<KvItem> items{{30, 100, nullptr}, {10, 50, nullptr},
                              {20, 25, nullptr}};
    const auto meta = PatchMeta::Build(1, 1, items, 8 * util::kMiB);
    ASSERT_EQ(meta.entries().size(), 3u);
    EXPECT_EQ(meta.entries()[0].key, 10u);
    EXPECT_EQ(meta.entries()[0].offset, 0u);
    EXPECT_EQ(meta.entries()[1].key, 20u);
    EXPECT_EQ(meta.entries()[1].offset, 50u);
    EXPECT_EQ(meta.entries()[2].key, 30u);
    EXPECT_EQ(meta.entries()[2].offset, 75u);
    EXPECT_EQ(meta.data_bytes(), 175u);
    EXPECT_EQ(meta.min_key(), 10u);
    EXPECT_EQ(meta.max_key(), 30u);
}

TEST(PatchMeta, FindBinarySearches)
{
    std::vector<KvItem> items;
    for (uint64_t k = 0; k < 100; k += 2) items.push_back({k, 10, nullptr});
    const auto meta = PatchMeta::Build(1, 1, items, 8 * util::kMiB);
    ASSERT_NE(meta.Find(42), nullptr);
    EXPECT_EQ(meta.Find(42)->key, 42u);
    EXPECT_EQ(meta.Find(43), nullptr);
    EXPECT_EQ(meta.Find(1000), nullptr);
}

TEST(MergeEntries, NewestVersionWins)
{
    std::vector<KvItem> old_items{{5, 10, nullptr}, {6, 10, nullptr}};
    std::vector<KvItem> new_items{{5, 30, nullptr}};
    const auto old_patch = PatchMeta::Build(1, 1, old_items, 1 << 20);
    const auto new_patch = PatchMeta::Build(2, 2, new_items, 1 << 20);
    const auto parts = MergeEntries({&old_patch, &new_patch}, 1 << 20);
    ASSERT_EQ(parts.size(), 1u);
    ASSERT_EQ(parts[0].size(), 2u);
    EXPECT_EQ(parts[0][0].key, 5u);
    EXPECT_EQ(parts[0][0].value_size, 30u);  // seq 2 wins.
    EXPECT_EQ(parts[0][1].key, 6u);
}

TEST(MergeEntries, PartitionsAtPatchBoundary)
{
    std::vector<KvItem> items;
    for (uint64_t k = 0; k < 10; ++k) items.push_back({k, 400, nullptr});
    const auto meta = PatchMeta::Build(1, 1, items, 1 << 20);
    // Patch budget of 1000 bytes: two 400-byte values per output.
    const auto parts = MergeEntries({&meta}, 1000);
    EXPECT_EQ(parts.size(), 5u);
    for (const auto &p : parts) EXPECT_EQ(p.size(), 2u);
}

TEST(MergeEntries, OutputStaysSorted)
{
    std::vector<KvItem> a_items{{9, 1, nullptr}, {3, 1, nullptr}};
    std::vector<KvItem> b_items{{5, 1, nullptr}, {1, 1, nullptr}};
    const auto a = PatchMeta::Build(1, 1, a_items, 1 << 20);
    const auto b = PatchMeta::Build(2, 2, b_items, 1 << 20);
    const auto parts = MergeEntries({&a, &b}, 1 << 20);
    ASSERT_EQ(parts.size(), 1u);
    uint64_t prev = 0;
    for (const auto &e : parts[0]) {
        EXPECT_GT(e.key, prev);
        prev = e.key;
    }
}

// ---------------------------------------------------------------------------
// KeyIndex against std::unordered_map
// ---------------------------------------------------------------------------

/** Patches the index refers into, kept alive for the whole test. */
class PatchPool
{
  public:
    /** A patch of @p keys (distinct), all at version @p seq. */
    const PatchMeta &
    Make(const std::vector<uint64_t> &keys, uint64_t seq, bool tombstone)
    {
        std::vector<PatchEntry> entries;
        for (uint64_t key : keys) {
            PatchEntry e;
            e.key = key;
            e.seq = seq;
            e.value_size = tombstone ? 0 : static_cast<uint32_t>(seq);
            e.tombstone = tombstone;
            entries.push_back(e);
        }
        std::sort(entries.begin(), entries.end(),
                  [](const PatchEntry &a, const PatchEntry &b) {
                      return a.key < b.key;
                  });
        patches_.push_back(std::make_unique<PatchMeta>(PatchMeta::FromEntries(
            patches_.size(), std::move(entries), 1 << 30)));
        return *patches_.back();
    }

  private:
    std::vector<std::unique_ptr<PatchMeta>> patches_;
};

TEST(KeyIndex, NewestSeqWinsAndEqualSeqOverwrites)
{
    PatchPool pool;
    KeyIndex index;
    const PatchMeta &v5 = pool.Make({7}, 5, false);
    const PatchMeta &v3 = pool.Make({7}, 3, false);
    const PatchMeta &v5_copy = pool.Make({7}, 5, false);
    const PatchMeta &dead = pool.Make({7}, 9, true);
    index.Upsert(v5, 0);
    index.Upsert(v3, 0);  // Older: ignored.
    ASSERT_NE(index.Find(7), nullptr);
    EXPECT_EQ(index.Find(7)->patch, &v5);
    index.Upsert(v5_copy, 0);  // Equal: a compaction output re-points it.
    EXPECT_EQ(index.Find(7)->patch, &v5_copy);
    index.Upsert(dead, 0);  // A newer tombstone stays indexed.
    EXPECT_TRUE(index.Find(7)->entry().tombstone);
    EXPECT_EQ(index.size(), 1u);
    index.Erase(7);
    EXPECT_EQ(index.Find(7), nullptr);
    EXPECT_EQ(index.size(), 0u);
    index.Erase(7);  // Absent: no-op.
    EXPECT_EQ(index.size(), 0u);
}

/**
 * Random upserts (higher, equal and lower versions, several keys per
 * patch), erases and growth over @p keys, checked against a reference
 * map after every operation. @p max_capacity gets the largest capacity
 * the table had.
 */
void
CrossCheckIndex(const std::vector<uint64_t> &keys, uint64_t seed, int ops,
                size_t &max_capacity)
{
    PatchPool pool;
    KeyIndex index;
    std::unordered_map<uint64_t, EntryRef> reference;
    util::Rng rng(seed);
    max_capacity = 0;
    for (int op = 0; op < ops; ++op) {
        if (rng.NextBelow(4) == 0) {
            const uint64_t key = keys[rng.NextBelow(keys.size())];
            index.Erase(key);
            reference.erase(key);
        } else {
            std::vector<uint64_t> batch;
            const uint64_t n = 1 + rng.NextBelow(4);
            for (uint64_t i = 0; i < n; ++i) {
                const uint64_t key = keys[rng.NextBelow(keys.size())];
                if (std::find(batch.begin(), batch.end(), key) == batch.end())
                    batch.push_back(key);
            }
            const uint64_t seq = 1 + rng.NextBelow(40);
            const PatchMeta &patch =
                pool.Make(batch, seq, rng.NextBelow(5) == 0);
            for (uint32_t i = 0; i < patch.entries().size(); ++i) {
                index.Upsert(patch, i);
                const uint64_t key = patch.entries()[i].key;
                auto it = reference.find(key);
                if (it == reference.end() ||
                    seq >= it->second.entry().seq) {
                    reference[key] = EntryRef{&patch, i};
                }
            }
        }
        max_capacity = std::max(max_capacity, index.capacity());
        ASSERT_EQ(index.size(), reference.size()) << "op " << op;
        ASSERT_LE(index.size() * 4, index.capacity() * 3);
        for (uint64_t key : keys) {
            const EntryRef *got = index.Find(key);
            auto want = reference.find(key);
            if (want == reference.end()) {
                ASSERT_EQ(got, nullptr) << "op " << op << " key " << key;
            } else {
                ASSERT_NE(got, nullptr) << "op " << op << " key " << key;
                ASSERT_EQ(got->patch, want->second.patch);
                ASSERT_EQ(got->ordinal, want->second.ordinal);
            }
        }
        size_t visited = 0;
        index.ForEach([&](const EntryRef &ref) {
            ++visited;
            auto want = reference.find(ref.entry().key);
            ASSERT_NE(want, reference.end());
            EXPECT_EQ(ref.patch, want->second.patch);
        });
        EXPECT_EQ(visited, reference.size());
    }
}

TEST(KeyIndex, CollidingKeysAtSmallCapacityMatchReference)
{
    // Twelve multiples of 2^20 fill a 16-slot table to 3/4, so probe
    // runs wrap and backward-shift erase moves entries.
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; k <= 12; ++k) keys.push_back(k << 20);
    size_t max_capacity = 0;
    CrossCheckIndex(keys, 1, 4000, max_capacity);
    EXPECT_EQ(max_capacity, 16u);
}

TEST(KeyIndex, RandomKeysThroughGrowthMatchReference)
{
    util::Rng rng(2);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 600; ++i) keys.push_back(rng.Next());
    size_t max_capacity = 0;
    CrossCheckIndex(keys, 3, 1500, max_capacity);
    EXPECT_GE(max_capacity, 512u);
}

TEST(KeyIndex, KeysSharingOneTagMatchReference)
{
    // The hash multiplies by 0x9E3779B97F4A7C15, whose inverse mod 2^64
    // is kInverse, so k + i * kInverse hashes to k's hash + i. With k's
    // hash at tag << 32 all forty keys carry that tag and one home: every
    // probe has to confirm by key, and growth and backward-shift erase
    // move slots whose tags are all equal.
    constexpr uint64_t kInverse = 0xF1DE83E19937733DULL;
    constexpr uint32_t kTag = 0x5EED;
    const uint64_t base = (uint64_t{kTag} << 32) * kInverse;
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 40; ++i) {
        keys.push_back(base + i * kInverse);
        ASSERT_EQ(KeyIndex::Tag(keys.back()), kTag);
    }
    size_t max_capacity = 0;
    CrossCheckIndex(keys, 4, 1500, max_capacity);
    EXPECT_GE(max_capacity, 64u);
}

// ---------------------------------------------------------------------------
// Slice on SDF-backed storage
// ---------------------------------------------------------------------------

struct SliceFixture
{
    sim::Simulator sim;
    core::SdfDevice device;
    blocklayer::BlockLayer layer;
    BlockPatchStorage storage;
    IdAllocator ids;
    std::unique_ptr<Slice> slice;

    explicit SliceFixture(SliceConfig cfg = {}, bool payloads = false,
                          double scale = 0.02)
        : device(sim, MakeConfig(payloads, scale)),
          layer(sim, device, {}),
          storage(layer)
    {
        slice = std::make_unique<Slice>(sim, storage, ids, cfg);
    }

    static core::SdfConfig
    MakeConfig(bool payloads, double scale)
    {
        core::SdfConfig c = core::BaiduSdfConfig(scale);
        c.flash.timing = nand::FastTestTiming();
        c.flash.store_payloads = payloads;
        return c;
    }
};

TEST(Slice, GetFromMemtableBeforeFlush)
{
    SliceFixture f;
    bool put_ok = false;
    f.slice->Put(42, 1000, [&](bool ok) { put_ok = ok; });
    f.sim.Run();
    EXPECT_TRUE(put_ok);

    GetResult result;
    f.slice->Get(42, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.value_size, 1000u);
    EXPECT_EQ(f.slice->stats().gets_from_memtable, 1u);
}

TEST(Slice, WalReplayAddsNoEvents)
{
    // Replayed records were acked before the stop: re-appending them
    // raises the clock's horizon but schedules no ack event.
    SliceFixture f;
    SliceJournal journal;
    for (uint64_t key = 0; key < 1000; ++key)
        journal.wal.push_back(WalRecord{key, 1000, false, nullptr});
    Slice restarted(f.sim, f.storage, f.ids, SliceConfig{}, &journal);
    EXPECT_EQ(f.sim.PendingEvents(), 0u);
    EXPECT_EQ(journal.wal.size(), 1000u);
    f.sim.Run();
    EXPECT_EQ(f.sim.Now(), util::UsToNs(100));  // The log append's end.

    GetResult result;
    restarted.Get(999, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.value_size, 1000u);
}

TEST(Slice, MissingKeyNotFound)
{
    SliceFixture f;
    GetResult result;
    result.found = true;
    f.slice->Get(7, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_FALSE(result.found);
    EXPECT_TRUE(result.ok);
}

TEST(Slice, FlushMovesDataToStorage)
{
    SliceFixture f;
    for (uint64_t k = 0; k < 10; ++k) f.slice->Put(k, 100 * 1024, nullptr);
    f.sim.Run();
    f.slice->Flush();
    f.sim.Run();
    EXPECT_EQ(f.slice->stats().flushes, 1u);
    EXPECT_EQ(f.slice->patch_count(), 1u);

    // Served from storage now, not the memtable.
    GetResult result;
    f.slice->Get(5, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.value_size, 100u * 1024);
    EXPECT_EQ(f.slice->stats().gets_from_memtable, 0u);
}

TEST(Slice, AutomaticFlushWhenMemtableFills)
{
    SliceFixture f;
    // 9 x 1 MB values exceed the 8 MB container: one automatic flush.
    for (uint64_t k = 0; k < 9; ++k) {
        f.slice->Put(k, util::kMiB, nullptr);
    }
    f.sim.Run();
    EXPECT_EQ(f.slice->stats().flushes, 1u);
}

TEST(Slice, OversizeValueRejected)
{
    SliceFixture f;
    bool ok = true;
    f.slice->Put(1, 9 * util::kMiB, [&](bool s) { ok = s; });
    f.sim.Run();
    EXPECT_FALSE(ok);
}

TEST(Slice, CompactionMergesLevelZero)
{
    SliceConfig cfg;
    cfg.compaction_trigger = 3;
    SliceFixture f(cfg);
    // Three flushes of overlapping keys trigger one compaction.
    for (int flush = 0; flush < 3; ++flush) {
        for (uint64_t k = 0; k < 8; ++k) {
            f.slice->Put(k, 900 * 1024, nullptr);
        }
        f.slice->Flush();
        f.sim.Run();
    }
    f.sim.Run();
    EXPECT_EQ(f.slice->stats().compactions, 1u);
    EXPECT_GT(f.slice->stats().compaction_bytes_read, 0u);
    EXPECT_GT(f.slice->stats().compaction_bytes_written, 0u);
    // Deduplicated: 8 distinct keys remain indexed.
    EXPECT_EQ(f.slice->total_indexed_keys(), 8u);

    // Keys still readable after their patches moved.
    GetResult result;
    f.slice->Get(3, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
}

TEST(Slice, PutStallsWhenFlushBackedUp)
{
    SliceConfig cfg;
    SliceFixture f(cfg);
    // Two memtables' worth issued back-to-back: the second flush cannot
    // start until the first finishes, so some puts stall.
    for (uint64_t k = 0; k < 40; ++k) {
        f.slice->Put(k, util::kMiB, nullptr);
    }
    f.sim.Run();
    EXPECT_GT(f.slice->stats().put_stalls, 0u);
    EXPECT_GE(f.slice->stats().flushes, 2u);
}

TEST(Slice, PreloadedPatchesServeGets)
{
    SliceFixture f;
    std::vector<KvItem> items;
    for (uint64_t k = 100; k < 120; ++k) items.push_back({k, 4096, nullptr});
    ASSERT_TRUE(f.slice->DebugPreloadPatch(std::move(items)));
    EXPECT_EQ(f.sim.Now(), 0);

    GetResult result;
    f.slice->Get(110, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.value_size, 4096u);
}

TEST(Slice, SortedAndShuffledPreloadsInstallTheSame)
{
    // Build skips the sort of a run that is already in key order; the
    // same items out of order must give the same patch and the same gets.
    util::Rng rng(9);
    std::vector<KvItem> sorted;
    for (uint64_t k = 0; k < 300; ++k) {
        sorted.push_back({1000 + 7 * k,
                          static_cast<uint32_t>(512 + rng.NextBelow(8192)),
                          nullptr, k % 50 == 3});
    }
    std::vector<KvItem> shuffled = sorted;
    for (size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.NextBelow(i + 1)]);
    auto by_key = [](const KvItem &a, const KvItem &b) {
        return a.key < b.key;
    };
    ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(), by_key));

    std::vector<KvItem> a = sorted, b = shuffled;
    const auto from_sorted = PatchMeta::Build(1, 4, a, 8 * util::kMiB);
    const auto from_shuffled = PatchMeta::Build(1, 4, b, 8 * util::kMiB);
    ASSERT_EQ(from_sorted.entries().size(), from_shuffled.entries().size());
    for (size_t i = 0; i < from_sorted.entries().size(); ++i) {
        const PatchEntry &x = from_sorted.entries()[i];
        const PatchEntry &y = from_shuffled.entries()[i];
        EXPECT_EQ(x.key, y.key) << i;
        EXPECT_EQ(x.seq, y.seq) << i;
        EXPECT_EQ(x.offset, y.offset) << i;
        EXPECT_EQ(x.value_size, y.value_size) << i;
        EXPECT_EQ(x.tombstone, y.tombstone) << i;
    }
    EXPECT_EQ(from_sorted.data_bytes(), from_shuffled.data_bytes());

    SliceFixture fs, fh;
    ASSERT_TRUE(fs.slice->DebugPreloadPatch(sorted));
    ASSERT_TRUE(fh.slice->DebugPreloadPatch(shuffled));
    EXPECT_EQ(fs.slice->total_indexed_keys(), sorted.size());
    EXPECT_EQ(fh.slice->total_indexed_keys(), sorted.size());
    for (uint64_t key = 990; key < 1000 + 7 * 300; key += 3) {
        GetResult rs, rh;
        fs.slice->Get(key, [&](const GetResult &r) { rs = r; });
        fh.slice->Get(key, [&](const GetResult &r) { rh = r; });
        fs.sim.Run();
        fh.sim.Run();
        EXPECT_EQ(rs.found, rh.found) << key;
        EXPECT_EQ(rs.value_size, rh.value_size) << key;
        EXPECT_EQ(fs.sim.Now(), fh.sim.Now()) << key;
    }
}

TEST(Slice, ScanSeesAllPatches)
{
    SliceFixture f;
    for (int p = 0; p < 3; ++p) {
        std::vector<KvItem> items;
        for (uint64_t k = 0; k < 5; ++k)
            items.push_back({uint64_t(p) * 100 + k, 4096, nullptr});
        ASSERT_TRUE(f.slice->DebugPreloadPatch(std::move(items)));
    }
    EXPECT_EQ(f.slice->AllPatchIds().size(), 3u);

    bool ok = false;
    f.slice->ReadPatchFully(f.slice->AllPatchIds()[0],
                            [&](bool s) { ok = s; });
    f.sim.Run();
    EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// Payload integrity through flush, read, and compaction
// ---------------------------------------------------------------------------

TEST(Slice, PayloadsSurviveFlushAndCompaction)
{
    SliceConfig cfg;
    cfg.store_payloads = true;
    cfg.compaction_trigger = 2;
    SliceFixture f(cfg, /*payloads=*/true);

    auto value = [](uint64_t k, int gen) {
        return std::make_shared<std::vector<uint8_t>>(
            util::MakeDeterministicPayload(64 * 1024, k * 1000 + gen));
    };

    // Two flushes with one overlapping key -> compaction.
    for (uint64_t k = 0; k < 4; ++k) {
        f.slice->Put(k, 64 * 1024, nullptr, value(k, 1));
    }
    f.slice->Flush();
    f.sim.Run();
    for (uint64_t k = 2; k < 6; ++k) {
        f.slice->Put(k, 64 * 1024, nullptr, value(k, 2));
    }
    f.slice->Flush();
    f.sim.Run();
    EXPECT_EQ(f.slice->stats().compactions, 1u);

    // Keys 0-1 from gen 1; 2-5 from gen 2.
    for (uint64_t k = 0; k < 6; ++k) {
        GetResult result;
        f.slice->Get(k, [&](const GetResult &r) { result = r; });
        f.sim.Run();
        ASSERT_TRUE(result.found) << "key " << k;
        ASSERT_TRUE(result.payload != nullptr);
        const int gen = k < 2 ? 1 : 2;
        EXPECT_EQ(*result.payload, *value(k, gen)) << "key " << k;
    }
}

// ---------------------------------------------------------------------------
// Store and facades
// ---------------------------------------------------------------------------

struct StoreFixture
{
    sim::Simulator sim;
    core::SdfDevice device;
    blocklayer::BlockLayer layer;
    BlockPatchStorage storage;
    Store store;

    StoreFixture()
        : device(sim, SliceFixture::MakeConfig(false, 0.02)),
          layer(sim, device, {}),
          storage(layer),
          store(sim, storage, StoreConfig{4, SliceConfig{}})
    {
    }
};

TEST(Store, ShardsKeysAcrossSlices)
{
    StoreFixture f;
    std::vector<int> hits(4, 0);
    for (uint64_t k = 0; k < 1000; ++k) ++hits[f.store.SliceOf(k)];
    for (int h : hits) EXPECT_GT(h, 150);
}

TEST(Store, PutGetThroughSharding)
{
    StoreFixture f;
    for (uint64_t k = 0; k < 20; ++k) f.store.Put(k, 1024, nullptr);
    f.sim.Run();
    int found = 0;
    for (uint64_t k = 0; k < 20; ++k) {
        f.store.Get(k, [&](const GetResult &r) {
            if (r.found) ++found;
        });
    }
    f.sim.Run();
    EXPECT_EQ(found, 20);
    EXPECT_EQ(f.store.TotalStats().puts, 20u);
}

// ---------------------------------------------------------------------------
// Store::Scan — ordered iteration across every key location: flushed
// patches, WAL/memtable-resident keys, and tombstones.
// ---------------------------------------------------------------------------

/** Collect a Scan's keys synchronously. */
std::vector<uint64_t>
ScanKeys(StoreFixture &f, uint64_t start, uint32_t limit, bool *ok = nullptr)
{
    std::vector<uint64_t> got;
    bool done_ok = false;
    f.store.Scan(start, limit, [&](const ScanResult &r) {
        done_ok = r.ok;
        for (const ScanEntry &e : r.entries) got.push_back(e.key);
    });
    f.sim.Run();
    if (ok != nullptr) *ok = done_ok;
    return got;
}

TEST(Store, ScanMergesFlushedAndMemResidentKeys)
{
    StoreFixture f;
    // Odd keys flushed to patches; even keys stay WAL/memtable-resident.
    for (uint64_t k = 1; k <= 40; k += 2) f.store.Put(k, 1024, nullptr);
    f.sim.Run();
    for (uint32_t s = 0; s < f.store.slice_count(); ++s) {
        f.store.slice(s).Flush();
    }
    f.sim.Run();
    for (uint64_t k = 2; k <= 40; k += 2) f.store.Put(k, 1024, nullptr);
    f.sim.Run();

    // The merged cut sees both locations, in order, with no duplicates.
    const auto all = ScanKeys(f, 1, 100);
    ASSERT_EQ(all.size(), 40u);
    for (uint64_t i = 0; i < 40; ++i) EXPECT_EQ(all[i], i + 1);

    // A bounded window from the middle: exactly limit keys, ascending.
    const auto window = ScanKeys(f, 15, 10);
    ASSERT_EQ(window.size(), 10u);
    for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(window[i], 15 + i);
}

TEST(Store, ScanSkipsTombstonesAndBackfillsTheWindow)
{
    StoreFixture f;
    for (uint64_t k = 1; k <= 30; ++k) f.store.Put(k, 1024, nullptr);
    f.sim.Run();
    for (uint32_t s = 0; s < f.store.slice_count(); ++s) {
        f.store.slice(s).Flush();
    }
    f.sim.Run();
    // Tombstone flushed keys 5 and 6 (delete lands in the memtable and
    // must shadow the patch versions) and mem-resident key 25 pre-flush.
    int deleted = 0;
    for (uint64_t k : {uint64_t{5}, uint64_t{6}}) {
        f.store.slice(f.store.SliceOf(k)).Delete(
            k, [&deleted](bool ok) { deleted += ok; });
    }
    f.store.Put(25, 2048, nullptr);  // Overwrite: newest version wins.
    f.sim.Run();
    ASSERT_EQ(deleted, 2);

    // Deleted keys vanish and the window backfills to the full limit
    // with their successors.
    const auto got = ScanKeys(f, 1, 10);
    const std::vector<uint64_t> want = {1, 2, 3, 4, 7, 8, 9, 10, 11, 12};
    EXPECT_EQ(got, want);

    // The overwritten key reports its newest size.
    bool ok = false;
    uint32_t size25 = 0;
    f.store.Scan(25, 1, [&](const ScanResult &r) {
        ok = r.ok;
        ASSERT_EQ(r.entries.size(), 1u);
        size25 = r.entries[0].value_size;
    });
    f.sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(size25, 2048u);
}

TEST(Store, ScanTombstoneDeletedThenReinsertedKeyReappears)
{
    StoreFixture f;
    for (uint64_t k = 1; k <= 10; ++k) f.store.Put(k, 1024, nullptr);
    f.sim.Run();
    auto del = [&f](uint64_t k) {
        f.store.slice(f.store.SliceOf(k)).Delete(k, nullptr);
    };
    del(4);
    f.sim.Run();
    EXPECT_EQ(ScanKeys(f, 1, 10),
              (std::vector<uint64_t>{1, 2, 3, 5, 6, 7, 8, 9, 10}));

    f.store.Put(4, 512, nullptr);  // Reinsert over the tombstone.
    f.sim.Run();
    const auto got = ScanKeys(f, 1, 10);
    ASSERT_EQ(got.size(), 10u);
    EXPECT_EQ(got[3], 4u);
}

TEST(Store, ScanChargesDeviceReadsForFlushedValues)
{
    StoreFixture f;
    for (uint64_t k = 1; k <= 16; ++k) f.store.Put(k, 4096, nullptr);
    f.sim.Run();
    for (uint32_t s = 0; s < f.store.slice_count(); ++s) {
        f.store.slice(s).Flush();
    }
    f.sim.Run();

    const util::TimeNs t0 = f.sim.Now();
    uint64_t bytes = 0;
    bool ok = false;
    f.store.Scan(1, 16, [&](const ScanResult &r) {
        ok = r.ok;
        bytes = r.scanned_bytes;
    });
    f.sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(bytes, 16u * 4096u);
    // Flushed values come off the device: simulated time must pass.
    EXPECT_GT(f.sim.Now(), t0);
}

TEST(TableView, RowsRoundTrip)
{
    StoreFixture f;
    TableView table(f.store, "webpages");
    table.PutRow(123, 2048, nullptr);
    f.sim.Run();
    GetResult result;
    table.GetRow(123, [&](const GetResult &r) { result = r; });
    f.sim.Run();
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.value_size, 2048u);

    // A different table does not see the row.
    TableView other(f.store, "images");
    GetResult miss;
    miss.found = true;
    other.GetRow(123, [&](const GetResult &r) { miss = r; });
    f.sim.Run();
    EXPECT_FALSE(miss.found);
}

}  // namespace
}  // namespace sdf::kv
