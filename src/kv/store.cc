#include "kv/store.h"

#include <memory>
#include <set>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

Store::Store(sim::Simulator &sim, PatchStorage &storage,
             const StoreConfig &config, StoreJournal *journal)
    : sim_(sim), ids_(journal ? journal->next_patch_id : 0)
{
    SDF_CHECK(config.slice_count > 0);
    if (journal) {
        if (journal->slices.empty()) journal->slices.resize(config.slice_count);
        SDF_CHECK_MSG(journal->slices.size() == config.slice_count,
                      "journal slice count mismatch");
        ids_.BindWatermark(&journal->next_patch_id);
        // Reconcile the device against the journal: stored patches no
        // footer references were in flight at the stop — reclaim them
        // before the slices rebuild.
        std::set<uint64_t> known;
        for (const SliceJournal &sj : journal->slices) {
            for (const auto &[id, footer] : sj.patches) known.insert(id);
        }
        for (uint64_t id : storage.StoredIds()) {
            if (!known.count(id)) storage.DeletePatch(id);
        }
    }
    slices_.reserve(config.slice_count);
    for (uint32_t i = 0; i < config.slice_count; ++i) {
        slices_.push_back(std::make_unique<Slice>(
            sim, storage, ids_, config.slice,
            journal ? &journal->slices[i] : nullptr));
    }
}

void
Store::Scan(uint64_t start_key, uint32_t limit, ScanCallback done,
            std::function<bool(uint64_t)> filter)
{
    // Resolve the key set synchronously — no simulated time passes, so the
    // result is one consistent cut of the store even with writes in
    // flight. Each slice trims the shared map to the union's `limit`
    // smallest, bounding the merge.
    std::map<uint64_t, uint32_t> merged;
    for (const auto &s : slices_)
        s->CollectRange(start_key, limit, merged, &filter);

    auto result = std::make_shared<ScanResult>();
    result->entries.reserve(merged.size());
    for (const auto &[key, value_size] : merged) {
        result->entries.push_back(ScanEntry{key, value_size});
        result->scanned_bytes += value_size;
    }
    if (result->entries.empty()) {
        sim_.Post([done = std::move(done), result]() { done(*result); });
        return;
    }
    // Charge every selected value its device read; complete on the last.
    auto remaining = std::make_shared<size_t>(result->entries.size());
    auto boxed = std::make_shared<ScanCallback>(std::move(done));
    for (const ScanEntry &e : result->entries) {
        slice(SliceOf(e.key))
            .ReadValue(e.key,
                       [result, remaining, boxed](const GetResult &r) {
                           if (!r.ok) {
                               result->ok = false;
                               result->status = WorseStatus(
                                   result->status, OpStatus::kError);
                           }
                           if (--*remaining == 0) (*boxed)(*result);
                       });
    }
}

SliceStats
Store::TotalStats() const
{
    SliceStats total;
    for (const auto &s : slices_) {
        const SliceStats &t = s->stats();
        total.puts += t.puts;
        total.gets += t.gets;
        total.gets_from_memtable += t.gets_from_memtable;
        total.gets_not_found += t.gets_not_found;
        total.flushes += t.flushes;
        total.failed_flushes += t.failed_flushes;
        total.compactions += t.compactions;
        total.compaction_bytes_read += t.compaction_bytes_read;
        total.compaction_bytes_written += t.compaction_bytes_written;
        total.put_stalls += t.put_stalls;
        total.get_retries += t.get_retries;
    }
    return total;
}

}  // namespace sdf::kv
