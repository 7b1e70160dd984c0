/**
 * @file
 * The multi-slice store and the table view built on it.
 *
 * Baidu's storage system presents Table, FS, and KV interfaces; internally
 * all three are key-value pairs hashed into slices (§2.4). Each slice is
 * an independent LSM tree hosted on one storage server.
 */
#ifndef SDF_KV_STORE_H
#define SDF_KV_STORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "util/fingerprint.h"

namespace sdf::kv {

/** Store construction options. */
struct StoreConfig
{
    uint32_t slice_count = 8;
    SliceConfig slice;
};

/** A storage node: a set of slices over one PatchStorage. */
class Store
{
  public:
    /**
     * @param journal Optional durable mirror shared with any predecessor
     *     incarnation of this store. When it holds state, construction is
     *     a restart: the ID allocator resumes above its high-water mark,
     *     on-device patches no footer references are reclaimed as
     *     orphans, and each slice rebuilds itself from its journal.
     */
    Store(sim::Simulator &sim, PatchStorage &storage,
          const StoreConfig &config, StoreJournal *journal = nullptr);

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    uint32_t slice_count() const { return static_cast<uint32_t>(slices_.size()); }
    Slice &slice(uint32_t i) { return *slices_[i]; }

    /** Slice owning @p key (hash sharding). */
    uint32_t
    SliceOf(uint64_t key) const
    {
        // Scramble so sequential keys spread over slices.
        uint64_t s = key;
        return static_cast<uint64_t>(util::SplitMix64(s)) % slices_.size();
    }

    void
    Put(uint64_t key, uint32_t value_size, PutCallback done,
        std::shared_ptr<std::vector<uint8_t>> payload = nullptr)
    {
        slice(SliceOf(key)).Put(key, value_size, std::move(done),
                                std::move(payload));
    }

    void
    Get(uint64_t key, GetCallback done)
    {
        slice(SliceOf(key)).Get(key, std::move(done));
    }

    /**
     * Range scan: up to @p limit live keys >= @p start_key, ascending,
     * merged across all slices (keys hash-scatter, so every slice can
     * contribute). The key set is resolved instantly from the DRAM
     * indexes — one consistent cut of the store — then each selected
     * value is charged its device read before @p done fires. An optional
     * @p filter (the cluster's ownership predicate) drops keys before
     * they count against the limit.
     */
    void Scan(uint64_t start_key, uint32_t limit, ScanCallback done,
              std::function<bool(uint64_t)> filter = nullptr);

    /** Aggregate statistics over all slices. */
    SliceStats TotalStats() const;

    /** Sever all slices from journal and storage (the process stopped). */
    void
    Detach()
    {
        for (auto &s : slices_) s->Detach();
    }

    /** All live keys (key -> value_size) across the slices. */
    void
    CollectLive(std::map<uint64_t, uint32_t> &out) const
    {
        for (const auto &s : slices_) s->CollectRange(0, SIZE_MAX, out);
    }

  private:
    sim::Simulator &sim_;
    std::vector<std::unique_ptr<Slice>> slices_;
    IdAllocator ids_;
};

/**
 * Table subsystem: the key is the index of a table row, the value the
 * remaining fields (§2.4). Used by the web-page repository (Figure 9).
 */
class TableView
{
  public:
    explicit TableView(Store &store, std::string table_name)
        : store_(store), table_tag_(util::Fingerprint(table_name)) {}

    /** Deterministic row key within this table's key space. */
    uint64_t
    RowKey(uint64_t row) const
    {
        uint64_t s = table_tag_ ^ row;
        return util::SplitMix64(s);
    }

    void
    PutRow(uint64_t row, uint32_t value_size, PutCallback done,
           std::shared_ptr<std::vector<uint8_t>> payload = nullptr)
    {
        store_.Put(RowKey(row), value_size, std::move(done),
                   std::move(payload));
    }

    void
    GetRow(uint64_t row, GetCallback done)
    {
        store_.Get(RowKey(row), std::move(done));
    }

  private:
    Store &store_;
    uint64_t table_tag_;
};

}  // namespace sdf::kv

#endif  // SDF_KV_STORE_H
