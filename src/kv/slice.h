/**
 * @file
 * A CCDB slice: one LSM tree serving a key range (§2.4).
 *
 * Writes accumulate in an in-memory container (mirrored to a log on a
 * separate device) and flush as immutable 8 MB patches. Patches undergo
 * multiple merge-sorts (tiered compaction) before settling into large
 * sorted runs. All item metadata stays in DRAM, so a Get that misses the
 * memtables costs exactly one storage read. Client requests take priority
 * over compaction-incurred I/O — on SDF; a conventional SSD cannot tell
 * the two apart, which is half the story of the paper's Figure 14.
 */
#ifndef SDF_KV_SLICE_H
#define SDF_KV_SLICE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/key_index.h"
#include "kv/memtable.h"
#include "kv/patch.h"
#include "kv/patch_storage.h"
#include "kv/recovery.h"
#include "kv/types.h"
#include "sim/simulator.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::kv {

using util::TimeNs;

/** Slice construction options. */
struct SliceConfig
{
    /** Runs in a level before they merge into the next (tiering factor). */
    uint32_t compaction_trigger = 4;
    /** Levels; the last level grows unboundedly. */
    uint32_t max_levels = 4;
    /** Keep real payloads end-to-end (integrity tests). */
    bool store_payloads = false;
};

/** Cumulative slice statistics. */
struct SliceStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t gets_from_memtable = 0;
    uint64_t gets_not_found = 0;
    uint64_t deletes = 0;
    uint64_t flushes = 0;
    /**
     * Flushes whose patch did not land (counted in flushes too). Not a
     * registered metric.
     */
    uint64_t failed_flushes = 0;
    uint64_t compactions = 0;
    uint64_t tombstones_dropped = 0;
    uint64_t compaction_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;
    uint64_t put_stalls = 0;
    uint64_t get_retries = 0;
};

/** One LSM-tree slice over a PatchStorage. */
class Slice
{
  public:
    /**
     * @param journal Optional durable mirror (WAL + patch footers). When
     *     it already holds state, the slice rebuilds its levels, index,
     *     and memtable from it before serving — the restart path.
     */
    Slice(sim::Simulator &sim, PatchStorage &storage, IdAllocator &ids,
          const SliceConfig &config, SliceJournal *journal = nullptr);
    ~Slice();

    Slice(const Slice &) = delete;
    Slice &operator=(const Slice &) = delete;

    /**
     * Store @p key with a value of @p value_size bytes. Acknowledged after
     * the log append; stalls (queues) when a memtable flush is backed up.
     */
    void Put(uint64_t key, uint32_t value_size, PutCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload = nullptr);

    /**
     * Delete @p key: writes a tombstone that shadows older versions until
     * a bottom-level compaction discards it.
     */
    void Delete(uint64_t key, PutCallback done);

    /** Look up @p key: memtables first, then one storage read. */
    void Get(uint64_t key, GetCallback done);

    /** IDs of every on-storage patch, oldest level first (for scans). */
    std::vector<uint64_t> AllPatchIds() const;

    /**
     * Read patch @p id fully at client priority (index-building scans,
     * Figure 13). @p done receives storage success.
     */
    void ReadPatchFully(uint64_t id, PatchCallback done,
                        std::vector<uint8_t> *out = nullptr);

    /** Force the current memtable out as a patch (test hook). */
    void Flush();

    /**
     * Instantly install a sorted patch holding @p items (timing-only;
     * requires payload mode off). Used to preload slices with data before
     * read experiments, as the paper's production measurements assume.
     * @return false when the underlying storage is full.
     */
    bool DebugPreloadPatch(std::vector<KvItem> items);

    /**
     * Sever this slice from its journal and storage: the owning process
     * has stopped. In-flight flush/compaction callbacks become no-ops —
     * in particular a zombie compaction may no longer delete patches a
     * recovered successor store now indexes.
     */
    void Detach();

    /**
     * Merge this slice's live keys >= @p start_key (newest version wins,
     * tombstones excluded) into @p out as key -> value_size, then trim
     * @p out to its @p limit smallest keys. @p out may already hold other
     * slices' results — the trim bounds the union. An optional @p filter
     * (ownership predicate shipped in a scan RPC) drops keys before they
     * count against the limit. Drives scans, rebalancing and
     * anti-entropy. Metadata-only: the DRAM index answers range queries
     * without device reads; the value reads are charged separately via
     * ReadValue.
     */
    void CollectRange(uint64_t start_key, size_t limit,
                      std::map<uint64_t, uint32_t> &out,
                      const std::function<bool(uint64_t)> *filter =
                          nullptr) const;

    /**
     * Charge the device read a scan pays for @p key's value: free when the
     * value is memtable-resident, one client-priority storage read when it
     * lives in a patch. Completion mirrors Get's result shape but does not
     * count as a get in the slice stats.
     */
    void ReadValue(uint64_t key, GetCallback done);

    /** Size of the patches this slice writes (the 8 MB unit). */
    uint64_t patch_bytes() const { return storage_.patch_bytes(); }

    const SliceStats &stats() const { return stats_; }
    size_t patch_count() const;
    uint64_t total_indexed_keys() const { return index_.size(); }

  private:
    void AddPut(KvItem item, PutCallback done);
    void PutItem(KvItem item, PutCallback done);
    void RecoverFromJournal();
    void StartFlush();
    void FinishFlush(bool ok, std::shared_ptr<PatchMeta> meta);
    void MaybeStartCompaction();
    void CompactionReadNext();
    void CompactionMergeAndWrite();
    void CompactionWriteNext();
    void FinishCompaction();
    void UpdateIndex(const PatchMeta &meta);
    /** The flushing memtable's item for @p key, or nullptr. */
    const KvItem *FindFlushing(uint64_t key) const;
    void DoStorageGet(uint64_t key, GetCallback done, int attempts);

    sim::Simulator &sim_;
    PatchStorage &storage_;
    IdAllocator &ids_;
    SliceConfig config_;
    SliceJournal *journal_ = nullptr;
    /** WAL records covered by the in-flight flush (truncated on success). */
    size_t wal_mark_ = 0;
    bool detached_ = false;

    MemTable mem_;
    /** Items being flushed, key-sorted (the flushing patch's order). */
    std::vector<KvItem> imm_items_;
    bool flush_active_ = false;
    std::deque<std::pair<KvItem, PutCallback>> stalled_puts_;

    uint64_t next_seq_ = 1;
    /** levels_[0] = freshest runs; each run is one patch. */
    std::vector<std::vector<std::shared_ptr<PatchMeta>>> levels_;
    /**
     * Every stored key's newest version. A deletion marker stays indexed
     * (rather than erasing the key) so an in-flight compaction
     * re-registering an older version cannot resurrect the key; it goes
     * when a bottom-level compaction discards the marker itself. Every
     * slot refers to a patch that levels_ or the running compaction holds.
     */
    KeyIndex index_;
    /** Patch byte images, kept only in payload mode. */
    std::unordered_map<uint64_t, std::shared_ptr<std::vector<uint8_t>>>
        patch_images_;

    // ---- compaction job state --------------------------------------------
    bool compaction_active_ = false;
    uint32_t compaction_level_ = 0;
    std::vector<std::shared_ptr<PatchMeta>> compaction_inputs_;
    size_t compaction_read_next_ = 0;
    uint32_t compaction_io_inflight_ = 0;
    std::vector<std::shared_ptr<std::vector<uint8_t>>> compaction_buffers_;
    std::vector<std::shared_ptr<PatchMeta>> compaction_outputs_;
    std::vector<std::shared_ptr<std::vector<uint8_t>>> compaction_out_bufs_;
    size_t compaction_write_next_ = 0;
    bool compaction_dropped_tombstones_ = false;

    SliceStats stats_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
};

}  // namespace sdf::kv

#endif  // SDF_KV_SLICE_H
