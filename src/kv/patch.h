/**
 * @file
 * Patch metadata: the host-side description of one immutable 8 MB patch
 * (CCDB's SSTable analogue). Items are laid out key-sorted; all metadata
 * stays in DRAM so a Get costs exactly one device read (§2.4).
 */
#ifndef SDF_KV_PATCH_H
#define SDF_KV_PATCH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/types.h"

namespace sdf::kv {

/**
 * One record inside a patch. A patch is one 8 MB unit, so an offset fits
 * 32 bits and a size 31; the builders check both. At 24 bytes the entry
 * is the only DRAM copy of a stored key: the slice's index refers to it.
 */
struct PatchEntry
{
    uint64_t key = 0;
    uint64_t seq = 0;                  ///< Version: higher = newer.
    uint32_t offset = 0;               ///< Byte offset of the value.
    uint32_t value_size : 31 = 0;
    bool tombstone : 1 = false;        ///< Deletion marker.
};
static_assert(sizeof(PatchEntry) == 24);

/** Immutable, key-sorted description of one patch. */
class PatchMeta
{
  public:
    /**
     * Sort @p items by key in place, then lay them out from offset 0 and
     * stamp them with version @p seq: entry i describes items[i]. Total
     * item bytes must fit in @p patch_bytes.
     */
    static PatchMeta Build(uint64_t id, uint64_t seq,
                           std::vector<KvItem> &items, uint64_t patch_bytes);

    /** Build from pre-sorted entries (compaction output). */
    static PatchMeta FromEntries(uint64_t id, std::vector<PatchEntry> entries,
                                 uint64_t patch_bytes);

    uint64_t id() const { return id_; }
    const std::vector<PatchEntry> &entries() const { return entries_; }
    uint64_t data_bytes() const { return data_bytes_; }
    bool empty() const { return entries_.empty(); }
    uint64_t min_key() const { return entries_.front().key; }
    uint64_t max_key() const { return entries_.back().key; }

    /** Binary search for @p key; nullptr if absent. */
    const PatchEntry *Find(uint64_t key) const;

    /**
     * Assemble the patch's byte image from items carrying payloads
     * (integrity tests). @p items must be the same set passed to Build().
     */
    static std::vector<uint8_t> AssembleBuffer(const PatchMeta &meta,
                                               const std::vector<KvItem> &items,
                                               uint64_t patch_bytes);

  private:
    PatchMeta() = default;

    uint64_t id_ = 0;
    std::vector<PatchEntry> entries_;
    uint64_t data_bytes_ = 0;
};

/**
 * Merge-sort patch runs, newest version (highest seq) wins per key, and
 * repartition into output patches of at most @p patch_bytes each — the
 * compaction kernel.
 *
 * @param drop_tombstones When compacting into the bottom level there is
 *     nothing older left to shadow, so deletion markers are discarded.
 */
std::vector<std::vector<PatchEntry>>
MergeEntries(const std::vector<const PatchMeta *> &inputs,
             uint64_t patch_bytes, bool drop_tombstones = false);

}  // namespace sdf::kv

#endif  // SDF_KV_PATCH_H
