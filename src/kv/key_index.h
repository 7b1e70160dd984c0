/**
 * @file
 * A slice's DRAM index (§2.4): for every key stored in the slice's
 * patches, where its newest version lives.
 *
 * The index holds no copy of a key or its location. A slot refers to the
 * newest version's PatchEntry by its patch and ordinal, and the key,
 * offset, size, version and tombstone bit are read from that entry, so a
 * stored key costs one 24-byte entry plus one 16-byte slot. The table is
 * open-addressed with linear probing, a power-of-two capacity, a load of
 * at most 3/4 and backward-shift erase (no tombstone slots).
 *
 * A slot also keeps its key's tag, the top 32 bits of the key's
 * Fibonacci hash, in what would be padding. A home slot is the tag's top
 * bits, so growth and erase move slots without reading an entry, and a
 * probe reads an entry's key only when the tags match.
 *
 * A slot points into a PatchMeta it does not own: every patch a slot
 * refers to must outlive the slot, which the slice keeps by re-pointing
 * or erasing a patch's keys before it drops the patch.
 */
#ifndef SDF_KV_KEY_INDEX_H
#define SDF_KV_KEY_INDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kv/patch.h"

namespace sdf::kv {

/** One version of a key: entry @p ordinal of @p patch. */
struct EntryRef
{
    const PatchMeta *patch = nullptr;  ///< Null in an empty slot.
    uint32_t ordinal = 0;
    uint32_t tag = 0;  ///< KeyIndex::Tag of the entry's key.

    const PatchEntry &entry() const { return patch->entries()[ordinal]; }
};
static_assert(sizeof(EntryRef) == 16);

/** Key -> newest version, as references into patch entry tables. */
class KeyIndex
{
  public:
    /**
     * Point the key of entry @p ordinal of @p patch at that entry, unless
     * the key already refers to a newer version: the higher sequence wins
     * whatever the install order, and an equal sequence overwrites (a
     * compaction output replaces its input's copy of a version).
     */
    void Upsert(const PatchMeta &patch, uint32_t ordinal);

    /**
     * Size the table for @p more keys beyond those it holds, rehashing at
     * most once, here: the next @p more inserts do not grow it.
     */
    void Reserve(size_t more);

    /** The version @p key refers to, or nullptr if it is not indexed. */
    const EntryRef *Find(uint64_t key) const;

    /** Drop @p key (no-op if absent). */
    void Erase(uint64_t key);

    /** Visit every indexed version (unspecified order). */
    template <typename Fn>
    void
    ForEach(Fn &&fn) const
    {
        for (const EntryRef &slot : slots_)
            if (slot.patch != nullptr) fn(slot);
    }

    /** Indexed keys, tombstone markers included. */
    size_t size() const { return size_; }
    /** Slots allocated (0 or a power of two). */
    size_t capacity() const { return slots_.size(); }

    /** Top 32 bits of @p key's Fibonacci hash. */
    static uint32_t
    Tag(uint64_t key)
    {
        // key * 2^64/phi spreads sequential and strided keys alike.
        return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
    }

  private:
    /** Home slot of a key with tag @p tag (the tag's top bits). */
    size_t Home(uint32_t tag) const { return tag >> tag_shift_; }
    /** Slot of @p key, or of the empty slot that ends its probe. */
    size_t Probe(uint64_t key, uint32_t tag) const;
    /** First empty slot of the probe from @p tag's home. */
    size_t FreeSlot(uint32_t tag) const;
    /** Rehash into @p capacity slots (a power of two). */
    void Rehash(size_t capacity);

    std::vector<EntryRef> slots_;
    size_t size_ = 0;
    unsigned tag_shift_ = 32;  ///< 32 - log2(capacity), once allocated.
};

}  // namespace sdf::kv

#endif  // SDF_KV_KEY_INDEX_H
