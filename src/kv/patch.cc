#include "kv/patch.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "util/assert.h"

namespace sdf::kv {

namespace {

/** Largest value a PatchEntry's 31-bit size holds. */
constexpr uint32_t kMaxEntrySize = (1u << 31) - 1;

/** Check that a value at @p offset of @p value_size fits an entry. */
uint32_t
EntryOffset(uint64_t offset, uint64_t value_size)
{
    SDF_CHECK_MSG(offset <= UINT32_MAX && value_size <= kMaxEntrySize,
                  "patch entry offset or size out of range");
    return static_cast<uint32_t>(offset);
}

}  // namespace

PatchMeta
PatchMeta::Build(uint64_t id, uint64_t seq, std::vector<KvItem> &items,
                 uint64_t patch_bytes)
{
    // A preload hands over runs that are already sorted; a memtable's
    // items are not.
    auto by_key = [](const KvItem &a, const KvItem &b) {
        return a.key < b.key;
    };
    if (!std::is_sorted(items.begin(), items.end(), by_key))
        std::sort(items.begin(), items.end(), by_key);
    PatchMeta meta;
    meta.id_ = id;
    meta.entries_.reserve(items.size());
    uint64_t offset = 0;
    for (const KvItem &item : items) {
        meta.entries_.emplace_back(item.key, seq,
                                   EntryOffset(offset, item.value_size),
                                   item.value_size, item.tombstone);
        offset += item.value_size;
    }
    SDF_CHECK_MSG(offset <= patch_bytes, "items exceed patch capacity");
    meta.data_bytes_ = offset;
    return meta;
}

PatchMeta
PatchMeta::FromEntries(uint64_t id, std::vector<PatchEntry> entries,
                       uint64_t patch_bytes)
{
    PatchMeta meta;
    meta.id_ = id;
    uint64_t offset = 0;
    for (PatchEntry &e : entries) {
        e.offset = EntryOffset(offset, e.value_size);
        offset += e.value_size;
    }
    SDF_CHECK_MSG(offset <= patch_bytes, "entries exceed patch capacity");
    meta.entries_ = std::move(entries);
    meta.data_bytes_ = offset;
    return meta;
}

const PatchEntry *
PatchMeta::Find(uint64_t key) const
{
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const PatchEntry &e, uint64_t k) { return e.key < k; });
    if (it == entries_.end() || it->key != key) return nullptr;
    return &*it;
}

std::vector<uint8_t>
PatchMeta::AssembleBuffer(const PatchMeta &meta,
                          const std::vector<KvItem> &items,
                          uint64_t patch_bytes)
{
    std::vector<uint8_t> buf(patch_bytes, 0);
    for (const KvItem &item : items) {
        const PatchEntry *e = meta.Find(item.key);
        SDF_CHECK(e != nullptr);
        if (item.payload) {
            SDF_CHECK(item.payload->size() == item.value_size);
            std::memcpy(buf.data() + e->offset, item.payload->data(),
                        item.value_size);
        }
    }
    return buf;
}

std::vector<std::vector<PatchEntry>>
MergeEntries(const std::vector<const PatchMeta *> &inputs,
             uint64_t patch_bytes, bool drop_tombstones)
{
    // Gather and sort by (key, seq desc); newest version per key survives.
    std::vector<PatchEntry> all;
    size_t total = 0;
    for (const PatchMeta *m : inputs) total += m->entries().size();
    all.reserve(total);
    for (const PatchMeta *m : inputs) {
        all.insert(all.end(), m->entries().begin(), m->entries().end());
    }
    std::sort(all.begin(), all.end(),
              [](const PatchEntry &a, const PatchEntry &b) {
                  if (a.key != b.key) return a.key < b.key;
                  return a.seq > b.seq;
              });

    std::vector<std::vector<PatchEntry>> outputs;
    std::vector<PatchEntry> current;
    uint64_t current_bytes = 0;
    uint64_t prev_key = 0;
    bool have_prev = false;
    for (const PatchEntry &e : all) {
        if (have_prev && e.key == prev_key) continue;  // Older version.
        prev_key = e.key;
        have_prev = true;
        if (e.tombstone && drop_tombstones) continue;
        if (current_bytes + e.value_size > patch_bytes && !current.empty()) {
            outputs.push_back(std::move(current));
            current.clear();
            current_bytes = 0;
        }
        current_bytes += e.value_size;
        current.push_back(e);
    }
    if (!current.empty()) outputs.push_back(std::move(current));
    return outputs;
}

}  // namespace sdf::kv
