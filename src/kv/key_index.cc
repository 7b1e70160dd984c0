#include "kv/key_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

namespace {

/** Slots the first insert allocates. */
constexpr size_t kMinCapacity = 16;

/** Smallest capacity that holds @p keys at a load of at most 3/4. */
size_t
CapacityFor(size_t keys)
{
    size_t capacity = kMinCapacity;
    while (keys * 4 > capacity * 3) capacity *= 2;
    return capacity;
}

}  // namespace

size_t
KeyIndex::Probe(uint64_t key, uint32_t tag) const
{
    const size_t mask = slots_.size() - 1;
    size_t i = Home(tag);
    while (slots_[i].patch != nullptr &&
           (slots_[i].tag != tag || slots_[i].entry().key != key))
        i = (i + 1) & mask;
    return i;
}

size_t
KeyIndex::FreeSlot(uint32_t tag) const
{
    const size_t mask = slots_.size() - 1;
    size_t i = Home(tag);
    while (slots_[i].patch != nullptr) i = (i + 1) & mask;
    return i;
}

const EntryRef *
KeyIndex::Find(uint64_t key) const
{
    if (size_ == 0) return nullptr;
    const EntryRef &slot = slots_[Probe(key, Tag(key))];
    return slot.patch != nullptr ? &slot : nullptr;
}

void
KeyIndex::Upsert(const PatchMeta &patch, uint32_t ordinal)
{
    SDF_CHECK(ordinal < patch.entries().size());
    const PatchEntry &e = patch.entries()[ordinal];
    const uint32_t tag = Tag(e.key);
    const EntryRef ref{&patch, ordinal, tag};
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t i = Probe(e.key, tag);
    if (slots_[i].patch != nullptr) {
        // An overwrite never grows the table.
        if (e.seq >= slots_[i].entry().seq) slots_[i] = ref;
        return;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
        Rehash(2 * slots_.size());
        i = FreeSlot(tag);
    }
    slots_[i] = ref;
    ++size_;
}

void
KeyIndex::Reserve(size_t more)
{
    if (more == 0) return;
    const size_t capacity = CapacityFor(size_ + more);
    if (capacity > slots_.size()) Rehash(capacity);
}

void
KeyIndex::Erase(uint64_t key)
{
    if (size_ == 0) return;
    const size_t mask = slots_.size() - 1;
    size_t hole = Probe(key, Tag(key));
    if (slots_[hole].patch == nullptr) return;
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies after the hole (it would become
    // unreachable from its home).
    for (size_t j = (hole + 1) & mask; slots_[j].patch != nullptr;
         j = (j + 1) & mask) {
        const size_t home = Home(slots_[j].tag);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = EntryRef{};
    --size_;
}

void
KeyIndex::Rehash(size_t capacity)
{
    // A home is the tag's top log2(capacity) bits: 32 at most.
    SDF_CHECK(std::has_single_bit(capacity) &&
              uint64_t{capacity} <= (uint64_t{1} << 32));
    std::vector<EntryRef> old = std::move(slots_);
    slots_.assign(capacity, EntryRef{});
    tag_shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const EntryRef &slot : old)
        if (slot.patch != nullptr) slots_[FreeSlot(slot.tag)] = slot;
}

}  // namespace sdf::kv
