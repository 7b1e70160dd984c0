#include "kv/key_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

namespace {

/** Slots the first insert allocates. */
constexpr size_t kMinCapacity = 16;

}  // namespace

size_t
KeyIndex::Home(uint64_t key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi spread sequential
    // and strided keys alike.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
}

size_t
KeyIndex::Probe(uint64_t key) const
{
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key);
    while (slots_[i].patch != nullptr && slots_[i].entry().key != key)
        i = (i + 1) & mask;
    return i;
}

const EntryRef *
KeyIndex::Find(uint64_t key) const
{
    if (size_ == 0) return nullptr;
    const EntryRef &slot = slots_[Probe(key)];
    return slot.patch != nullptr ? &slot : nullptr;
}

void
KeyIndex::Upsert(const PatchMeta &patch, uint32_t ordinal)
{
    SDF_CHECK(ordinal < patch.entries().size());
    const PatchEntry &e = patch.entries()[ordinal];
    if (!slots_.empty()) {
        EntryRef &slot = slots_[Probe(e.key)];
        if (slot.patch != nullptr) {
            if (e.seq >= slot.entry().seq) slot = EntryRef{&patch, ordinal};
            return;
        }
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    slots_[Probe(e.key)] = EntryRef{&patch, ordinal};
    ++size_;
}

void
KeyIndex::Erase(uint64_t key)
{
    if (size_ == 0) return;
    const size_t mask = slots_.size() - 1;
    size_t hole = Probe(key);
    if (slots_[hole].patch == nullptr) return;
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies after the hole (it would become
    // unreachable from its home).
    for (size_t j = (hole + 1) & mask; slots_[j].patch != nullptr;
         j = (j + 1) & mask) {
        const size_t home = Home(slots_[j].entry().key);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = EntryRef{};
    --size_;
}

void
KeyIndex::Grow()
{
    std::vector<EntryRef> old = std::move(slots_);
    slots_.assign(std::max(kMinCapacity, 2 * old.size()), EntryRef{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const EntryRef &slot : old)
        if (slot.patch != nullptr) slots_[Probe(slot.entry().key)] = slot;
}

}  // namespace sdf::kv
