/**
 * @file
 * A map from 64-bit keys in one open-addressed array.
 *
 * std::unordered_map allocates a node for every entry it takes, so a map
 * whose entries come and go allocates on every insert. A FlatMap keeps
 * its entries in one power-of-two array (Fibonacci hash, linear probing,
 * a load of at most 3/4, backward-shift erase) and allocates only when it
 * holds more entries than ever before. Any insert or erase may move
 * entries: a pointer or reference to a value lasts until the next one.
 */
#ifndef SDF_UTIL_FLAT_MAP_H
#define SDF_UTIL_FLAT_MAP_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sdf::util {

template <typename V>
class FlatMap
{
  public:
    size_t size() const { return size_; }

    /** The value of @p key, or nullptr if it is absent. */
    V *
    find(uint64_t key)
    {
        if (size_ == 0) return nullptr;
        Slot &slot = slots_[Probe(key)];
        return slot.used ? &slot.value : nullptr;
    }

    /** The value of @p key, value-initialised if it was absent. */
    V &
    operator[](uint64_t key)
    {
        size_t i = slots_.empty() ? 0 : Probe(key);
        if (!slots_.empty() && slots_[i].used) return slots_[i].value;
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            Grow();
            i = Probe(key);
        }
        slots_[i].key = key;
        slots_[i].used = true;
        ++size_;
        return slots_[i].value;
    }

    /** Drop @p key (no-op if absent). */
    void
    erase(uint64_t key)
    {
        if (size_ == 0) return;
        const size_t mask = slots_.size() - 1;
        size_t hole = Probe(key);
        if (!slots_[hole].used) return;
        // Backward shift: pull each later member of the probe run into the
        // hole unless its home lies after the hole.
        for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
            const size_t home = Home(slots_[j].key);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        bool used = false;
        V value{};
    };

    size_t
    Home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    /** Slot of @p key, or of the empty slot that ends its probe. */
    size_t
    Probe(uint64_t key) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = Home(key);
        while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
        return i;
    }

    void
    Grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
        for (Slot &slot : old)
            if (slot.used) slots_[Probe(slot.key)] = std::move(slot);
    }

    std::vector<Slot> slots_;  ///< Size 0 or a power of two.
    size_t size_ = 0;
    unsigned shift_ = 64;  ///< 64 - log2(capacity), once allocated.
};

}  // namespace sdf::util

#endif  // SDF_UTIL_FLAT_MAP_H
