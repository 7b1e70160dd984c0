/**
 * @file
 * A FIFO in one power-of-two ring that keeps its capacity.
 *
 * std::deque frees a chunk each time its head leaves one and allocates
 * one each time its tail enters a new one, so a queue that moves but
 * never grows still allocates. A Ring allocates only when it holds more
 * items than ever before, and indexes its items in FIFO order.
 */
#ifndef SDF_UTIL_RING_H
#define SDF_UTIL_RING_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace sdf::util {

template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Item @p i from the front. */
    T &
    operator[](size_t i)
    {
        SDF_CHECK(i < size_);
        return items_[(head_ + i) & (items_.size() - 1)];
    }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    /**
     * Append @p item. References to items stay valid until they are
     * popped, or until a push finds the ring full and grows it.
     */
    void
    push_back(T item)
    {
        if (size_ == items_.size()) Grow();
        items_[(head_ + size_) & (items_.size() - 1)] = std::move(item);
        ++size_;
    }

    /** Put @p item at the front (references as for push_back). */
    void
    push_front(T item)
    {
        if (size_ == items_.size()) Grow();
        head_ = (head_ - 1) & (items_.size() - 1);
        items_[head_] = std::move(item);
        ++size_;
    }

    void
    pop_front()
    {
        SDF_CHECK(size_ > 0);
        items_[head_] = T{};
        head_ = (head_ + 1) & (items_.size() - 1);
        --size_;
    }

  private:
    void
    Grow()
    {
        std::vector<T> bigger(std::max<size_t>(8, 2 * items_.size()));
        for (size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
        items_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> items_;  ///< The ring; its size is 0 or a power of two.
    size_t head_ = 0;
    size_t size_ = 0;
};

}  // namespace sdf::util

#endif  // SDF_UTIL_RING_H
