/**
 * @file
 * Fifo<T>: a vector-backed FIFO queue for state that is empty most of
 * its life, such as a connection's retransmit queue.
 *
 * libstdc++'s std::deque allocates a ~576 B map plus a node when it is
 * constructed, even if it never holds an element, so every idle or
 * time-wait connection paid for each of its queues. Fifo<T> is a
 * std::vector plus a head index:
 *  - an empty Fifo owns no heap: a new one allocates nothing, and
 *    popping the last element releases the storage;
 *  - pop_front() resets the head slot to T{} at once, so a popped
 *    element's own resources (a segment's payload) are freed then,
 *    not when the slot is reused;
 *  - when the vector is full and at least half of it is popped slots,
 *    push_back() compacts the live elements to the front instead of
 *    growing, so push/pop stay amortised O(1) and the storage stays
 *    within twice the peak depth.
 *
 * T must be default-constructible and move-assignable.
 */
#ifndef FLD_UTIL_FIFO_H
#define FLD_UTIL_FIFO_H

#include <cstddef>
#include <utility>
#include <vector>

namespace fld {

template <typename T>
class Fifo
{
  public:
    using iterator = typename std::vector<T>::iterator;
    using const_iterator = typename std::vector<T>::const_iterator;

    bool empty() const { return head_ == buf_.size(); }
    size_t size() const { return buf_.size() - head_; }
    /** Slots the storage holds, popped ones included (0 = no heap). */
    size_t capacity() const { return buf_.capacity(); }

    T& front() { return buf_[head_]; }
    const T& front() const { return buf_[head_]; }
    T& back() { return buf_.back(); }
    const T& back() const { return buf_.back(); }

    /** By value, so pushing a copy of one of our own elements is safe
     *  across compaction and growth. */
    void push_back(T v)
    {
        if (buf_.size() == buf_.capacity() && head_ > 0 &&
            head_ >= size())
            compact();
        buf_.push_back(std::move(v));
    }

    void pop_front()
    {
        if (head_ + 1 == buf_.size()) {
            clear();
            return;
        }
        buf_[head_++] = T{};
    }

    /** Drop every element and release the storage. */
    void clear()
    {
        std::vector<T>().swap(buf_);
        head_ = 0;
    }

    iterator begin() { return buf_.begin() + std::ptrdiff_t(head_); }
    iterator end() { return buf_.end(); }
    const_iterator begin() const
    {
        return buf_.begin() + std::ptrdiff_t(head_);
    }
    const_iterator end() const { return buf_.end(); }

  private:
    void compact()
    {
        buf_.erase(buf_.begin(), begin());
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0; ///< first live slot; [0, head_) are popped
};

} // namespace fld

#endif // FLD_UTIL_FIFO_H
