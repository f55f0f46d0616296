/**
 * @file
 * Growable ring-buffer FIFO for simulator hot paths.
 *
 * Replaces the `std::deque`s that sat on per-cycle paths (PE decode
 * and shard queues, MOMS drain list, DRAM in-flight list): libstdc++'s
 * deque allocates a block per ~512 B of payload, so steady-state
 * push/pop churn hits the allocator continuously. A RingDeque is a
 * contiguous power-of-two ring (head index + size) with FIFO
 * push_back/pop_front, front/back access, and amortized growth by
 * doubling — after the high-water mark has been seen once, no further
 * allocation ever happens. TimedQueue keeps its tokens in one.
 *
 * RingDeque(0) allocates nothing until the first push, so a deque
 * that never carries an element costs no storage. A push may grow the
 * ring and move every element: references from front(), back() and
 * operator[] are valid only until the next push.
 */

#ifndef GMOMS_SIM_RING_DEQUE_HH
#define GMOMS_SIM_RING_DEQUE_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/queue_probe.hh"

namespace gmoms
{

template <typename T>
class RingDeque
{
  public:
    /** @p initial_capacity is rounded up to a power of two; 0 defers
     *  the allocation to the first push. */
    explicit RingDeque(std::size_t initial_capacity = 8)
        : ring_(initial_capacity == 0 ? 0
                                      : std::bit_ceil(initial_capacity)),
          mask_(ring_.size() - 1)
    {
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return mask_ + 1; }

    /** Attach an occupancy probe (telemetry). RingDeques have no
     *  engine of their own, so the clock is supplied here; both the
     *  probe and the engine must outlive the deque or be detached
     *  (nullptr) first. */
    void
    attachProbe(QueueProbe* probe, const Engine* engine)
    {
        probe_ = probe;
        probe_engine_ = engine;
        if (probe_)
            probe_->onChange(probe_engine_->now(), size_);
    }

    T&
    front()
    {
        assert(size_ != 0);
        return ring_[head_];
    }

    const T&
    front() const
    {
        assert(size_ != 0);
        return ring_[head_];
    }

    T&
    back()
    {
        assert(size_ != 0);
        return ring_[wrap(head_ + size_ - 1)];
    }

    const T&
    back() const
    {
        assert(size_ != 0);
        return ring_[wrap(head_ + size_ - 1)];
    }

    /** i-th element from the front (0 = front()). */
    T&
    operator[](std::size_t i)
    {
        assert(i < size_);
        return ring_[wrap(head_ + i)];
    }

    const T&
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return ring_[wrap(head_ + i)];
    }

    void
    push_back(T item)
    {
        if (size_ == mask_ + 1)
            grow();
        ring_[wrap(head_ + size_)] = std::move(item);
        ++size_;
        if (probe_)
            probe_->onChange(probe_engine_->now(), size_);
    }

    template <typename... Args>
    void
    emplace_back(Args&&... args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    void
    pop_front()
    {
        assert(size_ != 0);
        if constexpr (!std::is_trivially_destructible_v<T>)
            ring_[head_] = T{};  // release payload resources
        head_ = wrap(head_ + 1);
        --size_;
        if (probe_)
            probe_->onChange(probe_engine_->now(), size_);
    }

    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            for (std::size_t i = 0; i < size_; ++i)
                ring_[wrap(head_ + i)] = T{};
        head_ = 0;
        size_ = 0;
        if (probe_)
            probe_->onChange(probe_engine_->now(), size_);
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & mask_; }

    void
    grow()
    {
        std::vector<T> bigger(ring_.empty() ? 1 : ring_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(ring_[wrap(head_ + i)]);
        ring_ = std::move(bigger);
        mask_ = ring_.size() - 1;
        head_ = 0;
    }

    std::vector<T> ring_;
    /** ring_.size() - 1, wrapping to SIZE_MAX while unallocated, so
     *  mask_ + 1 is the slot count without a division by sizeof(T). */
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    QueueProbe* probe_ = nullptr;
    const Engine* probe_engine_ = nullptr;
};

} // namespace gmoms

#endif // GMOMS_SIM_RING_DEQUE_HH
