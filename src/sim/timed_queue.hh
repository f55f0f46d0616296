/**
 * @file
 * Latency- and capacity-bounded FIFO link between components.
 *
 * A TimedQueue models a registered point-to-point link: tokens pushed in
 * cycle c become poppable at cycle c + latency. Capacity provides
 * backpressure: push() fails when the queue is full, and the producer must
 * retry in a later cycle (exactly like a ready/valid handshake).
 *
 * Capacity is the modelled bound; host storage follows occupancy: the
 * tokens live in a RingDeque that starts unallocated and doubles on a
 * full push, so it holds bit_ceil(peak occupancy) slots, none for a
 * queue that never carries a token. T must be default-constructible
 * (all link payloads are plain aggregates).
 *
 * Wake hooks for the idle-aware engine: when a producer/consumer
 * component is bound via setProducer()/setConsumer(), a push wakes the
 * consumer at the cycle the token becomes poppable, and a pop that frees
 * a slot of a previously-full queue wakes the producer so it can retry a
 * rejected push. Unbound endpoints (test harnesses driving queues from
 * runUntil predicates) simply get no wakes — they are covered by the
 * engine's every-cycle predicate polling.
 *
 * Occupancy flags let a component that polls many queues round-robin
 * skip the empty ones: each queue of the group is bound to one byte of
 * a row (bindOccupancy()) that reads 1 exactly while the queue holds a
 * token, and the poller walks the row with forEachOccupied(). Only the
 * producer sets a flag and only the consumer clears it.
 *
 * Die crossings (Fig. 5 of the paper) are modelled by raising the latency
 * to the crossing delay and ensuring capacity >= latency + 2, mirroring the
 * paper's "queue needs at least four slots" observation for a 2-cycle
 * ready-propagation delay.
 */

#ifndef GMOMS_SIM_TIMED_QUEUE_HH
#define GMOMS_SIM_TIMED_QUEUE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#include "src/sim/engine.hh"
#include "src/sim/queue_probe.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/types.hh"

namespace gmoms
{

template <typename T>
class TimedQueue
{
  public:
    /**
     * @param engine   Engine providing the clock.
     * @param capacity Maximum number of in-flight tokens.
     * @param latency  Cycles between push and earliest pop (>= 1).
     */
    TimedQueue(const Engine& engine, std::size_t capacity, Cycle latency = 1)
        : engine_(&engine), capacity_(capacity), latency_(latency),
          ring_(0)
    {
        assert(latency_ >= 1 && "zero-latency links break tick-order "
               "independence");
        assert(capacity_ >= 1);
    }

    /** Component woken when a pop frees a slot of a full queue. */
    void setProducer(Component* p) { producer_ = p; }
    /** Component woken when a pushed token becomes poppable. */
    void setConsumer(Component* c) { consumer_ = c; }

    /** Attach an occupancy probe (telemetry); nullptr detaches. The
     *  probe must outlive the queue or be detached first. */
    void attachProbe(QueueProbe* probe) { ring_.attachProbe(probe, engine_); }

    /**
     * Keep *@p flag equal to "holds a token": the push into an empty
     * queue sets it, before the token is poppable, and the pop that
     * empties the queue clears it. Binding a non-empty queue sets it
     * at once.
     */
    void
    bindOccupancy(std::uint8_t* flag)
    {
        occupancy_ = flag;
        *occupancy_ = !ring_.empty();
    }

    /** True if a push this cycle would be accepted. */
    bool canPush() const { return ring_.size() < capacity_; }

    /** Free slots right now. */
    std::size_t freeSlots() const { return capacity_ - ring_.size(); }

    /**
     * Push a token; visible to the consumer after the link latency.
     * @return false (token not enqueued) when the queue is full.
     */
    bool
    push(T item)
    {
        if (ring_.size() == capacity_)
            return false;
        const Cycle ready = engine_->now() + latency_;
        ring_.push_back(Slot{std::move(item), ready});
        if (ring_.size() == 1 && occupancy_)
            *occupancy_ = 1;
        Engine::wake(consumer_, ready);
        return true;
    }

    /** True if the head token has arrived and can be popped this cycle. */
    bool
    canPop() const
    {
        return !ring_.empty() && ring_.front().ready <= engine_->now();
    }

    /** Head token; only valid when canPop(). The reference is valid
     *  only until the next push to this queue: a push may grow the
     *  ring and move every token. */
    const T&
    front() const
    {
        assert(canPop());
        return ring_.front().item;
    }

    /** Remove and return the head token; only valid when canPop(). */
    T
    pop()
    {
        assert(canPop());
        const bool was_full = ring_.size() == capacity_;
        T item = std::move(ring_.front().item);
        ring_.pop_front();
        if (ring_.empty() && occupancy_)
            *occupancy_ = 0;
        if (was_full)
            Engine::wake(producer_, engine_->now());
        return item;
    }

    /** Cycle the head token becomes poppable; kCycleNever when empty
     *  (for the wake calendar). */
    Cycle
    peekReadyCycle() const
    {
        return !ring_.empty() ? ring_.front().ready : kCycleNever;
    }

    bool empty() const { return ring_.empty(); }
    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }
    Cycle latency() const { return latency_; }

    /** Host slots allocated (0 until the first push, then
     *  bit_ceil(peak occupancy)) and bytes per slot. */
    std::size_t storageSlots() const { return ring_.capacity(); }
    static constexpr std::size_t slotBytes() { return sizeof(Slot); }

  private:
    struct Slot
    {
        T item{};
        Cycle ready = 0;
    };

    const Engine* engine_;
    std::size_t capacity_;
    Cycle latency_;
    RingDeque<Slot> ring_;  //!< oldest token at the front; holds the probe
    Component* producer_ = nullptr;
    Component* consumer_ = nullptr;
    std::uint8_t* occupancy_ = nullptr;
};

/** Bytes of an occupancy row over @p n queues: whole 8-byte words, so
 *  forEachOccupied() tests eight flags per load and never reads a
 *  byte of the next row. */
constexpr std::size_t
occupancyRowBytes(std::size_t n)
{
    return (n + 7) / 8 * 8;
}

/**
 * Call @p visit(i) for every set flag i of the occupancy row @p row
 * (@p n flags, occupancyRowBytes(n) bytes) in the rotated order
 * start..n-1, 0..start-1 — the order of a `(start + k) % n` scan —
 * until a call returns true.
 *
 * A word is read when the walk reaches it, so a visit that changes a
 * flag may or may not change the walk. Pollers need only the queues
 * that held a token before the walk began: a token pushed during it
 * is not poppable before next cycle, and a visited queue emptied
 * meanwhile just fails its canPop().
 *
 * @return the index whose visit returned true, or @p n.
 */
template <typename Visit>
std::uint32_t
forEachOccupied(const std::uint8_t* row, std::uint32_t n,
                std::uint32_t start, Visit&& visit)
{
    static_assert(std::endian::native == std::endian::little,
                  "flag i must be the low byte i of its word");
    assert(n == 0 || start < n);
    // Visit the set flags in [lo, hi); true when a visit accepted.
    auto span = [&](std::uint32_t lo, std::uint32_t hi,
                    std::uint32_t& hit) {
        for (std::uint32_t base = lo & ~7u; base < hi; base += 8) {
            std::uint64_t word;
            std::memcpy(&word, row + base, sizeof word);
            if (base < lo)
                word &= ~std::uint64_t{0} << 8 * (lo - base);
            if (hi - base < 8)
                word &= ~(~std::uint64_t{0} << 8 * (hi - base));
            // Flags are 0 or 1: bit 8k is flag base + k.
            for (; word != 0; word &= word - 1) {
                const std::uint32_t i =
                    base + (static_cast<std::uint32_t>(
                                std::countr_zero(word)) >> 3);
                if (visit(i)) {
                    hit = i;
                    return true;
                }
            }
        }
        return false;
    };
    std::uint32_t hit = n;
    if (!span(start, n, hit))
        span(0, start, hit);
    return hit;
}

} // namespace gmoms

#endif // GMOMS_SIM_TIMED_QUEUE_HH
