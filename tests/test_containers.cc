/**
 * @file
 * FlatMap and RingDeque — the hot-path replacements for
 * std::unordered_map and std::deque — pinned against the standard
 * containers they replaced, including the capacity-boundary,
 * wraparound and erase-reinsert regimes the simulator exercises; and
 * TimedQueue, which keeps its tokens in a RingDeque, pinned against a
 * reference deque of (token, ready cycle).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/rng.hh"
#include "src/sim/timed_queue.hh"

namespace gmoms
{
namespace
{

// ---------------------------------------------------------------- FlatMap

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> map(4);
    EXPECT_TRUE(map.empty());
    auto [v, inserted] = map.tryEmplace(42, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.contains(42));
    EXPECT_FALSE(map.contains(43));

    auto [v2, inserted2] = map.tryEmplace(42, 99);
    EXPECT_FALSE(inserted2);  // existing value is kept
    EXPECT_EQ(*v2, 7);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatMap, OperatorBracketDefaultConstructs)
{
    FlatMap<int, std::uint64_t> map;
    EXPECT_EQ(map[5], 0u);
    map[5] = 17;
    EXPECT_EQ(map[5], 17u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, FillToSizingHintDoesNotGrow)
{
    // The PE sizes edge_pending_ at max_edge_bursts; filling exactly
    // that many entries must not reallocate (steady-state guarantee).
    FlatMap<std::uint64_t, int> map(16);
    const std::size_t cap = map.capacity();
    ASSERT_GE(cap, 16u);
    for (std::uint64_t k = 0; k < 16; ++k)
        map.tryEmplace(k * 0x10000, static_cast<int>(k));
    EXPECT_EQ(map.capacity(), cap);
    for (std::uint64_t k = 0; k < 16; ++k) {
        const int* v = map.find(k * 0x10000);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, static_cast<int>(k));
    }
}

TEST(FlatMap, GrowsPastTheHintWithoutLosingEntries)
{
    FlatMap<std::uint32_t, std::uint32_t> map(4);
    for (std::uint32_t k = 0; k < 1000; ++k)
        map.tryEmplace(k, k * k);
    EXPECT_EQ(map.size(), 1000u);
    for (std::uint32_t k = 0; k < 1000; ++k) {
        const std::uint32_t* v = map.find(k);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k * k);
    }
}

TEST(FlatMap, EraseReinsertChurnAtFixedCapacity)
{
    // The burst-tag regime: monotonically increasing keys, bounded
    // live set — erase and reinsert must never corrupt probe chains.
    FlatMap<std::uint64_t, std::uint64_t> map(8);
    std::uint64_t next_key = 0;
    std::vector<std::uint64_t> live;
    for (int round = 0; round < 5000; ++round) {
        if (live.size() < 8) {
            map.tryEmplace(next_key, next_key * 3);
            live.push_back(next_key);
            ++next_key;
        }
        if (live.size() == 8 || round % 3 == 0) {
            if (!live.empty()) {
                EXPECT_TRUE(map.erase(live.front()));
                live.erase(live.begin());
            }
        }
        EXPECT_EQ(map.size(), live.size());
        for (std::uint64_t k : live) {
            const std::uint64_t* v = map.find(k);
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, k * 3);
        }
    }
}

TEST(FlatMap, RandomizedParityWithUnorderedMap)
{
    FlatMap<std::uint32_t, std::uint32_t> map(8);
    std::unordered_map<std::uint32_t, std::uint32_t> ref;
    Rng rng(1234);
    for (int op = 0; op < 20000; ++op) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(rng.below(256));
        switch (rng.below(3)) {
          case 0: {  // tryEmplace
            const std::uint32_t value =
                static_cast<std::uint32_t>(rng.next());
            auto [v, inserted] = map.tryEmplace(key, value);
            auto [it, ref_inserted] = ref.try_emplace(key, value);
            EXPECT_EQ(inserted, ref_inserted);
            EXPECT_EQ(*v, it->second);
            break;
          }
          case 1:  // erase
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
            break;
          default: {  // find
            const std::uint32_t* v = map.find(key);
            auto it = ref.find(key);
            EXPECT_EQ(v != nullptr, it != ref.end());
            if (v != nullptr && it != ref.end()) {
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(map.size(), ref.size());
    }
    // Final sweep: forEach visits every entry exactly once.
    std::map<std::uint32_t, std::uint32_t> seen;
    map.forEach([&](std::uint32_t k, std::uint32_t v) {
        EXPECT_TRUE(seen.emplace(k, v).second);
    });
    EXPECT_EQ(seen.size(), ref.size());
    for (const auto& [k, v] : seen)
        EXPECT_EQ(ref.at(k), v);
}

TEST(FlatMap, ClearEmptiesAndStaysUsable)
{
    FlatMap<int, int> map;
    for (int k = 0; k < 50; ++k)
        map.tryEmplace(k, k);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(7));
    map.tryEmplace(7, 70);
    EXPECT_EQ(*map.find(7), 70);
}

// -------------------------------------------------------------- RingDeque

TEST(RingDeque, FifoBasics)
{
    RingDeque<int> q;
    EXPECT_TRUE(q.empty());
    q.push_back(1);
    q.push_back(2);
    q.emplace_back(3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 3);
    EXPECT_EQ(q[1], 2);
    q.pop_front();
    EXPECT_EQ(q.front(), 2);
    q.pop_front();
    q.pop_front();
    EXPECT_TRUE(q.empty());
}

TEST(RingDeque, WraparoundAtFixedCapacityDoesNotGrow)
{
    RingDeque<int> q(4);
    const std::size_t cap = q.capacity();
    // Push/pop churn far past the capacity: head wraps repeatedly but
    // the buffer never reallocates while size stays <= capacity.
    for (int i = 0; i < 1000; ++i) {
        q.push_back(i);
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_EQ(q.capacity(), cap);
    EXPECT_TRUE(q.empty());
}

TEST(RingDeque, GrowsMidWrapPreservingOrder)
{
    RingDeque<int> q(4);
    // Misalign head first, then force growth with a wrapped layout.
    q.push_back(-1);
    q.push_back(-2);
    q.pop_front();
    q.pop_front();
    for (int i = 0; i < 37; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 37u);
    for (int i = 0; i < 37; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingDeque, RandomizedParityWithStdDeque)
{
    RingDeque<std::uint64_t> q(2);
    std::deque<std::uint64_t> ref;
    Rng rng(99);
    for (int op = 0; op < 20000; ++op) {
        if (ref.empty() || rng.below(2) == 0) {
            const std::uint64_t v = rng.next();
            q.push_back(v);
            ref.push_back(v);
        } else {
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        if (!ref.empty()) {
            EXPECT_EQ(q.front(), ref.front());
            EXPECT_EQ(q.back(), ref.back());
            const std::size_t i = rng.below(ref.size());
            EXPECT_EQ(q[i], ref[i]);
        }
    }
}

TEST(RingDeque, ClearEmptiesAndStaysUsable)
{
    RingDeque<int> q;
    for (int i = 0; i < 20; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(5);
    EXPECT_EQ(q.front(), 5);
    EXPECT_EQ(q.size(), 1u);
}

TEST(RingDeque, ZeroCapacityAllocatesOnFirstPushAndGrowsByDoubling)
{
    RingDeque<int> q(0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 0u);
    q.clear();
    EXPECT_EQ(q.capacity(), 0u);
    q.push_back(1);
    EXPECT_EQ(q.capacity(), 1u);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 1);
    for (int i = 2; i <= 5; ++i)
        q.push_back(i);
    EXPECT_EQ(q.capacity(), 8u);
    for (int i = 1; i <= 5; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingDeque, PopReleasesANonTrivialPayload)
{
    RingDeque<std::shared_ptr<int>> q(0);
    auto p = std::make_shared<int>(7);
    q.push_back(p);
    q.push_back(p);
    EXPECT_EQ(p.use_count(), 3);
    q.pop_front();
    EXPECT_EQ(p.use_count(), 2);
    q.clear();
    EXPECT_EQ(p.use_count(), 1);
}

// ------------------------------------------------------------- TimedQueue

/** Logs the cycles it is ticked at. Sleeps until woken, or, given a
 *  queue to consume, until the queue's head token is ready (a
 *  consumer's quiescence contract). */
class TickLog : public Component
{
  public:
    TickLog(const Engine& eng, const char* name,
            const TimedQueue<std::uint64_t>* consumes = nullptr)
        : Component(name), eng_(eng), consumes_(consumes)
    {
    }
    void tick() override { ticked.insert(eng_.now()); }
    Cycle
    nextActivity() const override
    {
        return consumes_ ? consumes_->peekReadyCycle() : kCycleNever;
    }

    std::set<Cycle> ticked;

  private:
    const Engine& eng_;
    const TimedQueue<std::uint64_t>* consumes_;
};

TEST(TimedQueue, RandomizedParityWithReferenceDeque)
{
    for (const std::size_t cap : {1, 3, 16, 34, 256}) {
        for (const Cycle lat : {1, 2, 32}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) +
                         ", latency " + std::to_string(lat));
            Engine eng;
            TimedQueue<std::uint64_t> q(eng, cap, lat);
            TickLog consumer(eng, "consumer", &q);
            TickLog producer(eng, "producer");
            eng.add(&consumer);
            eng.add(&producer);
            q.setConsumer(&consumer);
            q.setProducer(&producer);
            std::uint8_t flag = 1;
            q.bindOccupancy(&flag);
            EXPECT_EQ(flag, 0);
            EXPECT_EQ(q.storageSlots(), 0u);

            std::deque<std::pair<std::uint64_t, Cycle>> ref;
            std::vector<Cycle> ready_cycles, full_pops;
            std::uint64_t wakes = 0;
            std::size_t peak = 0;
            Rng rng(cap * 100 + lat);
            for (int op = 0; op < 4000; ++op) {
                // Phases biased toward pushes, then pops, so every
                // capacity is filled and drained repeatedly.
                const bool fill = (op / 500) % 2 == 0;
                const std::uint64_t r = rng.below(10);
                if (r < (fill ? 7u : 1u)) {
                    const std::uint64_t v = rng.next();
                    const bool room = ref.size() < cap;
                    ASSERT_EQ(q.canPush(), room);
                    ASSERT_EQ(q.push(v), room);
                    if (room) {
                        ref.emplace_back(v, eng.now() + lat);
                        ready_cycles.push_back(eng.now() + lat);
                        ++wakes;  // the consumer, at the ready cycle
                    }
                } else if (r < 8) {
                    const bool ready = !ref.empty() &&
                                       ref.front().second <= eng.now();
                    ASSERT_EQ(q.canPop(), ready);
                    if (ready) {
                        const bool was_full = ref.size() == cap;
                        ASSERT_EQ(q.front(), ref.front().first);
                        ASSERT_EQ(q.pop(), ref.front().first);
                        ref.pop_front();
                        if (was_full) {
                            full_pops.push_back(eng.now());
                            ++wakes;  // the producer, this cycle
                        }
                    }
                } else {
                    eng.tick();
                }
                peak = std::max(peak, ref.size());
                ASSERT_EQ(q.size(), ref.size());
                ASSERT_EQ(q.empty(), ref.empty());
                ASSERT_EQ(q.freeSlots(), cap - ref.size());
                ASSERT_EQ(flag, ref.empty() ? 0 : 1);
                ASSERT_EQ(q.peekReadyCycle(),
                          ref.empty() ? kCycleNever : ref.front().second);
                ASSERT_EQ(eng.stats().wakes, wakes);
                ASSERT_LE(q.storageSlots(), std::bit_ceil(peak));
                ASSERT_GE(q.storageSlots(), peak);
            }
            EXPECT_EQ(peak, cap);
            // Run past the last ready cycle: each wake was a tick.
            for (Cycle i = 0; i <= lat; ++i)
                eng.tick();
            for (const Cycle c : ready_cycles)
                EXPECT_TRUE(consumer.ticked.count(c)) << "cycle " << c;
            for (const Cycle c : full_pops)
                EXPECT_TRUE(producer.ticked.count(c)) << "cycle " << c;
            EXPECT_FALSE(full_pops.empty());
        }
    }
}

} // namespace
} // namespace gmoms
