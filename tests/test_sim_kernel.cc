/**
 * @file
 * Unit tests for the simulation kernel: engine, timed queues, RNG, stats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/sim/timed_queue.hh"
#include "src/sim/types.hh"

namespace gmoms
{
namespace
{

class CounterComponent : public Component
{
  public:
    CounterComponent() : Component("counter") {}
    void tick() override { ++ticks; }
    std::uint64_t ticks = 0;
};

TEST(Engine, TicksEveryComponentOncePerCycle)
{
    Engine eng;
    CounterComponent a, b;
    eng.add(&a);
    eng.add(&b);
    for (int i = 0; i < 10; ++i)
        eng.tick();
    EXPECT_EQ(eng.now(), 10u);
    EXPECT_EQ(a.ticks, 10u);
    EXPECT_EQ(b.ticks, 10u);
}

TEST(Engine, RunUntilStopsOnPredicate)
{
    Engine eng;
    CounterComponent a;
    eng.add(&a);
    bool ok = eng.runUntil([&] { return a.ticks >= 5; }, 100);
    EXPECT_TRUE(ok);
    EXPECT_EQ(a.ticks, 5u);
}

TEST(Engine, RunUntilHonorsCycleLimit)
{
    Engine eng;
    bool ok = eng.runUntil([] { return false; }, 42);
    EXPECT_FALSE(ok);
    EXPECT_EQ(eng.now(), 42u);
}

TEST(TimedQueue, TokenInvisibleBeforeLatencyElapses)
{
    Engine eng;
    TimedQueue<int> q(eng, 4, 3);
    ASSERT_TRUE(q.push(7));
    EXPECT_FALSE(q.canPop());
    eng.tick();
    eng.tick();
    EXPECT_FALSE(q.canPop());
    eng.tick();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 7);
}

TEST(TimedQueue, CapacityBackpressure)
{
    Engine eng;
    TimedQueue<int> q(eng, 2, 1);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_FALSE(q.canPush());
    EXPECT_FALSE(q.push(3));
    eng.tick();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.push(3));
}

TEST(TimedQueue, PreservesFifoOrder)
{
    Engine eng;
    TimedQueue<int> q(eng, 8, 2);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.push(i));
    eng.tick();
    eng.tick();
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.canPop());
        EXPECT_EQ(q.pop(), i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(TimedQueue, InterleavedPushPopKeepsPerTokenLatency)
{
    Engine eng;
    TimedQueue<Cycle> q(eng, 16, 4);
    // Push one token per cycle stamped with its push cycle; verify each
    // pops exactly 4 cycles later.
    std::uint64_t popped = 0;
    for (Cycle c = 0; c < 40; ++c) {
        if (c < 20) {
            ASSERT_TRUE(q.push(eng.now()));
        }
        if (q.canPop()) {
            Cycle pushed = q.pop();
            EXPECT_EQ(eng.now(), pushed + 4);
            ++popped;
        }
        eng.tick();
    }
    EXPECT_EQ(popped, 20u);
}

TEST(TimedQueue, OccupancyFlagTracksTokensNotReadiness)
{
    Engine eng;
    TimedQueue<int> q(eng, 4, 3);
    std::uint8_t flag = 7;
    q.bindOccupancy(&flag);
    EXPECT_EQ(flag, 0);  // binding an empty queue clears the byte

    ASSERT_TRUE(q.push(1));
    EXPECT_EQ(flag, 1);  // set at push, before the token is poppable
    EXPECT_FALSE(q.canPop());
    ASSERT_TRUE(q.push(2));
    eng.tick();
    eng.tick();
    eng.tick();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(flag, 1);  // a token remains
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(flag, 0);  // the pop that empties the queue clears it

    ASSERT_TRUE(q.push(3));
    EXPECT_EQ(flag, 1);
}

TEST(TimedQueue, BindingANonEmptyQueueSetsItsFlag)
{
    Engine eng;
    TimedQueue<int> q(eng, 4, 1);
    ASSERT_TRUE(q.push(5));
    std::uint8_t flag = 0;
    q.bindOccupancy(&flag);
    EXPECT_EQ(flag, 1);
    eng.tick();
    EXPECT_EQ(q.pop(), 5);
    EXPECT_EQ(flag, 0);
}

TEST(TimedQueue, OccupancyScanVisitsFlagsInRotatedOrder)
{
    // Rows of every length across the word boundaries, random flags,
    // every start: the scan must equal a (start + k) % n filter, and
    // stop at the first accepted index.
    Rng rng(11);
    for (std::uint32_t n = 1; n <= 33; ++n) {
        std::vector<std::uint8_t> row(occupancyRowBytes(n), 0);
        ASSERT_EQ(row.size() % 8, 0u);
        for (std::uint32_t i = 0; i < n; ++i)
            row[i] = rng.below(3) == 0 ? 1 : 0;
        for (std::uint32_t start = 0; start < n; ++start) {
            std::vector<std::uint32_t> want;
            for (std::uint32_t k = 0; k < n; ++k)
                if (row[(start + k) % n])
                    want.push_back((start + k) % n);
            std::vector<std::uint32_t> got;
            const std::uint32_t none =
                forEachOccupied(row.data(), n, start, [&](std::uint32_t i) {
                    got.push_back(i);
                    return false;
                });
            EXPECT_EQ(none, n);
            EXPECT_EQ(got, want) << "n=" << n << " start=" << start;

            if (want.size() >= 2) {
                std::uint32_t calls = 0;
                const std::uint32_t hit = forEachOccupied(
                    row.data(), n, start,
                    [&](std::uint32_t) { return ++calls == 2; });
                EXPECT_EQ(hit, want[1]);
                EXPECT_EQ(calls, 2u);
            }
        }
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng r(99);
    double mn = 1.0, mx = 0.0, sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        double u = r.uniform();
        mn = std::min(mn, u);
        mx = std::max(mx, u);
        sum += u;
    }
    EXPECT_GE(mn, 0.0);
    EXPECT_LT(mx, 1.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(StatRegistry, RegistersAndReads)
{
    StatRegistry reg;
    std::uint64_t c = 42;
    double g = 2.5;
    reg.addCounter("a.b.count", &c);
    reg.addGauge("a.b.gauge", &g);
    EXPECT_TRUE(reg.has("a.b.count"));
    EXPECT_FALSE(reg.has("missing"));
    ASSERT_TRUE(reg.tryValue("a.b.count").has_value());
    EXPECT_DOUBLE_EQ(*reg.tryValue("a.b.count"), 42.0);
    EXPECT_DOUBLE_EQ(*reg.tryValue("a.b.gauge"), 2.5);
    c = 43;
    EXPECT_DOUBLE_EQ(*reg.tryValue("a.b.count"), 43.0);
}

TEST(StatRegistry, StrictLookupsDistinguishMissingFromZero)
{
    StatRegistry reg;
    std::uint64_t zero = 0;
    reg.addCounter("present.zero", &zero);
    EXPECT_TRUE(reg.tryValue("present.zero").has_value());
    EXPECT_FALSE(reg.tryValue("absent").has_value());
    EXPECT_DOUBLE_EQ(reg.valueOr("present.zero", -1.0), 0.0);
    EXPECT_DOUBLE_EQ(reg.valueOr("absent", -1.0), -1.0);
    // The legacy lookup keeps its silent-zero contract.
    EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
}

TEST(StatRegistry, RemoveAndRemovePrefix)
{
    StatRegistry reg;
    std::uint64_t a = 1, b = 2, c = 3;
    reg.addCounter("pe0.edges", &a);
    reg.addCounter("pe0.jobs", &b);
    reg.addCounter("pe1.edges", &c);
    EXPECT_TRUE(reg.remove("pe0.jobs"));
    EXPECT_FALSE(reg.remove("pe0.jobs"));
    EXPECT_EQ(reg.removePrefix("pe0."), 1u);
    EXPECT_FALSE(reg.has("pe0.edges"));
    EXPECT_TRUE(reg.has("pe1.edges"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, EraserUnregistersWhenComponentDiesFirst)
{
    StatRegistry reg;
    {
        std::uint64_t doomed = 7;
        StatRegistry::Eraser eraser = reg.scopedPrefix("tmp.");
        reg.addCounter("tmp.count", &doomed);
        EXPECT_TRUE(reg.has("tmp.count"));
        // eraser and doomed leave scope together: the entry must go
        // before the pointer dangles.
    }
    EXPECT_FALSE(reg.has("tmp.count"));
    EXPECT_EQ(reg.size(), 0u);
    // dump() over the now-empty registry must not touch freed memory
    // (run under ASan in CI).
    std::ostringstream os;
    reg.dump(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(StatRegistry, EraserSafeWhenRegistryDiesFirst)
{
    std::uint64_t counter = 1;
    StatRegistry::Eraser survivor;
    {
        StatRegistry reg;
        reg.addCounter("x.count", &counter);
        survivor = reg.scopedPrefix("x.");
    }
    survivor.release();  // registry is gone: must be a quiet no-op
}

TEST(Types, AlignmentHelpers)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(65));
    EXPECT_FALSE(isPow2(0));
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

} // namespace
} // namespace gmoms
