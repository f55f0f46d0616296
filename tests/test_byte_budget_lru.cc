/**
 * @file
 * Tests for ByteBudgetLru (src/serve/byte_budget_lru.hh), the LRU
 * behind the dataset cache, the checkpoint pool and the result cache:
 * victim order follows recency, the key just put is never evicted, an
 * oversized entry survives until the next put, a zero budget never
 * evicts, and a re-put replaces the entry's bytes.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/serve/byte_budget_lru.hh"

namespace gmoms::serve
{
namespace
{

using Lru = ByteBudgetLru<std::string, int>;

TEST(ByteBudgetLru, FindReturnsTheStoredValueOrNull)
{
    Lru lru(0);
    EXPECT_EQ(lru.find("a"), nullptr);
    lru.put("a", 1, 10);
    int* a = lru.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, 1);
    *a = 5;  // the value lives in the LRU
    EXPECT_EQ(*lru.find("a"), 5);
}

TEST(ByteBudgetLru, EvictsLeastRecentlyUsedAfterTouches)
{
    Lru lru(30);
    lru.put("a", 1, 10);
    lru.put("b", 2, 10);
    lru.put("c", 3, 10);
    // Recency, most recent first: c b a. Touch a, then b: b a c.
    ASSERT_NE(lru.find("a"), nullptr);
    ASSERT_NE(lru.find("b"), nullptr);

    lru.put("d", 4, 10);  // 40 > 30: c goes
    EXPECT_EQ(lru.find("c"), nullptr);
    EXPECT_NE(lru.find("a"), nullptr);  // now a d b

    lru.put("e", 5, 20);  // 50 > 30: b, then d go
    EXPECT_EQ(lru.find("b"), nullptr);
    EXPECT_EQ(lru.find("d"), nullptr);
    EXPECT_NE(lru.find("a"), nullptr);
    EXPECT_NE(lru.find("e"), nullptr);

    const CacheStats s = lru.stats();
    EXPECT_EQ(s.insertions, 5u);
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 30u);
}

TEST(ByteBudgetLru, NeverEvictsTheKeyJustPut)
{
    Lru lru(15);
    lru.put("a", 1, 10);
    // b alone is over budget too: a goes, b stays.
    int& b = lru.put("b", 2, 20);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(lru.find("a"), nullptr);
    EXPECT_NE(lru.find("b"), nullptr);
    EXPECT_EQ(lru.stats().entries, 1u);
}

TEST(ByteBudgetLru, OversizedEntryStaysUntilTheNextPut)
{
    Lru lru(5);
    lru.put("big", 1, 100);
    EXPECT_NE(lru.find("big"), nullptr);
    EXPECT_EQ(lru.stats().bytes, 100u);
    EXPECT_EQ(lru.stats().evictions, 0u);

    lru.put("small", 2, 1);
    EXPECT_EQ(lru.find("big"), nullptr);
    EXPECT_NE(lru.find("small"), nullptr);
    EXPECT_EQ(lru.stats().bytes, 1u);
    EXPECT_EQ(lru.stats().evictions, 1u);
}

TEST(ByteBudgetLru, ZeroBudgetNeverEvicts)
{
    Lru lru(0);
    for (int i = 0; i < 100; ++i)
        lru.put("k" + std::to_string(i), i, 1u << 20);
    const CacheStats s = lru.stats();
    EXPECT_EQ(s.entries, 100u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.bytes, 100ull << 20);
}

TEST(ByteBudgetLru, RePutReplacesTheEntrysBytes)
{
    Lru lru(100);
    lru.put("a", 1, 40);
    lru.put("b", 2, 40);
    lru.put("a", 3, 50);  // 90, not 130: nothing evicted
    EXPECT_EQ(lru.stats().bytes, 90u);
    EXPECT_EQ(lru.stats().entries, 2u);
    EXPECT_EQ(lru.stats().evictions, 0u);
    EXPECT_EQ(lru.stats().insertions, 3u);
    EXPECT_EQ(*lru.find("a"), 3);

    // The re-put also refreshed a, so growing it evicts b, not a.
    lru.put("a", 4, 70);
    EXPECT_EQ(lru.find("b"), nullptr);
    EXPECT_EQ(*lru.find("a"), 4);
    EXPECT_EQ(lru.stats().bytes, 70u);
}

TEST(ByteBudgetLru, HitRateIsHitsOverLookups)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.0);  // no lookups yet
    s.hits = 1;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
    s.hits = 3;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.75);
}

} // namespace
} // namespace gmoms::serve
