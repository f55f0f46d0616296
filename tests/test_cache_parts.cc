/**
 * @file
 * Unit tests for cache array, MSHR files and subentry store.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/cache/cache_array.hh"
#include "src/cache/mshr.hh"
#include "src/cache/subentry_store.hh"
#include "src/sim/log.hh"
#include "src/sim/rng.hh"

namespace gmoms
{
namespace
{

TEST(CacheArray, DirectMappedConflict)
{
    // 4 KiB direct-mapped: 64 sets; lines 64 sets apart conflict.
    CacheArray c(4096, 1);
    EXPECT_FALSE(c.lookup(0));
    c.fill(0);
    EXPECT_TRUE(c.lookup(0));
    const Addr conflicting = 64ull * kLineBytes;
    c.fill(conflicting);
    EXPECT_TRUE(c.lookup(conflicting));
    EXPECT_FALSE(c.lookup(0));  // evicted
}

TEST(CacheArray, SetAssociativeLru)
{
    // 2 sets x 2 ways. Lines 0, 2, 4 map to set 0.
    CacheArray c(4 * kLineBytes, 2);
    auto line = [](Addr i) { return i * kLineBytes; };
    c.fill(line(0));
    c.fill(line(2));
    EXPECT_TRUE(c.lookup(line(0)));  // 0 most recent
    c.fill(line(4));                 // evicts 2 (LRU)
    EXPECT_TRUE(c.contains(line(0)));
    EXPECT_FALSE(c.contains(line(2)));
    EXPECT_TRUE(c.contains(line(4)));
}

TEST(CacheArray, DisabledAlwaysMisses)
{
    CacheArray c(0, 1);
    EXPECT_TRUE(c.disabled());
    c.fill(0);
    EXPECT_FALSE(c.lookup(0));
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheArray, InvalidateAllDropsEverything)
{
    CacheArray c(4096, 1);
    for (Addr i = 0; i < 16; ++i)
        c.fill(i * kLineBytes);
    c.invalidateAll();
    for (Addr i = 0; i < 16; ++i)
        EXPECT_FALSE(c.contains(i * kLineBytes));
}

TEST(CacheArray, FillIsIdempotent)
{
    CacheArray c(4 * kLineBytes, 2);
    c.fill(0);
    c.fill(0);
    c.fill(2 * kLineBytes);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(2 * kLineBytes));
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(100, 1), FatalError);     // not line multiple
    EXPECT_THROW(CacheArray(3 * 64, 2), FatalError);  // lines % ways
    EXPECT_THROW(CacheArray(4096, 0), FatalError);
}

template <typename T>
class MshrFileTest : public ::testing::Test
{
  public:
    static std::unique_ptr<MshrFile> make();
};

template <>
std::unique_ptr<MshrFile>
MshrFileTest<CuckooMshr>::make()
{
    return std::make_unique<CuckooMshr>(64, 4, 8);
}

template <>
std::unique_ptr<MshrFile>
MshrFileTest<AssocMshr>::make()
{
    return std::make_unique<AssocMshr>(16);
}

using MshrImpls = ::testing::Types<CuckooMshr, AssocMshr>;
TYPED_TEST_SUITE(MshrFileTest, MshrImpls);

TYPED_TEST(MshrFileTest, InsertFindErase)
{
    auto file = TestFixture::make();
    EXPECT_EQ(file->find(0x1000), nullptr);
    MshrEntry* e = file->insert(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->line, 0x1000u);
    EXPECT_EQ(file->find(0x1000), e);
    EXPECT_EQ(file->occupancy(), 1u);
    file->erase(0x1000);
    EXPECT_EQ(file->find(0x1000), nullptr);
    EXPECT_EQ(file->occupancy(), 0u);
}

TYPED_TEST(MshrFileTest, ManyDistinctLines)
{
    auto file = TestFixture::make();
    std::set<Addr> inserted;
    Rng rng(5);
    // Fill to half capacity; every line must remain findable.
    while (inserted.size() < file->capacity() / 2) {
        const Addr line = rng.below(1 << 20) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (file->insert(line) != nullptr)
            inserted.insert(line);
    }
    for (Addr line : inserted)
        EXPECT_NE(file->find(line), nullptr);
    for (Addr line : inserted)
        file->erase(line);
    EXPECT_EQ(file->occupancy(), 0u);
}

TEST(AssocMshr, FailsWhenFull)
{
    AssocMshr file(4);
    for (Addr i = 0; i < 4; ++i)
        ASSERT_NE(file.insert(i * kLineBytes), nullptr);
    EXPECT_EQ(file.insert(100 * kLineBytes), nullptr);
    EXPECT_EQ(file.stats().insert_failures, 1u);
    file.erase(0);
    EXPECT_NE(file.insert(100 * kLineBytes), nullptr);
}

TEST(CuckooMshr, KicksRelocateWithoutLosingEntries)
{
    // Small file forces kicks at moderate load.
    CuckooMshr file(16, 2, 16);
    std::set<Addr> inserted;
    Rng rng(11);
    while (inserted.size() < 10) {
        const Addr line = rng.below(1 << 16) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (file.insert(line) != nullptr)
            inserted.insert(line);
    }
    for (Addr line : inserted)
        EXPECT_NE(file.find(line), nullptr) << line;
}

TEST(CuckooMshr, FailedInsertIsFullyUndone)
{
    // Fill a tiny file until an insert fails, then verify every
    // previously inserted line is still findable (the kick chain must
    // have been unwound).
    CuckooMshr file(8, 2, 4);
    std::set<Addr> inserted;
    Rng rng(13);
    bool failed = false;
    for (int attempts = 0; attempts < 10000 && !failed; ++attempts) {
        const Addr line = rng.below(1 << 18) * kLineBytes;
        if (inserted.count(line))
            continue;
        if (MshrEntry* e = file.insert(line)) {
            e->subentry_count = static_cast<std::uint32_t>(line);
            inserted.insert(line);
        } else {
            failed = true;
            EXPECT_EQ(file.find(line), nullptr);
        }
    }
    ASSERT_TRUE(failed) << "test did not exercise the failure path";
    EXPECT_EQ(file.occupancy(), inserted.size());
    for (Addr line : inserted) {
        MshrEntry* e = file.find(line);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->subentry_count, static_cast<std::uint32_t>(line));
    }
}

TEST(CuckooMshr, RejectsBadGeometry)
{
    EXPECT_THROW(CuckooMshr(10, 4, 8), FatalError);  // not divisible
    EXPECT_THROW(CuckooMshr(12, 4, 8), FatalError);  // 3 not pow2
    EXPECT_THROW(CuckooMshr(16, 0, 8), FatalError);
}

TEST(SubentryStore, AppendsPreserveFifoOrder)
{
    SubentryStore store(16);
    MshrEntry entry;
    entry.valid = true;
    for (std::uint64_t t = 0; t < 5; ++t)
        ASSERT_TRUE(store.append(entry, t, 0,
                                 static_cast<std::uint16_t>(4 * t)));
    EXPECT_EQ(entry.subentry_count, 5u);
    std::uint32_t cursor = store.head(entry);
    for (std::uint64_t t = 0; t < 5; ++t) {
        ASSERT_NE(cursor, kNoSubentry);
        EXPECT_EQ(store.at(cursor).tag, t);
        EXPECT_EQ(store.at(cursor).line_offset, 4 * t);
        cursor = store.free(cursor);
    }
    EXPECT_EQ(cursor, kNoSubentry);
    EXPECT_EQ(store.occupancy(), 0u);
}

TEST(SubentryStore, ExhaustionAndRecycling)
{
    SubentryStore store(4);
    MshrEntry a, b;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(store.append(a, i, 0, 0));
    EXPECT_TRUE(store.full());
    EXPECT_FALSE(store.append(b, 99, 0, 0));
    EXPECT_EQ(store.stats().alloc_failures, 1u);
    // Free one; the slot must be reusable.
    std::uint32_t head = store.head(a);
    store.free(head);
    EXPECT_FALSE(store.full());
    EXPECT_TRUE(store.append(b, 99, 0, 0));
    EXPECT_EQ(store.at(store.head(b)).tag, 99u);
}

TEST(SubentryStore, TracksPeakOccupancy)
{
    SubentryStore store(8);
    MshrEntry e;
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(store.append(e, i, 0, 0));
    std::uint32_t cursor = store.head(e);
    for (int i = 0; i < 6; ++i)
        cursor = store.free(cursor);
    EXPECT_EQ(store.stats().peak_occupancy, 6u);
    EXPECT_EQ(store.occupancy(), 0u);
}

TEST(SubentryStore, RecyclesFreedSlotsLifoAndFreshOnesAscending)
{
    SubentryStore store(6);
    EXPECT_EQ(store.capacity(), 6u);
    MshrEntry a, b, c;
    // Fresh slots come out in ascending index order.
    for (std::uint64_t t = 0; t < 3; ++t) {
        EXPECT_FALSE(store.full());
        ASSERT_TRUE(store.append(a, t, 0, 0));
        EXPECT_EQ(a.subentry_tail, t);
    }
    // Free slots 0 then 1: the next appends reuse 1, then 0, and only
    // then build fresh slots 3, 4, 5.
    std::uint32_t cursor = store.free(store.head(a));
    EXPECT_EQ(store.free(cursor), 2u);
    const std::uint32_t want[] = {1, 0, 3, 4, 5};
    for (std::uint32_t idx : want) {
        EXPECT_FALSE(store.full());
        ASSERT_TRUE(store.append(b, 10 + idx, 0, 0));
        EXPECT_EQ(b.subentry_tail, idx);
    }
    // Six of six in use: full exactly at capacity, and the refused
    // append is counted.
    EXPECT_EQ(store.occupancy(), 6u);
    EXPECT_TRUE(store.full());
    EXPECT_FALSE(store.append(c, 99, 0, 0));
    EXPECT_EQ(store.stats().alloc_failures, 1u);
    // b's chain keeps its append order across recycled slots.
    cursor = store.head(b);
    for (std::uint32_t idx : want) {
        ASSERT_EQ(cursor, idx);
        EXPECT_EQ(store.at(cursor).tag, 10u + idx);
        cursor = store.at(cursor).next;
    }
    EXPECT_EQ(cursor, kNoSubentry);
    // Freeing slot 2 reopens exactly that slot.
    EXPECT_EQ(store.free(2), kNoSubentry);
    EXPECT_FALSE(store.full());
    ASSERT_TRUE(store.append(c, 99, 0, 0));
    EXPECT_EQ(store.head(c), 2u);
    EXPECT_TRUE(store.full());
    EXPECT_EQ(store.capacity(), 6u);
    EXPECT_EQ(store.stats().allocations, 9u);
    EXPECT_EQ(store.stats().peak_occupancy, 6u);
}

TEST(SubentryStore, HandsOutSlotsLikeAFreeListThreadedUpFront)
{
    // Reference: the free list threaded through every slot at
    // construction (0 -> 1 -> ... -> n-1), popped and pushed at the
    // head. Random interleavings must get the same index every time.
    constexpr std::uint32_t kCap = 64;
    SubentryStore store(kCap);
    std::vector<std::uint32_t> ref;  // back() is the list head
    for (std::uint32_t i = kCap; i > 0; --i)
        ref.push_back(i - 1);
    std::vector<std::uint32_t> live;
    Rng rng(5);
    for (int op = 0; op < 5000; ++op) {
        if (live.empty() || rng.below(100) < 55) {
            MshrEntry e;
            const bool ok = store.append(e, 0, 0, 0);
            EXPECT_EQ(ok, !ref.empty());
            if (!ok)
                continue;
            EXPECT_EQ(e.subentry_head, ref.back());
            ref.pop_back();
            live.push_back(e.subentry_head);
        } else {
            const std::size_t k = rng.below(live.size());
            store.free(live[k]);
            ref.push_back(live[k]);
            live[k] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(store.full(), ref.empty());
        ASSERT_EQ(store.occupancy(), live.size());
        ASSERT_EQ(store.capacity(), kCap);
    }
    EXPECT_GT(store.stats().alloc_failures, 0u);
}

} // namespace
} // namespace gmoms
