/**
 * @file
 * Tests for the deterministic result cache (src/serve/result_cache.hh)
 * and its wiring into GraphService: hits return the bit-identical
 * values_checksum of the cold run under both engine modes
 * (configFingerprint deliberately ignores the mode), eviction
 * under a tiny budget rebuilds correctly, distinct config fingerprints
 * never collide, cluster (boards > 1) jobs cache correctly, Degraded
 * results are never cached, and batch-mode duplicates queued before
 * their first instance finished are answered at dispatch, in dispatch
 * order. The LRU itself is tested in test_byte_budget_lru.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/accel/checkpoint.hh"
#include "src/serve/result_cache.hh"
#include "src/serve/service.hh"

namespace gmoms::serve
{
namespace
{

AccelConfig
tinyConfig()
{
    return AccelConfig::preset(MomsConfig::twoLevel(4), 4, 2);
}

JobSpec
tinyJob(const std::string& tenant, const std::string& algo,
        std::uint32_t priority = 0)
{
    JobSpec spec;
    spec.tenant = tenant;
    spec.dataset = "WT";
    spec.algo = algo;
    spec.iterations = 2;
    spec.config = tinyConfig();
    spec.priority = priority;
    return spec;
}

ResultCache::Entry
entryWithChecksum(std::uint64_t checksum)
{
    ResultCache::Entry e;
    e.cycles = 100;
    e.values_checksum = checksum;
    return e;
}

/** Cold-run a spec on a cache-less service: the checksum oracle. */
std::uint64_t
coldChecksum(const JobSpec& spec)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.enable_result_cache = false;
    GraphService service(cfg);
    const auto sub = service.submit(spec);
    EXPECT_TRUE(sub.ok());
    service.drain();
    const auto rec = service.poll(sub.id);
    EXPECT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::Completed);
    return rec->values_checksum;
}

// ---------------------------------------------------------------------
// Unit tests on the cache itself
// ---------------------------------------------------------------------

TEST(ResultCacheKey, CanonicalizesDefaultIterations)
{
    JobSpec implicit = tinyJob("a", "PageRank");
    implicit.iterations = 0;  // "algorithm default"
    JobSpec explicit_cap = tinyJob("a", "PageRank");
    explicit_cap.iterations = 10;  // PageRank's default, spelled out
    EXPECT_EQ(ResultCache::keyFor(implicit, 1),
              ResultCache::keyFor(explicit_cap, 1));

    JobSpec bfs = tinyJob("a", "BFS");
    bfs.iterations = 0;
    JobSpec bfs_cap = tinyJob("a", "BFS");
    bfs_cap.iterations = 1000;  // convergence-kernel default
    EXPECT_EQ(ResultCache::keyFor(bfs, 1),
              ResultCache::keyFor(bfs_cap, 1));
}

TEST(ResultCacheKey, SeparatesEveryInput)
{
    const JobSpec base = tinyJob("a", "BFS");
    const std::string key = ResultCache::keyFor(base, 7);

    JobSpec other = base;
    other.source = 5;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.algo = "SSSP";
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.prep = Preprocessing::Hash;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    other = base;
    other.iterations = 3;
    EXPECT_NE(ResultCache::keyFor(other, 7), key);

    // Same spec, different resolved-config fingerprint: never collide.
    EXPECT_NE(ResultCache::keyFor(base, 8), key);

    // Tenant is deliberately NOT part of the key: results are tenant-
    // agnostic (the simulation has no tenant input), so tenants share.
    other = base;
    other.tenant = "b";
    EXPECT_EQ(ResultCache::keyFor(other, 7), key);
}

TEST(ResultCacheUnit, MissThenHitAndStats)
{
    ResultCache cache(0);  // unbounded
    EXPECT_EQ(cache.find("k1"), nullptr);
    cache.put("k1", entryWithChecksum(42));
    const ResultCache::Entry* hit = cache.find("k1");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->values_checksum, 42u);
    EXPECT_EQ(hit->cycles, 100u);

    // The cache reports what it holds; hits and misses are counted by
    // the service, which answers jobs (ServiceResultCache.* below).
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
}

TEST(ResultCacheUnit, EntryRoundTripsThroughARecord)
{
    JobRecord done;
    done.state = JobState::Completed;
    done.cycles = 1234;
    done.iterations = 3;
    done.edges_processed = 99;
    done.dram_bytes_read = 4096;
    done.dram_bytes_written = 512;
    done.moms_hit_rate = 0.25;
    done.gteps = 1.5;
    done.values_checksum = 0xfeed;
    done.replay = "gmoms-replay v1 dataset=WT";

    JobRecord answered;
    answered.id = 7;
    answered.tenant = "b";
    ResultCache::Entry::fromRecord(done).fill(answered);
    EXPECT_EQ(answered.state, JobState::Completed);
    EXPECT_TRUE(answered.from_cache);
    EXPECT_EQ(answered.id, 7u);
    EXPECT_EQ(answered.tenant, "b");
    EXPECT_EQ(answered.cycles, done.cycles);
    EXPECT_EQ(answered.iterations, done.iterations);
    EXPECT_EQ(answered.edges_processed, done.edges_processed);
    EXPECT_EQ(answered.dram_bytes_read, done.dram_bytes_read);
    EXPECT_EQ(answered.dram_bytes_written, done.dram_bytes_written);
    EXPECT_EQ(answered.moms_hit_rate, done.moms_hit_rate);
    EXPECT_EQ(answered.gteps, done.gteps);
    EXPECT_EQ(answered.values_checksum, done.values_checksum);
    EXPECT_EQ(answered.replay, done.replay);
}

TEST(ResultCacheUnit, EvictsLruNeverTheJustInserted)
{
    // Budget fits roughly one entry: every insert evicts the LRU
    // survivor, never the entry being inserted.
    ResultCache probe(0);
    probe.put("k0", entryWithChecksum(0));
    const std::uint64_t one_entry = probe.stats().bytes;

    ResultCache cache(one_entry + one_entry / 2);
    cache.put("k1", entryWithChecksum(1));
    cache.put("k2", entryWithChecksum(2));  // evicts k1 (LRU)
    EXPECT_EQ(cache.find("k1"), nullptr);
    ASSERT_NE(cache.find("k2"), nullptr);

    cache.put("k3", entryWithChecksum(3));  // evicts k2
    const ResultCache::Entry* k3 = cache.find("k3");
    ASSERT_NE(k3, nullptr);
    EXPECT_EQ(k3->values_checksum, 3u);
    EXPECT_GE(cache.stats().evictions, 2u);
    EXPECT_LE(cache.stats().entries, 2u);
}

TEST(ResultCacheUnit, RefreshIsIdempotent)
{
    ResultCache cache(0);
    cache.put("k", entryWithChecksum(9));
    const std::uint64_t one_entry = cache.stats().bytes;
    cache.put("k", entryWithChecksum(9));
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(s.bytes, one_entry);
    EXPECT_EQ(cache.find("k")->values_checksum, 9u);
}

// ---------------------------------------------------------------------
// Service integration: the bit-exactness contract
// ---------------------------------------------------------------------

TEST(ServiceResultCache, HitsAcrossEngineModes)
{
    // configFingerprint() deliberately ignores full_tick_engine (pinned
    // bit-identical by the engine-equivalence tests), so one cold run
    // must serve repeats under both modes.
    const std::uint64_t golden = coldChecksum(tinyJob("a", "PageRank"));

    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    // Cold run under the default (idle-aware) engine.
    const auto cold = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.from_cache);
    service.drain();

    for (bool full_tick : {false, true}) {
        JobSpec spec = tinyJob("a", "PageRank");
        spec.config->full_tick_engine = full_tick;
        const auto sub = service.submit(spec);
        ASSERT_TRUE(sub.ok());
        EXPECT_TRUE(sub.from_cache) << "full_tick=" << full_tick;
        const auto rec = service.poll(sub.id);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, JobState::Completed);
        EXPECT_TRUE(rec->from_cache);
        EXPECT_EQ(rec->values_checksum, golden);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 2u);
    EXPECT_EQ(stats.result_cache_completed, 2u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.submitted,
              stats.rejected + stats.completed + stats.degraded +
                  stats.failed);
}

TEST(ServiceResultCache, HitCopiesTheWholeResultSummary)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    const auto cold = service.submit(tinyJob("a", "BFS"));
    ASSERT_TRUE(cold.ok());
    service.drain();
    const auto cold_rec = service.poll(cold.id);
    ASSERT_TRUE(cold_rec.has_value());

    const auto hit = service.submit(tinyJob("b", "BFS"));
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.from_cache);
    const auto rec = service.poll(hit.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->cycles, cold_rec->cycles);
    EXPECT_EQ(rec->iterations, cold_rec->iterations);
    EXPECT_EQ(rec->edges_processed, cold_rec->edges_processed);
    EXPECT_EQ(rec->dram_bytes_read, cold_rec->dram_bytes_read);
    EXPECT_EQ(rec->dram_bytes_written, cold_rec->dram_bytes_written);
    EXPECT_EQ(rec->values_checksum, cold_rec->values_checksum);
    EXPECT_EQ(rec->replay, cold_rec->replay);
    // The hit appears in the completion log like any terminal job.
    const auto log = service.completionLog();
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.back(), hit.id);
}

TEST(ServiceResultCache, EvictionRebuildsCorrectly)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.result_cache_budget_bytes = 1;  // at most one entry survives
    GraphService service(cfg);

    const auto first = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(first.ok());
    service.drain();
    const std::uint64_t golden =
        service.poll(first.id)->values_checksum;

    // The BFS insertion blows the 1-byte budget and evicts the LRU
    // survivor — the PageRank entry (sequential drains make the
    // insertion order deterministic).
    const auto other = service.submit(tinyJob("a", "BFS"));
    ASSERT_TRUE(other.ok());
    service.drain();

    // The evicted repeat re-simulates and lands on the same checksum.
    const auto again = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.from_cache);
    service.drain();
    EXPECT_EQ(service.poll(again.id)->values_checksum, golden);
    EXPECT_GE(service.stats().result_cache.evictions, 1u);
}

TEST(ServiceResultCache, DifferentFingerprintsNeverCollide)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    const auto base = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(base.ok());
    service.drain();

    // A cycle budget folds into the resolved config's max_cycles, so
    // the fingerprint — and the key — differ: no hit.
    JobSpec budgeted = tinyJob("a", "PageRank");
    budgeted.cycle_budget = 1u << 24;  // generous: still completes
    const auto sub = service.submit(budgeted);
    ASSERT_TRUE(sub.ok());
    EXPECT_FALSE(sub.from_cache);
    service.drain();
    EXPECT_EQ(service.poll(sub.id)->state, JobState::Completed);

    // A genuinely different accelerator config (1 memory channel
    // instead of 2 — note the "degraded" preset IS tinyConfig(), so a
    // preset spelling of the same config would rightly hit) likewise
    // keys its own entry.
    JobSpec narrower = tinyJob("a", "PageRank");
    narrower.config = AccelConfig::preset(MomsConfig::twoLevel(4), 4, 1);
    const auto sub2 = service.submit(narrower);
    ASSERT_TRUE(sub2.ok());
    EXPECT_FALSE(sub2.from_cache);
    service.drain();
    EXPECT_EQ(service.stats().result_cache.hits, 0u);
}

TEST(ServiceResultCache, ClusterJobsCacheCorrectly)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    // BFS run to its fixpoint: the fixpoint of an integer kernel is
    // unique, so the cluster checksum equals the single-board one.
    // (A truncating iteration cap or PageRank's MOMS-arrival-order f32
    // sums would legitimately differ per board topology — and that is
    // fine, because the config fingerprint keys them separately.)
    JobSpec cluster = tinyJob("a", "BFS");
    cluster.iterations = 0;  // algorithm default: run to the fixpoint
    cluster.boards = 2;
    const auto cold = service.submit(cluster);
    ASSERT_TRUE(cold.ok());
    service.drain();
    const auto cold_rec = service.poll(cold.id);
    ASSERT_TRUE(cold_rec.has_value());
    EXPECT_EQ(cold_rec->state, JobState::Completed);

    const auto hit = service.submit(cluster);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(service.poll(hit.id)->values_checksum,
              cold_rec->values_checksum);

    // Cluster determinism contract: boards=2 computes the same values
    // as boards=1, so the cached cluster checksum equals the
    // single-board cold run.
    JobSpec single = tinyJob("a", "BFS");
    single.iterations = 0;
    EXPECT_EQ(cold_rec->values_checksum, coldChecksum(single));
}

TEST(ServiceResultCache, DegradedResultsAreNeverCached)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    JobSpec doomed = tinyJob("a", "PageRank");
    doomed.cycle_budget = 2000;  // far below what the run needs
    doomed.max_retries = 0;
    const auto first = service.submit(doomed);
    ASSERT_TRUE(first.ok());
    service.drain();
    ASSERT_EQ(service.poll(first.id)->state, JobState::Degraded);

    // The fallback ran a different config than the keyed one: the
    // repeat must simulate again, not hit.
    const auto again = service.submit(doomed);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.from_cache);
    service.drain();
    EXPECT_EQ(service.stats().result_cache.hits, 0u);
    EXPECT_EQ(service.stats().result_cache.insertions, 0u);
}

TEST(ServiceResultCache, BatchModeRepeatsHitAtDispatch)
{
    // In paused (batch) mode nothing has finished when the duplicates
    // are submitted, so all three queue. With one worker the first
    // simulates and the other two are answered from the result cache
    // when they are dispatched, published in dispatch order.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.start_paused = true;
    GraphService service(cfg);
    const auto a = service.submit(tinyJob("a", "PageRank"));
    const auto b = service.submit(tinyJob("a", "PageRank"));
    const auto c = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_FALSE(a.from_cache || b.from_cache || c.from_cache);
    service.drain();

    const JobRecord ra = *service.poll(a.id);
    EXPECT_EQ(ra.state, JobState::Completed);
    EXPECT_FALSE(ra.from_cache);
    for (const JobId id : {b.id, c.id}) {
        const JobRecord rec = *service.poll(id);
        EXPECT_EQ(rec.state, JobState::Completed);
        EXPECT_TRUE(rec.from_cache) << "job " << id;
        EXPECT_EQ(rec.values_checksum, ra.values_checksum);
        EXPECT_EQ(rec.cycles, ra.cycles);
        EXPECT_EQ(rec.attempts, 0u);
        EXPECT_EQ(rec.prep_seconds, 0.0);
        EXPECT_EQ(rec.sim_seconds, 0.0);
    }
    EXPECT_EQ(service.completionLog(),
              (std::vector<JobId>{a.id, b.id, c.id}));

    // One hit per answered job, one miss per simulated job.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 2u);
    EXPECT_EQ(stats.result_cache.misses, 1u);
    EXPECT_EQ(stats.result_cache_completed, 2u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.checkpoints.hits + stats.checkpoints.misses, 1u);

    // After the batch finished, a live repeat hits at submit.
    const auto live = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(live.from_cache);
    stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 3u);
    EXPECT_EQ(stats.result_cache.misses, 1u);
    EXPECT_EQ(stats.submitted, stats.rejected + stats.terminal());
}

TEST(ServiceResultCache, DisabledCacheNeverHits)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.enable_result_cache = false;
    GraphService service(cfg);
    EXPECT_EQ(service.resultCache(), nullptr);
    const auto a = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(a.ok());
    service.drain();
    const auto b = service.submit(tinyJob("a", "PageRank"));
    ASSERT_TRUE(b.ok());
    EXPECT_FALSE(b.from_cache);
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.result_cache.hits, 0u);
    EXPECT_EQ(stats.result_cache.misses, 0u);
    EXPECT_EQ(stats.result_cache_completed, 0u);
}

} // namespace
} // namespace gmoms::serve
