/**
 * @file
 * Tests for the serving layer (src/serve/): admission-control
 * rejection paths, deterministic scheduling (identical completion
 * order and bit-identical per-job results under worker counts 1/2/8 —
 * the GMOMS_JOBS values the CI matrix pins), the deadline -> retry ->
 * degraded-fallback policy, dataset-cache LRU eviction correctness
 * (a rebuilt dataset gives bit-identical results), pooled warm
 * sessions that hold inputs only and share their views with every
 * fork, an idle worker taking a job queued behind a
 * running one, and TSan-clean concurrent submit/poll.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/accel/checkpoint.hh"
#include "src/obs/latency.hh"
#include "src/serve/dataset_cache.hh"
#include "src/serve/scheduler.hh"
#include "src/serve/service.hh"

namespace gmoms::serve
{
namespace
{

/** Small machine so a unit test's jobs run in milliseconds. */
AccelConfig
tinyConfig()
{
    return AccelConfig::preset(MomsConfig::twoLevel(4), /*pes=*/4,
                               /*channels=*/2);
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
    spec.priority = priority;
    spec.config = tinyConfig();
    return spec;
}

bool
anyContains(const std::vector<std::string>& reasons,
            const std::string& needle)
{
    for (const std::string& r : reasons)
        if (r.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// AdmissionQueue policy (pure, no threads)
// ---------------------------------------------------------------------

TEST(AdmissionQueue, PriorityThenFairnessThenFifo)
{
    AdmissionQueue q(/*max_queue_depth=*/16, /*per_tenant_quota=*/16);
    // Tenant a floods at priority 0; tenant b arrives later at the
    // same priority; one urgent job at priority 2 jumps everything.
    EXPECT_TRUE(q.tryAdmit(1, "a", 0).empty());
    EXPECT_TRUE(q.tryAdmit(2, "a", 0).empty());
    EXPECT_TRUE(q.tryAdmit(3, "a", 0).empty());
    EXPECT_TRUE(q.tryAdmit(4, "b", 0).empty());
    EXPECT_TRUE(q.tryAdmit(5, "b", 2).empty());

    // Highest priority first.
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(5));
    // b has 1 dispatch, a has 0: fairness picks a's oldest.
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(1));
    // Tie (1 each): b's remaining job has... b dispatched 1, a
    // dispatched 1 -> tie on fairness, lowest id wins: job 2 (a).
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(2));
    // a at 2 dispatches, b at 1: b's job 4 next.
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(4));
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(3));
    EXPECT_EQ(q.pop(), std::nullopt);

    EXPECT_EQ(q.running(), 5u);
    for (JobId id = 1; id <= 5; ++id)
        q.complete(id);
    EXPECT_TRUE(q.idle());
}

TEST(AdmissionQueue, BoundedQueueAndTenantQuotaRejectWithReasons)
{
    AdmissionQueue q(/*max_queue_depth=*/2, /*per_tenant_quota=*/2);
    EXPECT_TRUE(q.tryAdmit(1, "a", 0).empty());
    EXPECT_TRUE(q.tryAdmit(2, "b", 0).empty());
    // Queue full.
    EXPECT_TRUE(anyContains(q.tryAdmit(3, "c", 0), "queue saturated"));

    // Tenant quota counts running jobs too: dispatch a's job, admit
    // another for a (1 running + 1 queued = quota), then reject.
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(1));
    EXPECT_TRUE(q.tryAdmit(4, "a", 0).empty());
    EXPECT_TRUE(anyContains(q.tryAdmit(5, "a", 0), "at quota"));
    // Completion frees the tenant's quota slot (drain the queue first
    // so the depth bound doesn't mask the quota decision).
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(2));
    EXPECT_EQ(q.pop(), std::make_optional<JobId>(4));
    q.complete(1);
    q.complete(4);
    EXPECT_TRUE(q.tryAdmit(6, "a", 0).empty());
}

// ---------------------------------------------------------------------
// LatencyStats
// ---------------------------------------------------------------------

TEST(LatencyStats, NearestRankPercentiles)
{
    LatencyStats s;
    EXPECT_EQ(s.percentile(99), 0.0);
    for (int i = 100; i >= 1; --i)  // unsorted insert order
        s.add(i);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

// ---------------------------------------------------------------------
// Structured up-front validation
// ---------------------------------------------------------------------

TEST(JobValidation, AllProblemsReportedInOneRejection)
{
    JobSpec spec;
    spec.tenant = "";
    spec.dataset = "NOPE";
    spec.algo = "Dijkstra";
    ValidatedJob v = validateJobSpec(spec);
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(anyContains(v.problems, "tenant"));
    EXPECT_TRUE(anyContains(v.problems, "dataset"));
    EXPECT_TRUE(anyContains(v.problems, "algorithm"));
    EXPECT_GE(v.problems.size(), 3u);
}

TEST(JobValidation, ResolvedConfigProblemsAreIncluded)
{
    JobSpec spec = tinyJob("t", "PageRank");
    spec.config->num_pes = 0;        // two config-level problems the
    spec.config->max_threads = 0;    // admission path must surface
    ValidatedJob v = validateJobSpec(spec);
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(anyContains(v.problems, "config: num_pes"));
    EXPECT_TRUE(anyContains(v.problems, "config: max_threads"));
}

TEST(JobValidation, SourceBoundsCheckedAgainstDatasetProfile)
{
    JobSpec spec = tinyJob("t", "BFS");
    spec.source = 1'000'000'000;
    ValidatedJob v = validateJobSpec(spec);
    EXPECT_TRUE(anyContains(v.problems, "source node"));
    // PageRank ignores the source: same spec is fine.
    spec.algo = "PageRank";
    EXPECT_TRUE(validateJobSpec(spec).ok());
}

TEST(JobValidation, UnknownPresetListsKnownNames)
{
    JobSpec spec = tinyJob("t", "PageRank");
    spec.config.reset();
    spec.preset = "warp9";
    ValidatedJob v = validateJobSpec(spec);
    EXPECT_TRUE(anyContains(v.problems, "unknown accelerator preset"));
    EXPECT_TRUE(anyContains(v.problems, "paper18x16"));
}

// ---------------------------------------------------------------------
// DatasetCache
// ---------------------------------------------------------------------

TEST(DatasetCacheTest, SharesOneBuildUnderAmpleBudget)
{
    DatasetCache cache(/*budget=*/1ull << 30);
    const DatasetPtr a = cache.get("WT");
    const DatasetPtr b = cache.get("WT");
    EXPECT_EQ(a.get(), b.get());
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
}

TEST(DatasetCacheTest, LruEvictionUnderByteBudgetRebuildsBitIdentical)
{
    // Budget fits exactly one WT-sized entry: the second key must
    // evict the first (LRU), and a later reload must rebuild a graph
    // bit-identical to the evicted one.
    DatasetCache probe(0);
    const DatasetPtr wt = probe.get("WT", Preprocessing::DbgHash);
    const std::uint64_t one = wt->bytes();

    DatasetCache cache(one + one / 2);
    const DatasetPtr first = cache.get("WT", Preprocessing::DbgHash);
    cache.get("WT", Preprocessing::None);  // second key: evicts first
    EXPECT_EQ(cache.stats().evictions, 1u);

    const DatasetPtr rebuilt = cache.get("WT", Preprocessing::DbgHash);
    EXPECT_NE(rebuilt.get(), first.get());  // really was evicted
    ASSERT_EQ(rebuilt->numNodes(), first->numNodes());
    ASSERT_EQ(rebuilt->numEdges(), first->numEdges());
    const std::vector<Edge>& ea = first->edges();
    const std::vector<Edge>& eb = rebuilt->edges();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_EQ(ea[i].src, eb[i].src) << "edge " << i;
        ASSERT_EQ(ea[i].dst, eb[i].dst) << "edge " << i;
    }
    ASSERT_EQ(first->weights(), rebuilt->weights());
    // The evicted handle stayed valid the whole time (shared
    // ownership): eviction dropped the cache's reference only.
    EXPECT_EQ(first->numEdges(), wt->numEdges());
}

TEST(DatasetCacheTest, SingleOversizedEntryStaysUsable)
{
    DatasetCache cache(/*budget=*/1);  // smaller than any dataset
    const DatasetPtr a = cache.get("WT");
    ASSERT_TRUE(a);
    // Newest entry is never evicted by its own insertion...
    EXPECT_EQ(cache.stats().entries, 1u);
    // ...but the next insertion evicts it.
    cache.get("WT", Preprocessing::None);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

// ---------------------------------------------------------------------
// GraphService: deterministic scheduling across worker counts
// ---------------------------------------------------------------------

std::vector<JobSpec>
mixedJobs()
{
    // Three tenants, mixed priorities and algorithms: enough structure
    // that priority, fairness and FIFO tie-breaks all matter.
    std::vector<JobSpec> jobs;
    jobs.push_back(tinyJob("alice", "PageRank", 0));
    jobs.push_back(tinyJob("bob", "SCC", 1));
    jobs.push_back(tinyJob("alice", "BFS", 1));
    jobs.push_back(tinyJob("carol", "PageRank", 2));
    jobs.push_back(tinyJob("bob", "PageRank", 0));
    jobs.push_back(tinyJob("alice", "SCC", 2));
    jobs.push_back(tinyJob("carol", "BFS", 0));
    jobs.push_back(tinyJob("bob", "BFS", 2));
    return jobs;
}

TEST(ServeDeterminism, CompletionOrderAndResultsMatchAcrossWorkers)
{
    // Batch mode (start_paused): submit everything, then drain. The
    // completion log and every job record must be identical whether
    // the pool has 1, 2 or 8 workers (the GMOMS_JOBS CI matrix).
    std::vector<std::vector<JobId>> logs;
    std::vector<std::vector<JobRecord>> records;

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.start_paused = true;
        GraphService service(cfg);
        std::vector<JobId> ids;
        for (const JobSpec& spec : mixedJobs()) {
            GraphService::Submitted sub = service.submit(spec);
            ASSERT_TRUE(sub.ok());
            ids.push_back(sub.id);
        }
        EXPECT_EQ(service.drain(), ids.size());
        logs.push_back(service.completionLog());
        std::vector<JobRecord> recs;
        for (JobId id : ids) {
            std::optional<JobRecord> rec = service.poll(id);
            ASSERT_TRUE(rec.has_value());
            EXPECT_EQ(rec->state, JobState::Completed);
            recs.push_back(*rec);
        }
        records.push_back(std::move(recs));
    }

    for (std::size_t w = 1; w < logs.size(); ++w) {
        EXPECT_EQ(logs[w], logs[0]) << "completion order diverged";
        for (std::size_t i = 0; i < records[0].size(); ++i) {
            const JobRecord& a = records[0][i];
            const JobRecord& b = records[w][i];
            EXPECT_EQ(a.cycles, b.cycles) << "job " << a.id;
            EXPECT_EQ(a.iterations, b.iterations) << "job " << a.id;
            EXPECT_EQ(a.edges_processed, b.edges_processed)
                << "job " << a.id;
            EXPECT_EQ(a.dram_bytes_read, b.dram_bytes_read)
                << "job " << a.id;
            EXPECT_EQ(a.values_checksum, b.values_checksum)
                << "job " << a.id;
            EXPECT_EQ(a.gteps, b.gteps) << "job " << a.id;
        }
    }

    // The dispatch policy itself: strictly by priority band — all
    // priority-2 jobs {4, 6, 8} complete before the priority-1 jobs
    // {2, 3}, which complete before the priority-0 jobs {1, 5, 7}.
    // (Order within a band is the fairness/FIFO tie-break, covered by
    // the AdmissionQueue unit test.)
    const std::vector<JobId>& log = logs[0];
    ASSERT_EQ(log.size(), 8u);
    const std::vector<JobId> band2(log.begin(), log.begin() + 3);
    const std::vector<JobId> band1(log.begin() + 3, log.begin() + 5);
    const std::vector<JobId> band0(log.begin() + 5, log.end());
    EXPECT_EQ(std::set<JobId>(band2.begin(), band2.end()),
              (std::set<JobId>{4, 6, 8}));
    EXPECT_EQ(std::set<JobId>(band1.begin(), band1.end()),
              (std::set<JobId>{2, 3}));
    EXPECT_EQ(std::set<JobId>(band0.begin(), band0.end()),
              (std::set<JobId>{1, 5, 7}));
}

// ---------------------------------------------------------------------
// GraphService: admission-control rejection paths
// ---------------------------------------------------------------------

TEST(ServeAdmission, SaturatedQueueAndQuotaRejectStructured)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.start_paused = true;  // nothing dispatches: queue fills
    cfg.max_queue_depth = 2;
    cfg.per_tenant_quota = 2;
    // Quota binds on *in-flight* jobs: the repeats below must actually
    // simulate (not complete at submit time from the result cache) for
    // the queue to stay occupied across submits.
    cfg.enable_result_cache = false;
    GraphService service(cfg);

    EXPECT_TRUE(service.submit(tinyJob("a", "PageRank")).ok());
    EXPECT_TRUE(service.submit(tinyJob("b", "PageRank")).ok());
    GraphService::Submitted full =
        service.submit(tinyJob("c", "PageRank"));
    EXPECT_FALSE(full.ok());
    EXPECT_TRUE(anyContains(full.rejected, "queue saturated"));

    // Invalid specs are rejected with the full problem list and never
    // consume queue slots.
    JobSpec bad = tinyJob("", "Dijkstra");
    bad.dataset = "NOPE";
    GraphService::Submitted rej = service.submit(bad);
    EXPECT_FALSE(rej.ok());
    EXPECT_GE(rej.rejected.size(), 3u);

    EXPECT_EQ(service.drain(), 2u);
    // Queue drained: admission opens again, quota now binds per
    // tenant.
    EXPECT_TRUE(service.submit(tinyJob("a", "PageRank")).ok());
    EXPECT_TRUE(service.submit(tinyJob("a", "PageRank")).ok());
    GraphService::Submitted quota =
        service.submit(tinyJob("a", "PageRank"));
    EXPECT_FALSE(quota.ok());
    EXPECT_TRUE(anyContains(quota.rejected, "at quota"));
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 7u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.rejected + stats.terminal(), stats.submitted);
}

// ---------------------------------------------------------------------
// GraphService: deadline -> retry -> degraded fallback
// ---------------------------------------------------------------------

TEST(ServeDeadline, BudgetOverrunRetriesThenDegrades)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);

    JobSpec doomed = tinyJob("a", "PageRank");
    doomed.cycle_budget = 2000;  // far below what the run needs
    doomed.max_retries = 1;
    GraphService::Submitted sub = service.submit(doomed);
    ASSERT_TRUE(sub.ok());
    service.drain();

    std::optional<JobRecord> rec = service.poll(sub.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::Degraded);
    EXPECT_TRUE(rec->used_fallback);
    // 1 try + 1 retry on the requested config, then the fallback run.
    EXPECT_EQ(rec->attempts, 3u);
    EXPECT_FALSE(rec->error.empty());  // why it degraded
    EXPECT_GT(rec->cycles, 2000u);     // the fallback really ran
    EXPECT_GT(rec->values_checksum, 0u);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.degraded, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.fallback_runs, 1u);
}

TEST(ServeDeadline, FallbackDisabledFailsTerminally)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.enable_fallback = false;
    GraphService service(cfg);

    JobSpec doomed = tinyJob("a", "SCC");
    doomed.cycle_budget = 2000;
    doomed.max_retries = 0;
    GraphService::Submitted sub = service.submit(doomed);
    ASSERT_TRUE(sub.ok());
    service.drain();

    std::optional<JobRecord> rec = service.poll(sub.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::Failed);
    EXPECT_EQ(rec->attempts, 1u);
    EXPECT_FALSE(rec->error.empty());
    EXPECT_EQ(service.stats().failed, 1u);
    // Terminal accounting still balances: nothing lost.
    EXPECT_EQ(service.stats().terminal() + service.stats().rejected,
              service.stats().submitted);
}

TEST(ServeDeadline, RetriesStopAtTheCap)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.enable_fallback = false;
    GraphService service(cfg);

    // A budget of one cycle fails every attempt.
    JobSpec doomed = tinyJob("a", "BFS");
    doomed.cycle_budget = 1;
    doomed.max_retries = kMaxRetries;
    GraphService::Submitted sub = service.submit(doomed);
    ASSERT_TRUE(sub.ok());
    service.drain();

    std::optional<JobRecord> rec = service.poll(sub.id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::Failed);
    EXPECT_EQ(rec->attempts, 17u);
    EXPECT_EQ(service.stats().retries, 16u);

    // One more is refused up front, naming the field.
    doomed.max_retries = kMaxRetries + 1;
    const GraphService::Submitted over = service.submit(doomed);
    EXPECT_FALSE(over.ok());
    ASSERT_EQ(over.rejected.size(), 1u);
    EXPECT_TRUE(anyContains(over.rejected, "max_retries"));
}

// ---------------------------------------------------------------------
// GraphService: eviction-transparent results
// ---------------------------------------------------------------------

TEST(ServeCache, EvictedDatasetRebuildsToIdenticalJobResults)
{
    // A cache too small to hold both keys: every alternation evicts.
    // Job results must not care. The result cache is off, so the
    // repeat of `a` rebuilds its evicted dataset instead of being
    // answered at dispatch.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_budget_bytes = 1;
    cfg.enable_result_cache = false;
    GraphService service(cfg);

    JobSpec a = tinyJob("t", "PageRank");
    JobSpec b = tinyJob("t", "PageRank");
    b.prep = Preprocessing::None;  // second cache key

    const JobId a1 = service.submit(a).id;
    const JobId b1 = service.submit(b).id;
    const JobId a2 = service.submit(a).id;
    service.drain();

    EXPECT_GE(service.datasetCache().stats().evictions, 1u);
    EXPECT_EQ(service.datasetCache().stats().misses, 3u);  // a, b, a
    const JobRecord ra1 = *service.poll(a1);
    const JobRecord ra2 = *service.poll(a2);
    EXPECT_EQ(ra1.state, JobState::Completed);
    EXPECT_EQ(ra2.state, JobState::Completed);
    EXPECT_EQ(ra1.cycles, ra2.cycles);
    EXPECT_EQ(ra1.values_checksum, ra2.values_checksum);
    EXPECT_EQ(service.poll(b1)->state, JobState::Completed);
}

// ---------------------------------------------------------------------
// GraphService: warm-session checkpoint pool
// ---------------------------------------------------------------------

TEST(ServeCheckpoint, RepeatJobsForkThePoolWithIdenticalResults)
{
    // PageRank, SCC and BFS on one (dataset, prep, config) key share
    // one pooled session; a repeat of one of them is answered by the
    // result cache and forks nothing.
    const std::vector<std::string> algos = {"PageRank", "SCC", "BFS"};
    // Cold-built references: each runs as the first job of a fresh
    // service, so its pool misses and builds the session itself.
    std::vector<JobRecord> refs;
    for (const std::string& algo : algos) {
        ServiceConfig cold_cfg;
        cold_cfg.workers = 1;
        GraphService cold(cold_cfg);
        const JobId id = cold.submit(tinyJob("t", algo)).id;
        cold.drain();
        EXPECT_EQ(cold.stats().checkpoints.misses, 1u);
        EXPECT_EQ(cold.stats().checkpoints.hits, 0u);
        refs.push_back(*cold.poll(id));
    }

    ServiceConfig cfg;
    cfg.workers = 1;
    GraphService service(cfg);
    std::vector<JobId> ids;
    for (const std::string& algo : algos)
        ids.push_back(service.submit(tinyJob("t", algo)).id);
    service.drain();
    ids.push_back(service.submit(tinyJob("t", "PageRank")).id);
    refs.push_back(refs.front());
    service.drain();

    // Forked jobs are bit-identical to the cold-built runs, and so is
    // the repeat.
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const JobRecord rec = *service.poll(ids[i]);
        EXPECT_EQ(rec.state, JobState::Completed);
        EXPECT_EQ(rec.values_checksum, refs[i].values_checksum);
        EXPECT_EQ(rec.cycles, refs[i].cycles);
        EXPECT_FALSE(rec.replay.empty());
        EXPECT_TRUE(ReplayDescriptor::parse(rec.replay).has_value());
    }
    EXPECT_TRUE(service.poll(ids.back())->from_cache);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.checkpoints.misses, 1u);  // first job built it
    EXPECT_EQ(stats.checkpoints.hits, 2u);
    EXPECT_EQ(stats.result_cache.hits, 1u);
    EXPECT_GT(stats.checkpoints.bytes, 0u);
    const std::string json = stats.toJson().str();
    EXPECT_NE(json.find("\"checkpoint_forks\":3"), std::string::npos)
        << json;
}

TEST(ServeCheckpoint, ForksShareThePooledViews)
{
    // A fork is a copy of the pooled session: it shares the partitions
    // instead of rebuilding them, so acquiring never adds bytes.
    CheckpointPool pool(0);
    const DatasetPtr wt =
        DatasetCache(0).get("WT", Preprocessing::DbgHash);
    const AccelConfig cfg = tinyConfig();

    const Session a = pool.acquire("WT", "dbg+hash", wt, cfg, false);
    const std::uint64_t bytes = pool.stats().bytes;
    const Session b = pool.acquire("WT", "dbg+hash", wt, cfg, false);
    EXPECT_EQ(&a.partition(), &b.partition());
    EXPECT_FALSE(b.weightedBuilt());  // a plain key warms no SSSP view
    EXPECT_EQ(pool.stats().bytes, bytes);

    AccelConfig sssp_cfg = cfg;
    sssp_cfg.max_cycles /= 2;  // a second key, first acquired for SSSP
    const Session c = pool.acquire("WT", "dbg+hash", wt, sssp_cfg, true);
    const std::uint64_t both = pool.stats().bytes;
    const Session d = pool.acquire("WT", "dbg+hash", wt, sssp_cfg, true);
    ASSERT_TRUE(c.weightedBuilt());
    EXPECT_EQ(&c.partition(), &d.partition());
    EXPECT_EQ(&c.weightedPartition(), &d.weightedPartition());
    EXPECT_EQ(pool.stats().bytes, both);

    // The first SSSP on the plain key adds only the weighted view.
    const Session e = pool.acquire("WT", "dbg+hash", wt, cfg, true);
    EXPECT_TRUE(e.weightedBuilt());
    EXPECT_EQ(&e.partition(), &a.partition());

    const CacheStats stats = pool.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.insertions, 3u);  // one put per build
}

TEST(ServeCheckpoint, ResidentBytesDoNotGrowWithDistinctJobs)
{
    // A pooled session holds inputs, not results: twenty distinct BFS
    // sources on one key leave its resident bytes where the first
    // job left them.
    ServiceConfig cfg;
    cfg.workers = 1;
    GraphService service(cfg);
    const auto bfsFrom = [](NodeId source) {
        JobSpec spec = tinyJob("t", "BFS");
        spec.source = source;
        return spec;
    };
    ASSERT_TRUE(service.submit(bfsFrom(0)).ok());
    service.drain();
    const CacheStats after_first = service.stats().checkpoints;
    for (NodeId source = 1; source < 20; ++source)
        ASSERT_TRUE(service.submit(bfsFrom(source)).ok());
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 20u);
    EXPECT_EQ(stats.result_cache.hits, 0u);
    EXPECT_EQ(stats.checkpoints.entries, 1u);
    EXPECT_EQ(stats.checkpoints.hits + stats.checkpoints.misses, 20u);
    EXPECT_GT(after_first.bytes, 0u);
    EXPECT_EQ(stats.checkpoints.bytes, after_first.bytes);
}

TEST(ServeCheckpoint, FailedJobsCarryAParseableReplayDescriptor)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.enable_fallback = false;
    GraphService service(cfg);
    JobSpec doomed = tinyJob("t", "PageRank");
    doomed.cycle_budget = 50;  // nothing finishes in 50 cycles
    doomed.max_retries = 0;
    const JobId id = service.submit(doomed).id;
    service.drain();

    const JobRecord rec = *service.poll(id);
    ASSERT_EQ(rec.state, JobState::Failed);
    const std::optional<ReplayDescriptor> rd =
        ReplayDescriptor::parse(rec.replay);
    ASSERT_TRUE(rd.has_value());
    EXPECT_EQ(rd->dataset, "WT");
    EXPECT_EQ(rd->algo, "PageRank");
    EXPECT_EQ(rd->iterations, 2u);
}

// ---------------------------------------------------------------------
// GraphService: dispatch
// ---------------------------------------------------------------------

TEST(ServeDispatch, QueuedJobStartsWhileAnotherRuns)
{
    // Two workers and a first job already running: the second job must
    // start on the idle worker, not wait behind the first.
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    const auto stateOf = [&](JobId id) { return service.poll(id)->state; };

    JobSpec slow = tinyJob("a", "PageRank");
    slow.iterations = 20;  // runs for well over 50 ms
    const JobId first = service.submit(slow).id;
    while (stateOf(first) == JobState::Queued)
        std::this_thread::yield();

    const JobId second = service.submit(tinyJob("b", "BFS")).id;
    bool overlapped = false;
    for (;;) {
        // Second, then first: a first job still unfinished after the
        // second left the queue means the two ran side by side.
        const bool started = stateOf(second) != JobState::Queued;
        const bool first_done = service.poll(first)->terminal();
        if (started || first_done) {
            overlapped = started && !first_done;
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_TRUE(overlapped)
        << "the second job waited for the first to finish";
    service.drain();
    EXPECT_EQ(service.stats().completed, 2u);
}

// ---------------------------------------------------------------------
// GraphService: concurrent submit/poll (ThreadSanitizer coverage)
// ---------------------------------------------------------------------

TEST(ServeConcurrency, ConcurrentSubmitPollDrainIsClean)
{
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.max_queue_depth = 64;
    GraphService service(cfg);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 4;
    std::atomic<std::uint64_t> ok_submits{0};
    std::vector<std::thread> submitters;
    std::vector<std::vector<JobId>> ids(kThreads);
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                JobSpec spec = tinyJob(
                    "tenant" + std::to_string(t),
                    i % 2 ? "PageRank" : "BFS",
                    static_cast<std::uint32_t>(i % 3));
                GraphService::Submitted sub =
                    service.submit(std::move(spec));
                if (sub.ok()) {
                    ids[t].push_back(sub.id);
                    ++ok_submits;
                }
            }
        });

    // A poller hammering poll()/stats()/completionLog() while jobs run.
    std::atomic<bool> stop{false};
    std::thread poller([&] {
        while (!stop.load()) {
            for (JobId id = 1; id <= kThreads * kPerThread; ++id)
                (void)service.poll(id);
            (void)service.stats();
            (void)service.completionLog();
        }
    });

    for (std::thread& t : submitters)
        t.join();
    service.drain();
    stop = true;
    poller.join();

    // Zero lost jobs: every admitted id is terminal, counters balance.
    std::uint64_t terminal = 0;
    for (const std::vector<JobId>& batch : ids)
        for (JobId id : batch) {
            std::optional<JobRecord> rec = service.poll(id);
            ASSERT_TRUE(rec.has_value());
            EXPECT_TRUE(rec->terminal()) << "job " << id;
            ++terminal;
        }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(terminal, ok_submits.load());
    EXPECT_EQ(stats.terminal(), ok_submits.load());
    EXPECT_EQ(stats.submitted, stats.rejected + stats.terminal());
    EXPECT_EQ(service.completionLog().size(), stats.terminal());
}

} // namespace
} // namespace gmoms::serve
