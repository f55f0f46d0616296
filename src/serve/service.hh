/**
 * @file
 * GraphService: the serving layer's front door (ISSUE 5 tentpole).
 *
 * Turns the library into a long-running multi-tenant service: tenants
 * submit JobSpecs; the service validates them up front (one structured
 * rejection listing every problem), applies admission control (bounded
 * queue, per-tenant quotas), schedules deterministically by priority
 * with per-tenant fairness (AdmissionQueue), shares datasets through a
 * byte-budgeted LRU DatasetCache, and runs each job on a
 * src/sim/parallel worker pool under the PR-4 watchdog with a
 * timeout -> retry -> degrade-to-fallback-preset policy. Per-job
 * latency (queue wait, prep, sim, total) feeds LatencyStats; stats()
 * exports p50/p95/p99 + throughput + rejection rate.
 *
 * Determinism contract (pinned by tests/test_serve.cc):
 *  - Per-job results are bit-identical for any worker count — each job
 *    runs on the re-entrant simulation core with a deterministic
 *    config, exactly as sweep() jobs do.
 *  - The *completion log* is ordered by dispatch index (a reorder
 *    buffer holds back out-of-order finishers), so in batch mode
 *    (start_paused: submit everything, then drain()) the full
 *    completion order is identical under GMOMS_JOBS=1/2/8. In live
 *    mode dispatch interleaves with arrivals, so the order reflects
 *    arrival timing — but every admitted job still ends terminally and
 *    publishes exactly once.
 *
 * Failure policy per job:
 *  1. up to 1 + max_retries attempts with the requested config; the
 *     cycle-budget deadline and the watchdog abort via CheckError;
 *  2. then, if the service has fallback enabled, one attempt on the
 *     fallback ("degraded") preset with the fallback budget ->
 *     JobState::Degraded on success;
 *  3. else JobState::Failed with the last error. Nothing is ever
 *     dropped: submitted == rejected + completed + degraded + failed.
 */

#ifndef GMOMS_SERVE_SERVICE_HH
#define GMOMS_SERVE_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/latency.hh"
#include "src/serve/checkpoint_pool.hh"
#include "src/serve/dataset_cache.hh"
#include "src/serve/job.hh"
#include "src/serve/rate_limiter.hh"
#include "src/serve/result_cache.hh"
#include "src/serve/scheduler.hh"
#include "src/sim/parallel.hh"
#include "src/sim/report.hh"

namespace gmoms::serve
{

struct ServiceConfig
{
    /** Worker threads; 0 = ThreadPool::defaultWorkers() (GMOMS_JOBS). */
    unsigned workers = 0;

    /** Admission control (see AdmissionQueue). */
    std::size_t max_queue_depth = 256;
    std::size_t per_tenant_quota = 64;  //!< 0 = unlimited

    /** Accept submissions but dispatch nothing until resume()/drain():
     *  batch mode, where completion order is fully deterministic. */
    bool start_paused = false;

    /** Dataset-cache byte budget; 0 = unbounded. */
    std::uint64_t cache_budget_bytes = 2048ull << 20;

    /** Serve repeat (dataset, prep, config) jobs from a pool of warm
     *  session checkpoints: the first job on a key pays the partition
     *  cost, later jobs fork the checkpoint and simulate on it.
     *  Checkpoints hold inputs, not results (identical jobs are the
     *  result cache's). Off = every attempt cold-builds (the
     *  pre-checkpoint behavior). */
    bool enable_checkpoints = true;
    /** Checkpoint-pool resident-byte budget; 0 = unbounded. */
    std::uint64_t checkpoint_budget_bytes = 1024ull << 20;

    /** Serve repeat queries from the deterministic result cache: a
     *  job whose (dataset, prep, algo, source, iterations, config
     *  fingerprint) key already holds a *Completed* result gets the
     *  pinned values_checksum in O(1) without simulation — at submit
     *  (no admission either), or at dispatch when it was queued before
     *  its first instance finished. Off = every job simulates. */
    bool enable_result_cache = true;
    /** Result-cache byte budget; 0 = unbounded. Entries are ~300 B so
     *  the default holds hundreds of thousands of distinct queries. */
    std::uint64_t result_cache_budget_bytes = 64ull << 20;

    /** Per-tenant token-bucket rate limit ahead of the admission
     *  quotas; <= 0 disables (the default — admission depth/quota
     *  remain the only pushback). */
    double rate_limit_hz = 0;
    /** Bucket capacity; <= 0 = max(1, rate_limit_hz). */
    double rate_limit_burst = 0;

    /** Degrade-instead-of-fail: after all retries, run once on
     *  @ref fallback with @ref fallback_budget. */
    bool enable_fallback = true;
    /** Fallback preset name (presetByName). */
    std::string fallback_preset = "degraded";
    /** Cycle budget of the fallback attempt; 0 = the fallback
     *  config's own max_cycles (the generous library default). */
    std::uint64_t fallback_budget = 0;
};

/** Aggregate service counters + SLO latency distributions. */
struct ServiceStats
{
    std::uint64_t submitted = 0;  //!< submit() calls
    std::uint64_t rejected = 0;   //!< refused at admission
    std::uint64_t rate_limited = 0;  //!< subset of rejected (429s)
    std::uint64_t completed = 0;
    std::uint64_t result_cache_completed = 0;  //!< subset of completed
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;        //!< failed attempts re-tried
    std::uint64_t fallback_runs = 0;  //!< fallback attempts started

    LatencyStats queue_wait;
    LatencyStats prep;
    LatencyStats sim;
    LatencyStats total;

    double wall_seconds = 0;  //!< service lifetime at stats() time
    std::uint64_t queued = 0;   //!< admission snapshot at stats() time
    std::uint64_t running = 0;  //!< dispatched, not yet terminal
    CacheStats cache;         //!< the dataset cache
    CacheStats checkpoints;   //!< zeros when pool disabled
    CacheStats result_cache;  //!< zeros when cache disabled
    RateLimiter::Stats rate;  //!< zeros when limiter off

    std::uint64_t terminal() const
    {
        return completed + degraded + failed;
    }
    double
    jobsPerSecond() const
    {
        return wall_seconds > 0
                   ? static_cast<double>(terminal()) / wall_seconds
                   : 0.0;
    }
    double
    rejectionRate() const
    {
        return submitted > 0
                   ? static_cast<double>(rejected) /
                         static_cast<double>(submitted)
                   : 0.0;
    }

    /**
     * THE one service-statistics serialization (ISSUE 9 satellite):
     * admission counters, latency percentiles, dataset cache,
     * checkpoint pool, result cache and rate limiter, as one flat JSON
     * block (the payload of BENCH_serve.json records and of every
     * protocol stats response). Schema documented in docs/MODEL.md.
     */
    JsonReport toJson() const;
};

class GraphService
{
  public:
    explicit GraphService(ServiceConfig cfg = {});
    /** Drains every admitted job, then joins the pool. */
    ~GraphService();

    GraphService(const GraphService&) = delete;
    GraphService& operator=(const GraphService&) = delete;

    /** submit() outcome: an id, or the full list of rejection
     *  reasons (spec problems and/or admission-control pushback). */
    struct Submitted
    {
        JobId id = kInvalidJob;
        std::vector<std::string> rejected;
        /** Refused by the per-tenant token bucket (a 429, not a quota
         *  rejection): retry_after_seconds says when to come back. */
        bool rate_limited = false;
        double retry_after_seconds = 0;
        /** Answered from the result cache: the id is terminal
         *  (Completed) already, no simulation was scheduled. */
        bool from_cache = false;

        bool ok() const { return id != kInvalidJob; }
    };

    /**
     * Validate + admit @p spec. Never throws on a bad job: every
     * problem comes back in Submitted::rejected. Thread-safe.
     */
    Submitted submit(JobSpec spec);

    /** Snapshot of an admitted job's record; nullopt for unknown ids
     *  (including rejected submissions, which get no id). */
    std::optional<JobRecord> poll(JobId id) const;

    /** Start dispatching (no-op unless start_paused). */
    void resume();

    /**
     * Run until every admitted job is terminal and published. Implies
     * resume(). New submissions during drain are allowed and drained
     * too. Returns the number of terminal jobs.
     */
    std::uint64_t drain();

    /** Ids in publication order (dispatch-ordered; see file header). */
    std::vector<JobId> completionLog() const;

    ServiceStats stats() const;

    DatasetCache& datasetCache() { return cache_; }
    /** Null when ServiceConfig::enable_checkpoints is false. */
    const CheckpointPool* checkpointPool() const
    {
        return ckpt_pool_.get();
    }
    /** Null when ServiceConfig::enable_result_cache is false. */
    const ResultCache* resultCache() const
    {
        return result_cache_.get();
    }
    unsigned workers() const { return pool_.workers(); }

  private:
    /** What a queued or running job needs beyond its record; erased
     *  when the job publishes (result-cache hits never get one). */
    struct PendingJob
    {
        JobSpec spec;
        AccelConfig config;  //!< resolved by validateJobSpec
        std::string result_key;  //!< ResultCache::keyFor; "" = cache off
        WallTimer admitted;          //!< starts at admission
        std::uint64_t dispatch_idx = 0;
    };

    /** Worker body: dispatch-run-publish until the queue drains. */
    void drainerLoop();
    /** Spawn drainers until one is free for every queued job — a
     *  drainer running a job is not — capped at the worker count.
     *  Caller holds mu_. */
    void spawnDrainersLocked();
    /** Hand the terminal record of dispatched job @p id to the reorder
     *  buffer and publish what is ready. Caller holds mu_. */
    void finishLocked(JobId id, std::uint64_t dispatch_idx);
    /** Publish in dispatch order whatever finished. Caller holds mu_. */
    void publishReadyLocked();
    /** One simulation attempt; fills @p rec result fields on success.
     *  @p replay is the attempt's ReplayDescriptor serialization,
     *  prepended to any diagnostic dump the run produces. */
    void runAttempt(const JobSpec& spec, const AccelConfig& cfg,
                    const DatasetPtr& dataset, JobRecord& rec,
                    const std::string& replay);

    const ServiceConfig cfg_;
    const AccelConfig fallback_config_;
    DatasetCache cache_;
    std::unique_ptr<CheckpointPool> ckpt_pool_;  //!< null = disabled
    std::unique_ptr<ResultCache> result_cache_;  //!< null = disabled
    std::unique_ptr<RateLimiter> limiter_;       //!< null = disabled
    ThreadPool pool_;
    WallTimer lifetime_;

    mutable std::mutex mu_;
    std::condition_variable idle_cv_;
    AdmissionQueue queue_;
    std::map<JobId, JobRecord> records_;  //!< every admitted job
    std::map<JobId, PendingJob> pending_;  //!< queued or running only
    JobId next_id_ = 1;
    bool paused_ = false;
    bool closing_ = false;
    unsigned active_drainers_ = 0;

    // Reorder buffer: dispatch_idx -> finished job, published in order.
    std::uint64_t dispatch_count_ = 0;
    std::uint64_t next_publish_ = 0;
    std::map<std::uint64_t, JobId> finished_;
    std::vector<JobId> completion_log_;

    // Aggregates (guarded by mu_).
    ServiceStats stats_;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_SERVICE_HH
