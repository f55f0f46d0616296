#include "src/serve/service.hh"

#include <utility>

#include "src/accel/checkpoint.hh"
#include "src/accel/session.hh"
#include "src/check/check_config.hh"
#include "src/sim/log.hh"

namespace gmoms::serve
{

namespace
{

/** The fallback config the service constructor resolves once: the
 *  named preset with the fallback budget and the watchdog folded in. */
AccelConfig
resolveFallback(const ServiceConfig& cfg)
{
    AccelConfig fb = presetByName(cfg.fallback_preset);
    if (cfg.fallback_budget > 0)
        fb.max_cycles = cfg.fallback_budget;
    fb.checks.enabled = true;
    return fb;
}

/** The attempt's replay recipe: enough to re-run the exact failing
 *  simulation from a fresh process (docs/EXPERIMENTS.md). */
std::string
replayFor(const JobSpec& spec, const AccelConfig& cfg,
          const std::string& preset)
{
    ReplayDescriptor rd;
    rd.dataset = spec.dataset;
    rd.prep = preprocessingName(spec.prep);
    rd.algo = spec.algo;
    rd.iterations = effectiveIterations(spec.algo, spec.iterations);
    rd.source = spec.source;
    rd.preset = preset;
    rd.config_fingerprint = configFingerprint(cfg);
    return rd.serialize();
}

/** One cache's block: @p prefix + `_{hits,misses,insertions,
 *  evictions,entries,bytes,hit_rate}`. */
void
appendCache(JsonReport& r, const std::string& prefix, const CacheStats& s)
{
    r.set(prefix + "_hits", s.hits)
        .set(prefix + "_misses", s.misses)
        .set(prefix + "_insertions", s.insertions)
        .set(prefix + "_evictions", s.evictions)
        .set(prefix + "_entries", s.entries)
        .set(prefix + "_bytes", s.bytes)
        .set(prefix + "_hit_rate", s.hitRate());
}

} // namespace

JsonReport
ServiceStats::toJson() const
{
    JsonReport r;
    r.set("submitted", submitted)
        .set("rejected", rejected)
        .set("rate_limited", rate_limited)
        .set("completed", completed)
        .set("result_cache_completed", result_cache_completed)
        .set("degraded", degraded)
        .set("failed", failed)
        .set("retries", retries)
        .set("fallback_runs", fallback_runs)
        .set("rejection_rate", rejectionRate())
        .set("jobs_per_sec", jobsPerSecond())
        .set("wall_seconds", wall_seconds)
        .set("queued", queued)
        .set("running", running);
    appendLatency(r, "queue_wait", queue_wait);
    appendLatency(r, "prep", prep);
    appendLatency(r, "sim", sim);
    appendLatency(r, "total", total);
    appendCache(r, "cache", cache);
    appendCache(r, "result_cache", result_cache);
    r.set("rate_allowed", rate.allowed)
        .set("rate_limited_total", rate.limited)
        .set("rate_tenants", rate.tenants);
    appendCache(r, "checkpoint", checkpoints);
    // Every acquire forks a session.
    r.set("checkpoint_forks", checkpoints.hits + checkpoints.misses);
    return r;
}

GraphService::GraphService(ServiceConfig cfg)
    : cfg_(cfg), fallback_config_(resolveFallback(cfg)),
      cache_(cfg.cache_budget_bytes),
      checkpoints_(cfg.checkpoint_budget_bytes),
      result_cache_(cfg.enable_result_cache
                        ? std::make_unique<ResultCache>(
                              cfg.result_cache_budget_bytes)
                        : nullptr),
      limiter_(cfg.rate_limit_hz > 0
                   ? std::make_unique<RateLimiter>(cfg.rate_limit_hz,
                                                   cfg.rate_limit_burst)
                   : nullptr),
      pool_(cfg.workers),
      queue_(cfg.max_queue_depth, cfg.per_tenant_quota),
      paused_(cfg.start_paused)
{
}

GraphService::~GraphService()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closing_ = true;
    }
    drain();
    // The pool joins its workers after this (members declared before
    // pool_ stay alive until then; drain() already guaranteed no
    // drainer is still inside drainerLoop).
}

GraphService::Submitted
GraphService::submit(JobSpec spec)
{
    Submitted out;
    ValidatedJob valid = validateJobSpec(spec);

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    std::vector<std::string> reasons;
    if (closing_)
        reasons.push_back("service is shutting down");
    for (std::string& p : valid.problems)
        reasons.push_back(std::move(p));

    // Token-bucket pushback sits in front of the admission quotas: a
    // flooding tenant gets a 429-style rejection (with a retry hint)
    // before its requests contend for queue depth or quota slots.
    if (reasons.empty() && limiter_) {
        const RateLimiter::Decision d =
            limiter_->acquire(spec.tenant, lifetime_.elapsedSeconds());
        if (!d.allowed) {
            ++stats_.rejected;
            ++stats_.rate_limited;
            out.rate_limited = true;
            out.retry_after_seconds = d.retry_after_seconds;
            out.rejected.push_back(
                "tenant \"" + spec.tenant +
                "\" is rate limited (retry after " +
                std::to_string(d.retry_after_seconds) + " s)");
            return out;
        }
    }

    // Deterministic result cache: a repeat of an already-*Completed*
    // query returns its pinned result summary in O(1) — terminal at
    // submission, no admission, no simulation. A miss is not counted
    // yet: the job may still hit at dispatch.
    std::string result_key;
    if (reasons.empty() && result_cache_) {
        result_key =
            ResultCache::keyFor(spec, configFingerprint(valid.config));
        if (const ResultCache::Entry* hit =
                result_cache_->find(result_key)) {
            const WallTimer admitted;
            const JobId id = next_id_++;
            JobRecord& rec = records_[id];
            rec.id = id;
            rec.tenant = std::move(spec.tenant);
            rec.dataset = std::move(spec.dataset);
            rec.algo = std::move(spec.algo);
            rec.priority = spec.priority;
            hit->fill(rec);
            completion_log_.push_back(id);
            ++stats_.result_cache.hits;
            ++stats_.completed;
            ++stats_.result_cache_completed;
            stats_.queue_wait.add(0.0);
            stats_.prep.add(0.0);
            stats_.sim.add(0.0);
            stats_.total.add(admitted.elapsedSeconds());
            out.id = id;
            out.from_cache = true;
            return out;
        }
    }

    if (reasons.empty())
        reasons = queue_.tryAdmit(next_id_, spec.tenant, spec.priority);
    if (!reasons.empty()) {
        ++stats_.rejected;
        out.rejected = std::move(reasons);
        return out;
    }

    const JobId id = next_id_++;
    JobRecord& rec = records_[id];
    rec.id = id;
    rec.tenant = spec.tenant;
    rec.dataset = spec.dataset;
    rec.algo = spec.algo;
    rec.priority = spec.priority;
    PendingJob& job = pending_[id];
    job.spec = std::move(spec);
    job.config = std::move(valid.config);
    job.result_key = std::move(result_key);
    job.admitted.restart();
    if (!paused_)
        spawnDrainersLocked();
    out.id = id;
    return out;
}

std::optional<JobRecord>
GraphService::poll(JobId id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return std::nullopt;
    return it->second;
}

void
GraphService::resume()
{
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    spawnDrainersLocked();
}

std::uint64_t
GraphService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
    spawnDrainersLocked();
    idle_cv_.wait(lock, [&] {
        return queue_.idle() && finished_.empty() &&
               active_drainers_ == 0;
    });
    return stats_.terminal();
}

std::vector<JobId>
GraphService::completionLog() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completion_log_;
}

ServiceStats
GraphService::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServiceStats s = stats_;
    s.wall_seconds = lifetime_.elapsedSeconds();
    s.queued = queue_.queued();
    s.running = queue_.running();
    s.cache = cache_.stats();
    s.checkpoints = checkpoints_.stats();
    if (result_cache_) {
        // Hits and misses are counted here, where jobs are answered.
        s.result_cache = result_cache_->stats();
        s.result_cache.hits = stats_.result_cache.hits;
        s.result_cache.misses = stats_.result_cache.misses;
    }
    if (limiter_)
        s.rate = limiter_->stats();
    return s;
}

void
GraphService::spawnDrainersLocked()
{
    // Each running job occupies the drainer that popped it.
    while (active_drainers_ < pool_.workers() &&
           active_drainers_ < queue_.queued() + queue_.running()) {
        ++active_drainers_;
        pool_.post([this] { drainerLoop(); });
    }
}

void
GraphService::finishLocked(JobId id, std::uint64_t dispatch_idx)
{
    queue_.complete(id);
    finished_[dispatch_idx] = id;
    publishReadyLocked();
    if (queue_.idle() && finished_.empty())
        idle_cv_.notify_all();
}

void
GraphService::publishReadyLocked()
{
    while (true) {
        const auto it = finished_.find(next_publish_);
        if (it == finished_.end())
            break;
        const JobId id = it->second;
        finished_.erase(it);
        ++next_publish_;
        completion_log_.push_back(id);
        pending_.erase(id);

        const JobRecord& rec = records_.at(id);
        switch (rec.state) {
          case JobState::Completed:
            ++stats_.completed;
            break;
          case JobState::Degraded:
            ++stats_.degraded;
            break;
          case JobState::Failed:
            ++stats_.failed;
            break;
          default:
            panic("published job " + std::to_string(id) +
                  " is not terminal");
        }
        stats_.queue_wait.add(rec.queue_seconds);
        stats_.prep.add(rec.prep_seconds);
        stats_.sim.add(rec.sim_seconds);
        stats_.total.add(rec.total_seconds);
    }
}

void
GraphService::runAttempt(const JobSpec& spec, const AccelConfig& cfg,
                         const DatasetPtr& dataset, JobRecord& rec,
                         const std::string& replay)
{
    ++rec.attempts;
    WallTimer timer;
    // The dataset arrives preprocessed from the cache, so the session
    // adds no preprocessing; sharing the pointer keeps the graph alive
    // across a concurrent cache eviction. The packed-CSR half of the
    // prep travels on the config instead (the cache only relabels), so
    // it still keys the pool and fingerprints. The session is a fork
    // of the pooled warm one: repeat jobs share the partition and
    // simulate on it. The replay context is set per fork
    // (result-neutral; the pooled session keeps a neutral config).
    AccelConfig run_cfg = cfg;
    run_cfg.packed_edges = packedCsr(spec.prep);
    Session session = checkpoints_.acquire(
        spec.dataset, preprocessingName(spec.prep), dataset, run_cfg,
        spec.algo == "SSSP");
    session.setReplayContext(replay);
    const SessionResult res =
        session.run(spec.algo, spec.source, spec.iterations);

    rec.sim_seconds = timer.elapsedSeconds();
    rec.cycles = res.run.cycles;
    rec.iterations = res.run.iterations;
    rec.edges_processed = res.run.edges_processed;
    rec.dram_bytes_read = res.run.dram_bytes_read;
    rec.dram_bytes_written = res.run.dram_bytes_written;
    rec.moms_hit_rate = res.run.moms_hit_rate;
    rec.gteps = res.gteps;
    rec.values_checksum = valuesChecksum(res.run.raw_values);
}

void
GraphService::drainerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!paused_) {
        const std::optional<JobId> popped = queue_.pop();
        if (!popped)
            break;
        const JobId id = *popped;
        PendingJob& job = pending_.at(id);
        job.dispatch_idx = dispatch_count_++;
        JobRecord& live = records_.at(id);
        live.queue_seconds = job.admitted.elapsedSeconds();

        // A repeat queued before its first instance finished: answer it
        // from the result cache now, published in dispatch order.
        if (!job.result_key.empty()) {
            if (const ResultCache::Entry* hit =
                    result_cache_->find(job.result_key)) {
                hit->fill(live);
                live.total_seconds = live.queue_seconds;
                ++stats_.result_cache.hits;
                ++stats_.result_cache_completed;
                finishLocked(id, job.dispatch_idx);
                continue;
            }
            ++stats_.result_cache.misses;
        }
        live.state = JobState::Running;

        // Everything the run needs, copied out so the simulation never
        // holds the service lock.
        JobRecord rec = live;
        const JobSpec spec = job.spec;
        const AccelConfig requested = job.config;
        lock.unlock();

        std::uint64_t retries = 0;
        std::uint64_t fallback_runs = 0;
        WallTimer prep_timer;
        DatasetPtr dataset;
        rec.replay = replayFor(spec, requested,
                               spec.config ? "" : spec.preset);
        try {
            dataset = cache_.get(spec.dataset, spec.prep);
            rec.prep_seconds = prep_timer.elapsedSeconds();

            // 1 + max_retries attempts as requested, then (optionally)
            // one degraded attempt on the fallback preset. The counter
            // is wider than max_retries, so the loop always ends.
            bool done = false;
            for (std::uint64_t attempt = 0;
                 attempt <= spec.max_retries && !done; ++attempt) {
                if (attempt > 0)
                    ++retries;
                try {
                    runAttempt(spec, requested, dataset, rec,
                               rec.replay);
                    rec.state = JobState::Completed;
                    rec.error.clear();
                    done = true;
                } catch (const CheckError& e) {
                    // Headline only: the multi-KB diagnostic dump does
                    // not belong in a serving record (dump_path keeps
                    // it when configured).
                    rec.error = e.reason();
                } catch (const std::exception& e) {
                    rec.error = e.what();
                }
            }
            if (!done && cfg_.enable_fallback) {
                ++fallback_runs;
                // The degraded attempt runs a different config, so its
                // record (and any dump) carries its own descriptor.
                rec.replay = replayFor(spec, fallback_config_,
                                       cfg_.fallback_preset);
                try {
                    runAttempt(spec, fallback_config_, dataset, rec,
                               rec.replay);
                    rec.state = JobState::Degraded;
                    rec.used_fallback = true;
                    done = true;
                } catch (const CheckError& e) {
                    rec.error = e.reason();
                } catch (const std::exception& e) {
                    rec.error = e.what();
                }
            }
            if (!done)
                rec.state = JobState::Failed;
        } catch (const std::exception& e) {
            rec.prep_seconds = prep_timer.elapsedSeconds();
            rec.state = JobState::Failed;
            rec.error = std::string("dataset build failed: ") +
                        e.what();
        }

        lock.lock();
        const PendingJob& finished_job = pending_.at(id);
        rec.total_seconds = finished_job.admitted.elapsedSeconds();
        records_.at(id) = rec;
        // Only a *Completed* run is cacheable: it ran the keyed config
        // (a Degraded run executed the fallback preset instead).
        if (rec.state == JobState::Completed &&
            !finished_job.result_key.empty())
            result_cache_->put(finished_job.result_key,
                               ResultCache::Entry::fromRecord(rec));
        stats_.retries += retries;
        stats_.fallback_runs += fallback_runs;
        finishLocked(id, finished_job.dispatch_idx);
    }
    --active_drainers_;
    if (active_drainers_ == 0 && queue_.idle() && finished_.empty())
        idle_cv_.notify_all();
}

} // namespace gmoms::serve
