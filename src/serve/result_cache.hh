/**
 * @file
 * Deterministic result cache for the serving layer (ISSUE 9 tentpole):
 * most real graph-query traffic repeats (same dataset, same algorithm,
 * same source), and every simulation here is deterministic, so a repeat
 * query need not simulate at all — the same way MOMS converts repeat
 * misses into merged subentries in the source paper, the result cache
 * converts repeat jobs into O(1) lookups. It is the service's only
 * result memo.
 *
 * Key: `dataset|prep|algo|source|iterations|configFingerprint` — every
 * input that can change the result summary. configFingerprint()
 * (src/accel/checkpoint.hh) covers the resolved AccelConfig including
 * cluster topology, and deliberately *ignores* the bit-exact engine
 * mode (full_tick_engine): a result cached under one engine mode is
 * valid under the other because the engine-equivalence tests pin them
 * bit-identical. The cached value is the full JobRecord result
 * summary (cycles, edges, DRAM bytes, gteps, values_checksum, replay
 * descriptor), so a hit answers poll() exactly as the cold run did.
 *
 * Caching policy (enforced by the service, documented here):
 *  - only JobState::Completed results are inserted — a Degraded run
 *    executed the fallback config, not the keyed one, and a Failed run
 *    has no result;
 *  - the service looks a job up at submit and again at dispatch, so a
 *    repeat queued behind its first instance is answered once that
 *    instance has finished;
 *  - the service counts the hits and misses: a job counts one hit
 *    wherever it is answered, and one miss only when it is dispatched
 *    to simulate.
 *
 * A ByteBudgetLru over the entries: they are tiny (a key string + a
 * fixed summary), the budget exists so a long-lived service with
 * unbounded key cardinality cannot grow without bound. Thread-compat
 * like AdmissionQueue: externally synchronized by the service mutex.
 */

#ifndef GMOMS_SERVE_RESULT_CACHE_HH
#define GMOMS_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <string>

#include "src/serve/byte_budget_lru.hh"
#include "src/serve/job.hh"

namespace gmoms::serve
{

class ResultCache
{
  public:
    /** The cached summary: every result field of JobRecord plus the
     *  replay descriptor of the run that produced it. */
    struct Entry
    {
        Cycle cycles = 0;
        std::uint32_t iterations = 0;
        EdgeId edges_processed = 0;
        std::uint64_t dram_bytes_read = 0;
        std::uint64_t dram_bytes_written = 0;
        double moms_hit_rate = 0;
        double gteps = 0;
        std::uint64_t values_checksum = 0;
        std::string replay;

        /** The summary of a Completed @p rec. */
        static Entry fromRecord(const JobRecord& rec);
        /** Complete @p rec as a cache hit: Completed, from_cache, and
         *  this summary and replay descriptor. */
        void fill(JobRecord& rec) const;
    };

    /** @param budget_bytes byte ceiling; 0 = unbounded. */
    explicit ResultCache(std::uint64_t budget_bytes) : lru_(budget_bytes)
    {
    }

    /** The canonical cache key (documented in docs/MODEL.md). @p spec
     *  must be valid; @p fingerprint is configFingerprint() of the
     *  *resolved* config (ValidatedJob::config). */
    static std::string keyFor(const JobSpec& spec,
                              std::uint64_t fingerprint);

    /** Lookup + LRU touch; null on a miss. */
    const Entry* find(const std::string& key) { return lru_.find(key); }

    /** Insert (or refresh) @p key at its byte estimate. Deterministic
     *  repeat runs always produce the same entry, so refreshing is
     *  idempotent. */
    void put(const std::string& key, Entry entry);

    /** Everything but hits and misses, which the service counts. */
    CacheStats stats() const { return lru_.stats(); }

  private:
    ByteBudgetLru<std::string, Entry> lru_;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_RESULT_CACHE_HH
