/**
 * @file
 * Byte-budgeted LRU pool of warm Sessions, keyed by (dataset tag,
 * preprocessing, config fingerprint).
 *
 * GraphService acquires a Session per attempt instead of cold-building
 * one: the first job on a key builds the session and its plain
 * partition (a miss), every later job gets a copy of the pooled one (a
 * hit). A copy is O(1) and shares every view and partition
 * (session.hh), so it is the checkpoint fork: every acquire forks, and
 * forks == hits + misses. Pooled sessions hold inputs only — a fork
 * simulates; repeat jobs are answered before they get here, by the
 * ResultCache. An entry's bytes are its residentBytes() when it is
 * put, which changes only when the weighted view is added (and that
 * re-puts the entry).
 */

#ifndef GMOMS_SERVE_CHECKPOINT_POOL_HH
#define GMOMS_SERVE_CHECKPOINT_POOL_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "src/accel/session.hh"
#include "src/serve/byte_budget_lru.hh"
#include "src/serve/dataset_cache.hh"

namespace gmoms::serve
{

class CheckpointPool
{
  public:
    /** @param budget_bytes Resident-byte ceiling; 0 = unbounded. */
    explicit CheckpointPool(std::uint64_t budget_bytes)
        : pool_(budget_bytes)
    {
    }

    /**
     * A copy of the warm Session for (@p dataset_tag, @p prep, @p cfg),
     * building and pooling it on first use. @p dataset is the
     * preprocessed graph from the DatasetCache (the session adds no
     * further preprocessing). @p warm_weighted also builds the weighted
     * partition (SSSP jobs) when the pooled session lacks it.
     * Thread-safe; builds hold the pool lock (they are two orders of
     * magnitude cheaper than the simulation that follows).
     */
    Session acquire(const std::string& dataset_tag,
                    const std::string& prep, const DatasetPtr& dataset,
                    const AccelConfig& cfg, bool warm_weighted);

    /** hits: acquire found a pooled session; misses: it built one. */
    CacheStats stats() const;

  private:
    mutable std::mutex mu_;
    ByteBudgetLru<std::string, Session> pool_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_CHECKPOINT_POOL_HH
