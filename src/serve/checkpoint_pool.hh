/**
 * @file
 * Byte-budgeted LRU pool of warm SessionCheckpoints, keyed by
 * (dataset tag, preprocessing, config fingerprint).
 *
 * GraphService acquires a forked Session per attempt instead of
 * cold-building one: the first job on a key pays the partition cost
 * and populates the checkpoint (a miss), every later job forks it in
 * O(1) (a hit). Every acquire forks, so forks == hits + misses.
 * Checkpoints hold inputs only — a forked session simulates; repeat
 * jobs are answered before they get here, by the ResultCache. An
 * entry's bytes are its residentBytes() when it is put, which changes
 * only when the weighted view is added (and that re-puts the entry).
 */

#ifndef GMOMS_SERVE_CHECKPOINT_POOL_HH
#define GMOMS_SERVE_CHECKPOINT_POOL_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "src/accel/checkpoint.hh"
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
     * Fork a warm Session for (@p dataset_tag, @p prep, @p cfg),
     * building and pooling the checkpoint on first use. @p dataset is
     * the preprocessed graph from the DatasetCache (the session adds
     * no further preprocessing). @p warm_weighted additionally warms
     * the weighted partition (SSSP jobs), re-capturing a pooled
     * checkpoint that lacks it. Thread-safe; the cold build holds the
     * pool lock (it is two orders of magnitude cheaper than the
     * simulation that follows).
     */
    Session acquire(const std::string& dataset_tag,
                    const std::string& prep, const DatasetPtr& dataset,
                    const AccelConfig& cfg, bool warm_weighted);

    /** hits: acquire found a checkpoint; misses: it built one. */
    CacheStats stats() const;

  private:
    mutable std::mutex mu_;
    ByteBudgetLru<std::string, SessionCheckpoint> pool_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_CHECKPOINT_POOL_HH
