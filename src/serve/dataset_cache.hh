/**
 * @file
 * DatasetCache: bounded, shared, immutable dataset store for the
 * serving layer and the bench sweeps.
 *
 * Replaces bench_common::loadDataset's unbounded process-lifetime
 * memoization with an LRU cache under an explicit byte budget: a
 * long-running service (or a long sweep over many datasets and
 * preprocessing variants) no longer grows memory without bound.
 *
 * Semantics:
 *  - Keyed by (tag, preprocessing, nd hint); the cached value is the
 *    fully built + preprocessed graph, shared immutably by pointer —
 *    every concurrent session/sweep worker references one build.
 *  - One build per key: the first caller of a missing key builds, every
 *    concurrent caller of the same key waits on that one build (the
 *    once-per-key contract). Waiters count as hits; misses count
 *    builds started. A failed build is forgotten, so a later call
 *    retries it.
 *  - Completed graphs live in a ByteBudgetLru; in-flight builds live
 *    beside it and are never evictable. Eviction only drops the
 *    cache's reference: jobs still holding the shared_ptr keep their
 *    graph alive, so an eviction can never invalidate a running job.
 *  - A rebuilt entry is bit-identical to the evicted one (dataset
 *    builds are deterministic in their seed), so eviction is invisible
 *    to results — only to latency. test_serve pins this.
 *  - The most recently inserted entry is never evicted by its own
 *    insertion: a single dataset larger than the budget stays cached
 *    (over budget) until something newer lands.
 *
 * budget_bytes == 0 means unbounded (the old memoization behavior).
 */

#ifndef GMOMS_SERVE_DATASET_CACHE_HH
#define GMOMS_SERVE_DATASET_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "src/graph/coo.hh"
#include "src/graph/reorder.hh"
#include "src/serve/byte_budget_lru.hh"

namespace gmoms::serve
{

using DatasetPtr = std::shared_ptr<const CooGraph>;

class DatasetCache
{
  public:
    explicit DatasetCache(std::uint64_t budget_bytes = 0);

    /**
     * The preprocessed stand-in for Table II dataset @p tag (see
     * bench_common::loadDataset, which now delegates here): built on
     * first use with @p prep applied at interval size @p nd_hint (0 =
     * dataset-geometry default), then served from cache until evicted.
     */
    DatasetPtr get(const std::string& tag,
                   Preprocessing prep = Preprocessing::DbgHash,
                   std::uint32_t nd_hint = 0);

    /** Entries and bytes count completed graphs only. */
    CacheStats stats() const;

    /**
     * Process-wide instance backing bench_common::loadDataset. Budget
     * from GMOMS_DATASET_CACHE_MB (default 2048 MB — roomy enough that
     * the bench suite never evicts and sweep outputs stay byte-stable,
     * bounded enough that a runaway sweep cannot eat the host).
     */
    static DatasetCache& process();

  private:
    using Key = std::tuple<std::string, int, std::uint32_t>;

    mutable std::mutex mu_;
    ByteBudgetLru<Key, DatasetPtr> built_;
    std::map<Key, std::shared_future<DatasetPtr>> building_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_DATASET_CACHE_HH
