#include "src/serve/dataset_cache.hh"

#include <cstdlib>
#include <utility>

#include "src/accel/accel_config.hh"
#include "src/graph/datasets.hh"
#include "src/sim/log.hh"

namespace gmoms::serve
{

DatasetCache::DatasetCache(std::uint64_t budget_bytes)
    : built_(budget_bytes)
{
}

DatasetPtr
DatasetCache::get(const std::string& tag, Preprocessing prep,
                  std::uint32_t nd_hint)
{
    // Packing is a layout-time encoding: Packed and None (and
    // DbgHashPacked and DbgHash) relabel identically, so they share
    // one cached graph.
    prep = basePreprocessing(prep);
    const Key key{tag, static_cast<int>(prep), nd_hint};
    std::promise<DatasetPtr> build;
    std::shared_future<DatasetPtr> in_flight;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (const DatasetPtr* done = built_.find(key)) {
            ++hits_;
            return *done;
        }
        const auto [it, inserted] = building_.try_emplace(key);
        if (inserted) {
            ++misses_;
            it->second = build.get_future().share();
        } else {
            ++hits_;
            in_flight = it->second;
        }
    }
    if (in_flight.valid())
        return in_flight.get();

    try {
        const DatasetProfile& profile = datasetByTag(tag);
        CooGraph g = buildDataset(profile);
        const std::uint32_t nd =
            nd_hint ? nd_hint
                    : defaultIntervalsFor(g.numNodes(), g.numEdges())
                          .first;
        CooGraph out = applyPreprocessing(std::move(g), prep, nd);
        out.name = tag;
        DatasetPtr built =
            std::make_shared<const CooGraph>(std::move(out));
        {
            std::lock_guard<std::mutex> lock(mu_);
            building_.erase(key);
            built_.put(key, built, built->bytes());
        }
        build.set_value(built);
        return built;
    } catch (...) {
        // Forget the failed key so a later call retries the build;
        // concurrent waiters still see the exception via the future.
        {
            std::lock_guard<std::mutex> lock(mu_);
            building_.erase(key);
        }
        build.set_exception(std::current_exception());
        throw;
    }
}

CacheStats
DatasetCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s = built_.stats();
    s.hits = hits_;
    s.misses = misses_;
    return s;
}

DatasetCache&
DatasetCache::process()
{
    static DatasetCache* instance = [] {
        std::uint64_t mb = 2048;
        if (const char* env = std::getenv("GMOMS_DATASET_CACHE_MB")) {
            char* end = nullptr;
            const unsigned long long v = std::strtoull(env, &end, 10);
            if (!end || *end != '\0' || env == end)
                fatal(std::string("GMOMS_DATASET_CACHE_MB=\"") + env +
                      "\" is not a number (MB; 0 = unbounded)");
            mb = v;
        }
        return new DatasetCache(mb * 1024 * 1024);
    }();
    return *instance;
}

} // namespace gmoms::serve
