#include "src/serve/checkpoint_pool.hh"

#include <sstream>
#include <utility>

#include "src/accel/checkpoint.hh"

namespace gmoms::serve
{

namespace
{

std::string
poolKey(const std::string& dataset_tag, const std::string& prep,
        std::uint64_t fingerprint)
{
    std::ostringstream os;
    os << dataset_tag << '|' << prep << '|' << std::hex << fingerprint;
    return os.str();
}

} // namespace

Session
CheckpointPool::acquire(const std::string& dataset_tag,
                        const std::string& prep,
                        const DatasetPtr& dataset,
                        const AccelConfig& cfg, bool warm_weighted)
{
    const std::string key =
        poolKey(dataset_tag, prep, configFingerprint(cfg));

    std::lock_guard<std::mutex> lock(mu_);
    Session* warm = pool_.find(key);
    if (warm)
        ++hits_;
    else
        ++misses_;
    // Build on a miss; on a hit, rebuild only to add a weighted view
    // the pooled session lacks (the first SSSP on a key first used by a
    // plain algorithm), sharing everything already built.
    if (!warm || (warm_weighted && !warm->weightedBuilt())) {
        Session fresh =
            warm ? *warm
                 : SessionBuilder().dataset(dataset).config(cfg).build();
        fresh.partition();
        if (warm_weighted)
            fresh.weightedPartition();
        const std::uint64_t bytes = fresh.residentBytes();
        warm = &pool_.put(key, std::move(fresh), bytes);
    }
    return *warm;
}

CacheStats
CheckpointPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s = pool_.stats();
    s.hits = hits_;
    s.misses = misses_;
    return s;
}

} // namespace gmoms::serve
