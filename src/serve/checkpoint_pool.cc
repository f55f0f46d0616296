#include "src/serve/checkpoint_pool.hh"

#include <sstream>
#include <utility>

#include "src/accel/session.hh"

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
    SessionCheckpoint* cp = pool_.find(key);
    if (cp)
        ++hits_;
    else
        ++misses_;
    // Build on a miss; on a hit, re-capture only to add a weighted view
    // the checkpoint lacks (the first SSSP on a key first used by a
    // plain algorithm), sharing everything already built.
    if (!cp || (warm_weighted && !cp->hasWeighted())) {
        Session warm =
            cp ? cp->restore()
               : SessionBuilder().dataset(dataset).config(cfg).build();
        SessionCheckpoint fresh =
            SessionCheckpoint::capture(warm, warm_weighted);
        const std::uint64_t bytes = fresh.residentBytes();
        cp = &pool_.put(key, std::move(fresh), bytes);
    }
    return cp->restore();
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
