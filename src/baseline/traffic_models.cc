#include "src/baseline/traffic_models.hh"

#include <functional>
#include <unordered_set>
#include <vector>

#include "src/cache/cache_array.hh"

namespace gmoms
{

void
forEachSourceRead(const PartitionedGraph& pg,
                  const std::function<void(NodeId)>& fn)
{
    for (std::uint32_t d = 0; d < pg.qd(); ++d)
        for (std::uint32_t s = 0; s < pg.qs(); ++s)
            for (const std::uint32_t w : pg.shardWords(s, d))
                fn(pg.srcIntervalBase(s) + edgeword::srcOff(w));
}

std::uint64_t
traditionalCacheTraffic(const PartitionedGraph& pg,
                        std::uint64_t cache_bytes)
{
    CacheArray cache(cache_bytes, 4);
    std::uint64_t lines = 0;
    forEachSourceRead(pg, [&](NodeId n) {
        const Addr line = lineOf(Addr{n} * 4);
        if (!cache.lookup(line)) {
            cache.fill(line);
            ++lines;
        }
    });
    return lines * kLineBytes;
}

std::uint64_t
idealCacheTraffic(const PartitionedGraph& pg)
{
    std::unordered_set<Addr> lines;
    forEachSourceRead(pg, [&](NodeId n) {
        lines.insert(lineOf(Addr{n} * 4));
    });
    return static_cast<std::uint64_t>(lines.size()) * kLineBytes;
}

} // namespace gmoms
