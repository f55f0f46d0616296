#include "src/serve/result_cache.hh"

#include <utility>

#include "src/graph/reorder.hh"

namespace gmoms::serve
{

std::string
ResultCache::keyFor(const JobSpec& spec, std::uint64_t fingerprint)
{
    // Iterations are part of the key because spec 0 ("algorithm
    // default") and the explicit default value run the same simulation:
    // canonicalize to the effective cap so both spellings share one
    // entry.
    const std::uint32_t iters =
        spec.iterations ? spec.iterations
                        : (spec.algo == "PageRank" ? 10u : 1000u);
    return spec.dataset + "|" + preprocessingName(spec.prep) + "|" +
           spec.algo + "|s" + std::to_string(spec.source) + "|i" +
           std::to_string(iters) + "|f" + std::to_string(fingerprint);
}

ResultCache::Entry
ResultCache::Entry::fromRecord(const JobRecord& rec)
{
    Entry e;
    e.cycles = rec.cycles;
    e.iterations = rec.iterations;
    e.edges_processed = rec.edges_processed;
    e.dram_bytes_read = rec.dram_bytes_read;
    e.dram_bytes_written = rec.dram_bytes_written;
    e.moms_hit_rate = rec.moms_hit_rate;
    e.gteps = rec.gteps;
    e.values_checksum = rec.values_checksum;
    e.replay = rec.replay;
    return e;
}

void
ResultCache::Entry::fill(JobRecord& rec) const
{
    rec.state = JobState::Completed;
    rec.from_cache = true;
    rec.cycles = cycles;
    rec.iterations = iterations;
    rec.edges_processed = edges_processed;
    rec.dram_bytes_read = dram_bytes_read;
    rec.dram_bytes_written = dram_bytes_written;
    rec.moms_hit_rate = moms_hit_rate;
    rec.gteps = gteps;
    rec.values_checksum = values_checksum;
    rec.replay = replay;
}

void
ResultCache::put(const std::string& key, Entry entry)
{
    // The key is stored twice (recency list and index).
    const std::uint64_t bytes =
        2 * key.size() + entry.replay.size() + sizeof(Entry);
    lru_.put(key, std::move(entry), bytes);
}

} // namespace gmoms::serve
