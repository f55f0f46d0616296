#include "src/cache/subentry_store.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

SubentryStore::SubentryStore(std::uint32_t capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("SubentryStore capacity must be >= 1");
}

bool
SubentryStore::append(MshrEntry& entry, std::uint64_t tag,
                      std::uint32_t client, std::uint16_t line_offset)
{
    if (full()) {
        ++stats_.alloc_failures;
        return false;
    }
    const Subentry sub{tag, client, line_offset, kNoSubentry};
    std::uint32_t idx = free_head_;
    if (idx != kNoSubentry) {
        free_head_ = pool_[idx].next;
        pool_[idx] = sub;
    } else {
        // No freed slot: build the next never-used one. Growth stops
        // at capacity, so storage never exceeds what the bank models.
        idx = static_cast<std::uint32_t>(pool_.size());
        if (pool_.size() == pool_.capacity())
            pool_.reserve(std::min<std::size_t>(
                std::max<std::size_t>(16, 2 * pool_.size()), capacity_));
        pool_.push_back(sub);
    }
    if (entry.subentry_head == kNoSubentry) {
        entry.subentry_head = idx;
    } else {
        pool_[entry.subentry_tail].next = idx;
    }
    entry.subentry_tail = idx;
    ++entry.subentry_count;
    ++occupancy_;
    ++stats_.allocations;
    stats_.peak_occupancy =
        std::max<std::uint64_t>(stats_.peak_occupancy, occupancy_);
    return true;
}

std::uint32_t
SubentryStore::free(std::uint32_t index)
{
    if (index >= pool_.size())
        panic("SubentryStore::free: bad index");
    const std::uint32_t next = pool_[index].next;
    pool_[index].next = free_head_;
    free_head_ = index;
    --occupancy_;
    return next;
}

} // namespace gmoms
