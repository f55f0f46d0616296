/**
 * @file
 * Subentry buffer: per-miss bookkeeping shared by all MSHRs of a bank.
 *
 * Each pending read (primary or secondary miss) occupies one subentry
 * carrying the client's tag and the word offset within the line. MSHR
 * entries chain their subentries through a free-list-managed pool —
 * the RAM-resident equivalent of the paper's URAM subentry buffers
 * (32,768 slots per shared bank, 49,152 per private bank).
 *
 * The pool's host storage grows with occupancy: a slot is built the
 * first time it is needed, so a bank that never has more than k
 * subentries in flight holds k slots, not its capacity. Slots are
 * handed out exactly as from a free list threaded through all
 * capacity() slots up front — freed slots LIFO, then never-used
 * indices ascending — so indices, stalls and stats do not depend on
 * how much storage exists.
 */

#ifndef GMOMS_CACHE_SUBENTRY_STORE_HH
#define GMOMS_CACHE_SUBENTRY_STORE_HH

#include <cstdint>
#include <vector>

#include "src/cache/mshr.hh"
#include "src/sim/types.hh"

namespace gmoms
{

class SubentryStore
{
  public:
    struct Subentry
    {
        std::uint64_t tag = 0;
        std::uint32_t client = 0;
        std::uint16_t line_offset = 0;  //!< byte offset within the line
        std::uint32_t next = kNoSubentry;
    };

    struct Stats
    {
        std::uint64_t allocations = 0;
        std::uint64_t alloc_failures = 0;  //!< pool exhausted -> stall
        std::uint64_t peak_occupancy = 0;
    };

    explicit SubentryStore(std::uint32_t capacity);

    /**
     * Append a subentry to @p entry's list.
     * @return false when the pool is exhausted (the bank stalls).
     */
    bool append(MshrEntry& entry, std::uint64_t tag, std::uint32_t client,
                std::uint16_t line_offset);

    /**
     * Detach @p entry's list head for draining. Returns kNoSubentry when
     * the list is empty.
     */
    std::uint32_t head(const MshrEntry& entry) const
    {
        return entry.subentry_head;
    }

    /** Subentry @p index. The reference is valid only until the next
     *  append(), which may grow (and so move) the storage. */
    const Subentry& at(std::uint32_t index) const
    {
        return pool_[index];
    }

    /** Free one subentry, returning the index of the next in the chain. */
    std::uint32_t free(std::uint32_t index);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t occupancy() const { return occupancy_; }
    bool full() const
    {
        return free_head_ == kNoSubentry && pool_.size() == capacity_;
    }

    const Stats& stats() const { return stats_; }

  private:
    /** Every slot handed out so far: its size is the peak occupancy. */
    std::vector<Subentry> pool_;
    std::uint32_t capacity_;
    std::uint32_t free_head_ = kNoSubentry;  //!< freed slots, LIFO
    std::uint32_t occupancy_ = 0;
    Stats stats_;
};

} // namespace gmoms

#endif // GMOMS_CACHE_SUBENTRY_STORE_HH
