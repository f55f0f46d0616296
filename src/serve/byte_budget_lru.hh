/**
 * @file
 * ByteBudgetLru: the one byte-budgeted LRU map behind the serving
 * caches (DatasetCache, CheckpointPool, ResultCache), plus the one
 * CacheStats block they all report.
 *
 * Semantics:
 *  - find() returns the value or null and makes the entry the most
 *    recent;
 *  - put() inserts or replaces (a replace swaps the entry's bytes, it
 *    does not add to them), makes the entry the most recent, then
 *    evicts from the least-recent end until the byte total is within
 *    budget — never the key just put, so a single entry larger than
 *    the budget stays until the next put;
 *  - a budget of 0 means unbounded.
 *
 * A recency list plus an index of list iterators: a touch is a splice
 * and the victim is the list's back, so neither scans the entries.
 * No internal lock — owners synchronize. The LRU counts insertions,
 * evictions, entries and bytes; hits and misses mean different things
 * per cache, so owners count them where they decide.
 */

#ifndef GMOMS_SERVE_BYTE_BUDGET_LRU_HH
#define GMOMS_SERVE_BYTE_BUDGET_LRU_HH

#include <cstdint>
#include <list>
#include <map>
#include <utility>

namespace gmoms::serve
{

struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;  //!< puts, replacements included
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total > 0 ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

template <typename K, typename V>
class ByteBudgetLru
{
  public:
    /** @param budget_bytes byte ceiling; 0 = unbounded. */
    explicit ByteBudgetLru(std::uint64_t budget_bytes)
        : budget_(budget_bytes)
    {
    }

    /** The value under @p key, refreshed to most recent; null if
     *  absent. The pointer is valid until the entry is evicted or
     *  replaced. */
    V*
    find(const K& key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->value;
    }

    /** Insert or replace @p key at @p bytes, then evict least-recent
     *  entries until within budget. Returns the stored value, which
     *  this put never evicts. */
    V&
    put(const K& key, V value, std::uint64_t bytes)
    {
        const auto it = index_.find(key);
        if (it == index_.end()) {
            order_.push_front(Node{key, std::move(value), bytes});
            index_.emplace(key, order_.begin());
        } else {
            Node& node = *it->second;
            bytes_ -= node.bytes;
            node.value = std::move(value);
            node.bytes = bytes;
            order_.splice(order_.begin(), order_, it->second);
        }
        bytes_ += bytes;
        ++insertions_;
        while (budget_ > 0 && bytes_ > budget_ && order_.size() > 1) {
            const Node& victim = order_.back();
            bytes_ -= victim.bytes;
            index_.erase(victim.key);
            order_.pop_back();
            ++evictions_;
        }
        return order_.front().value;
    }

    /** Insertions, evictions, entries and bytes; hits and misses are
     *  the owner's to fill in. */
    CacheStats
    stats() const
    {
        CacheStats s;
        s.insertions = insertions_;
        s.evictions = evictions_;
        s.entries = order_.size();
        s.bytes = bytes_;
        return s;
    }

  private:
    struct Node
    {
        K key;
        V value;
        std::uint64_t bytes;
    };
    using List = std::list<Node>;

    const std::uint64_t budget_;
    List order_;  //!< most recent first
    std::map<K, typename List::iterator> index_;
    std::uint64_t bytes_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace gmoms::serve

#endif // GMOMS_SERVE_BYTE_BUDGET_LRU_HH
