/**
 * @file
 * Interval-based O(M) graph partitioning (Section III-A, Fig. 3).
 *
 * Nodes are split into Qd destination intervals of Nd nodes and Qs source
 * intervals of Ns nodes; edges are bucketed into Qs x Qd shards. Shards
 * are stored destination-major so that all shards of one job (destination
 * interval) are contiguous.
 *
 * Each edge is held as the 32-bit word the accelerator reads (Fig. 4):
 * its source and destination offsets inside the shard's intervals. A
 * weighted partition keeps one 32-bit weight per edge beside the words,
 * in the same shard order.
 */

#ifndef GMOMS_GRAPH_PARTITION_HH
#define GMOMS_GRAPH_PARTITION_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/coo.hh"

namespace gmoms
{

/** Compressed-edge limits imposed by the 32-bit edge encoding (Fig. 4). */
inline constexpr std::uint32_t kMaxDstIntervalNodes = 1u << 15;
inline constexpr std::uint32_t kMaxSrcIntervalNodes = 1u << 16;

/**
 * Compressed 32-bit edge word helpers: [31] isTerminatingEdge, [30:15]
 * source offset in its source interval (16 bits), [14:0] destination
 * offset in its destination interval (15 bits).
 */
namespace edgeword
{

inline constexpr std::uint32_t kTerminating = 0x80000000u;

constexpr std::uint32_t
pack(std::uint32_t src_off, std::uint32_t dst_off)
{
    return ((src_off & 0xffffu) << 15) | (dst_off & 0x7fffu);
}

constexpr bool isTerminating(std::uint32_t w) { return w & kTerminating; }
constexpr std::uint32_t srcOff(std::uint32_t w)
{
    return (w >> 15) & 0xffffu;
}
constexpr std::uint32_t dstOff(std::uint32_t w) { return w & 0x7fffu; }

} // namespace edgeword

class PartitionedGraph
{
  public:
    /**
     * Bucket @p g into shards. O(M) counting sort by shard; the relative
     * order of edges within a shard is preserved.
     *
     * @param nd Destination interval size, <= 32768 (15-bit offsets).
     * @param ns Source interval size, <= 65536 (16-bit offsets).
     */
    PartitionedGraph(const CooGraph& g, std::uint32_t nd, std::uint32_t ns);

    NodeId numNodes() const { return num_nodes_; }
    EdgeId numEdges() const { return words_.size(); }
    bool weighted() const { return weighted_; }

    std::uint32_t nd() const { return nd_; }
    std::uint32_t ns() const { return ns_; }
    std::uint32_t qd() const { return qd_; }
    std::uint32_t qs() const { return qs_; }

    /** Index of shard E_{s->d} in the flat shard arrays. */
    std::uint32_t
    shardIndex(std::uint32_t s, std::uint32_t d) const
    {
        return d * qs_ + s;
    }

    /**
     * Edge words of shard E_{s->d}: edgeword::pack(src -
     * srcIntervalBase(s), dst - dstIntervalBase(d)), terminating bit
     * clear.
     */
    std::span<const std::uint32_t>
    shardWords(std::uint32_t s, std::uint32_t d) const
    {
        const std::uint32_t idx = shardIndex(s, d);
        return {words_.data() + shard_offsets_[idx],
                words_.data() + shard_offsets_[idx + 1]};
    }

    /** Weights of shard E_{s->d}, parallel to shardWords(); empty when
     *  unweighted. */
    std::span<const std::uint32_t>
    shardWeights(std::uint32_t s, std::uint32_t d) const
    {
        if (!weighted_)
            return {};
        const std::uint32_t idx = shardIndex(s, d);
        return {weights_.data() + shard_offsets_[idx],
                weights_.data() + shard_offsets_[idx + 1]};
    }

    /** Every weight in shard order; empty when unweighted. */
    const std::vector<std::uint32_t>& weights() const { return weights_; }

    EdgeId
    shardSize(std::uint32_t s, std::uint32_t d) const
    {
        const std::uint32_t idx = shardIndex(s, d);
        return shard_offsets_[idx + 1] - shard_offsets_[idx];
    }

    /** Number of nodes in destination interval @p d (last may be short). */
    std::uint32_t dstIntervalNodes(std::uint32_t d) const;

    /** First node of destination interval @p d. */
    NodeId dstIntervalBase(std::uint32_t d) const
    {
        return static_cast<NodeId>(d) * nd_;
    }

    /** First node of source interval @p s. */
    NodeId srcIntervalBase(std::uint32_t s) const
    {
        return static_cast<NodeId>(s) * ns_;
    }

    /** Destination interval that owns node @p n. */
    std::uint32_t dstIntervalOf(NodeId n) const { return n / nd_; }

    /** Source interval that owns node @p n. */
    std::uint32_t srcIntervalOf(NodeId n) const { return n / ns_; }

    /** Total in-edges per destination interval (job sizes). */
    std::vector<EdgeId> jobSizes() const;

    /** Bytes this partition holds: the object, shard offsets, edge
     *  words and weights. */
    std::size_t bytes() const;

  private:
    NodeId num_nodes_ = 0;
    bool weighted_ = false;
    std::uint32_t nd_ = 0, ns_ = 0, qd_ = 0, qs_ = 0;
    std::vector<EdgeId> shard_offsets_;    //!< size qd*qs + 1
    std::vector<std::uint32_t> words_;     //!< edge words, by shard
    std::vector<std::uint32_t> weights_;   //!< parallel to words_
};

} // namespace gmoms

#endif // GMOMS_GRAPH_PARTITION_HH
