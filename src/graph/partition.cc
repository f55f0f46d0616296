#include "src/graph/partition.hh"

#include "src/sim/log.hh"

namespace gmoms
{

PartitionedGraph::PartitionedGraph(const CooGraph& g, std::uint32_t nd,
                                   std::uint32_t ns)
    : num_nodes_(g.numNodes()), weighted_(g.weighted()), nd_(nd), ns_(ns)
{
    if (nd == 0 || nd > kMaxDstIntervalNodes)
        fatal("destination interval size must be in [1, 32768] to fit "
              "15-bit offsets");
    if (ns == 0 || ns > kMaxSrcIntervalNodes)
        fatal("source interval size must be in [1, 65536] to fit 16-bit "
              "offsets");
    if (num_nodes_ == 0)
        fatal("cannot partition an empty graph");
    g.checkWeights("PartitionedGraph");

    qd_ = static_cast<std::uint32_t>(ceilDiv(num_nodes_, nd_));
    qs_ = static_cast<std::uint32_t>(ceilDiv(num_nodes_, ns_));

    const std::size_t num_shards =
        static_cast<std::size_t>(qd_) * qs_;

    // Counting sort by shard: count, prefix-sum, scatter. O(M + Qs*Qd).
    std::vector<EdgeId> counts(num_shards, 0);
    for (const Edge& e : g.edges())
        ++counts[shardIndex(srcIntervalOf(e.src), dstIntervalOf(e.dst))];

    shard_offsets_.assign(num_shards + 1, 0);
    for (std::size_t i = 0; i < num_shards; ++i)
        shard_offsets_[i + 1] = shard_offsets_[i] + counts[i];

    words_.resize(g.numEdges());
    if (weighted_)
        weights_.resize(g.numEdges());
    std::vector<EdgeId> cursor(shard_offsets_.begin(),
                               shard_offsets_.end() - 1);
    const std::vector<Edge>& edges = g.edges();
    for (EdgeId i = 0; i < edges.size(); ++i) {
        const Edge& e = edges[i];
        const std::uint32_t s = srcIntervalOf(e.src);
        const std::uint32_t d = dstIntervalOf(e.dst);
        const EdgeId slot = cursor[shardIndex(s, d)]++;
        words_[slot] = edgeword::pack(e.src - srcIntervalBase(s),
                                      e.dst - dstIntervalBase(d));
        if (weighted_)
            weights_[slot] = g.weights()[i];
    }
}

std::uint32_t
PartitionedGraph::dstIntervalNodes(std::uint32_t d) const
{
    const NodeId base = dstIntervalBase(d);
    return std::min<NodeId>(nd_, num_nodes_ - base);
}

std::vector<EdgeId>
PartitionedGraph::jobSizes() const
{
    std::vector<EdgeId> sizes(qd_, 0);
    for (std::uint32_t d = 0; d < qd_; ++d)
        for (std::uint32_t s = 0; s < qs_; ++s)
            sizes[d] += shardSize(s, d);
    return sizes;
}

std::size_t
PartitionedGraph::bytes() const
{
    return sizeof(PartitionedGraph) +
           shard_offsets_.capacity() * sizeof(EdgeId) +
           (words_.capacity() + weights_.capacity()) *
               sizeof(std::uint32_t);
}

} // namespace gmoms
