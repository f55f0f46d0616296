/**
 * @file
 * Coordinate-format (COO) graph representation — the input format the
 * accelerator accepts (Section III-C of the paper).
 */

#ifndef GMOMS_GRAPH_COO_HH
#define GMOMS_GRAPH_COO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace gmoms
{

/** One directed edge. Weights live beside the edges (CooGraph). */
struct Edge
{
    NodeId src = 0;
    NodeId dst = 0;
};

/**
 * A directed graph as an edge list.
 *
 * Node ids are dense in [0, numNodes). Undirected graphs are handled by
 * duplicating each edge (paper, Section III).
 *
 * Each edge takes 8 bytes. A weighted graph keeps one 32-bit weight per
 * edge in a parallel array, weights()[i] belonging to edges()[i]; an
 * unweighted graph keeps none, and weight() reads 0 for every edge.
 */
class CooGraph
{
  public:
    CooGraph() = default;
    explicit CooGraph(NodeId num_nodes, bool weighted = false)
        : num_nodes_(num_nodes), weighted_(weighted) {}

    NodeId numNodes() const { return num_nodes_; }
    EdgeId numEdges() const { return edges_.size(); }
    bool weighted() const { return weighted_; }

    /**
     * Make the graph weighted (every edge without a weight gets 0) or
     * unweighted (the weights are freed).
     */
    void setWeighted(bool w);

    /** Append an edge; @p weight is kept only on a weighted graph. */
    void
    addEdge(NodeId src, NodeId dst, std::uint32_t weight = 0)
    {
        edges_.push_back(Edge{src, dst});
        if (weighted_)
            weights_.push_back(weight);
    }

    std::vector<Edge>& edges() { return edges_; }
    const std::vector<Edge>& edges() const { return edges_; }

    /** One weight per edge when weighted(), else empty. Code that
     *  grows edges() directly keeps this in step itself. */
    std::vector<std::uint32_t>& weights() { return weights_; }
    const std::vector<std::uint32_t>& weights() const { return weights_; }

    /** Weight of edge @p e; 0 on an unweighted graph. */
    std::uint32_t
    weight(EdgeId e) const
    {
        return weighted_ ? weights_[e] : 0;
    }

    /** Fatal unless a weighted graph holds exactly one weight per
     *  edge; @p who names the caller in the message. */
    void checkWeights(const char* who) const;

    /** Bytes this graph holds: the object, edges, weights and name. */
    std::size_t bytes() const;

    /** Out-degree of every node (O(M)). */
    std::vector<std::uint32_t> outDegrees() const;

    /** In-degree of every node (O(M)). */
    std::vector<std::uint32_t> inDegrees() const;

    /**
     * Relabel nodes: node i becomes new_label[i] in the result. Edge
     * order is preserved. @p new_label must be a permutation.
     */
    CooGraph relabeled(const std::vector<NodeId>& new_label) const;

    /** relabeled(), in place: no edge is copied. */
    void relabel(const std::vector<NodeId>& new_label);

    /** Append the reverse of every edge (undirected handling). */
    CooGraph withReverseEdges() const;

    std::string name;  //!< dataset name for reports

  private:
    NodeId num_nodes_ = 0;
    bool weighted_ = false;
    std::vector<Edge> edges_;
    std::vector<std::uint32_t> weights_;  //!< empty unless weighted_
};

} // namespace gmoms

#endif // GMOMS_GRAPH_COO_HH
