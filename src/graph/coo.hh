/**
 * @file
 * Coordinate-format (COO) graph representation — the input format the
 * accelerator accepts (Section III-C of the paper).
 */

#ifndef GMOMS_GRAPH_COO_HH
#define GMOMS_GRAPH_COO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace gmoms
{

/** One directed edge; weight is ignored for unweighted graphs. */
struct Edge
{
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t weight = 0;
};

/**
 * A directed graph as an edge list.
 *
 * Node ids are dense in [0, numNodes). Undirected graphs are handled by
 * duplicating each edge (paper, Section III).
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
    void setWeighted(bool w) { weighted_ = w; }

    void
    addEdge(NodeId src, NodeId dst, std::uint32_t weight = 0)
    {
        edges_.push_back(Edge{src, dst, weight});
    }

    std::vector<Edge>& edges() { return edges_; }
    const std::vector<Edge>& edges() const { return edges_; }

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
};

} // namespace gmoms

#endif // GMOMS_GRAPH_COO_HH
