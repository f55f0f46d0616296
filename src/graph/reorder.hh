/**
 * @file
 * Node reordering techniques (Section IV-E of the paper).
 *
 * All functions return a permutation `new_label` such that node i of the
 * input graph becomes node new_label[i]; apply with CooGraph::relabeled().
 */

#ifndef GMOMS_GRAPH_REORDER_HH
#define GMOMS_GRAPH_REORDER_HH

#include <cstdint>
#include <vector>

#include "src/graph/coo.hh"

namespace gmoms
{

/**
 * ForeGraph/FabGraph-style hash relabeling: node i goes to destination
 * interval (i mod Qd). Balances in-edges across intervals but destroys
 * label-space clusters.
 */
std::vector<NodeId> hashNodeIntervals(NodeId num_nodes, std::uint32_t nd);

/**
 * The paper's variant: keep 64-byte cache lines intact (16 consecutive
 * 32-bit node values) and deal whole lines round-robin among destination
 * intervals. Balances load while preserving intra-line reuse.
 */
std::vector<NodeId> hashCacheLines(NodeId num_nodes, std::uint32_t nd);

/**
 * Degree-Based Grouping [Faldu et al. IISWC'19]: coarsely partition nodes
 * into 8 groups by out-degree (highest degree first), preserving original
 * order within each group. O(N).
 */
std::vector<NodeId> dbgReorder(const CooGraph& g);

/** Compose permutations: apply @p first, then @p second. The result
 *  takes over @p first's storage. */
std::vector<NodeId> composePermutations(std::vector<NodeId> first,
                                        const std::vector<NodeId>& second);

/** Verify that @p perm is a permutation of [0, n). */
bool isPermutation(const std::vector<NodeId>& perm);

/** Preprocessing selector used by benches (Fig. 13 series). */
enum class Preprocessing
{
    None,        //!< partitioning only
    Hash,        //!< cache-line hashing
    Dbg,         //!< DBG only
    DbgHash,     //!< DBG then cache-line hashing (paper default)
    Packed,      //!< packed half-word CSR, no relabeling
    DbgHashPacked,  //!< DBG + hashing + packed CSR
};

/** Human-readable name for a Preprocessing value. */
const char* preprocessingName(Preprocessing p);

/** Whether @p p requests the packed half-word CSR edge encoding (a
 *  layout-time transform: it changes the DRAM image, not the node
 *  labels, so it composes freely with any relabeling). */
bool packedCsr(Preprocessing p);

/** The relabeling component of @p p with the packed flag stripped:
 *  Packed -> None, DbgHashPacked -> DbgHash, everything else itself. */
Preprocessing basePreprocessing(Preprocessing p);

/**
 * The node permutation of @p p's relabeling for @p g at destination
 * intervals of @p nd nodes: Hash and Dbg alone, or DbgHash as
 * composePermutations(dbgReorder, hashCacheLines). Empty when @p p
 * keeps the labels (None, Packed).
 */
std::vector<NodeId> preprocessingPermutation(const CooGraph& g,
                                             Preprocessing p,
                                             std::uint32_t nd);

/**
 * Apply the selected preprocessing to @p g for destination intervals of
 * @p nd nodes: one relabel by preprocessingPermutation(). The rvalue
 * overload relabels @p g in place, so no edge is copied. The copying
 * overload allocates its result after the permutation, not before: a
 * by-value version that copied first raised the packed HBM PageRank
 * run's peak RSS by 3.5 MiB through heap placement alone.
 */
CooGraph applyPreprocessing(const CooGraph& g, Preprocessing p,
                            std::uint32_t nd);
CooGraph applyPreprocessing(CooGraph&& g, Preprocessing p,
                            std::uint32_t nd);

} // namespace gmoms

#endif // GMOMS_GRAPH_REORDER_HH
