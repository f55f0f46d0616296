/**
 * @file
 * Algorithm specifications for the Template 1 programming model
 * (Section III-B, Table I of the paper).
 *
 * An AlgoSpec carries the per-algorithm customizations: the init(),
 * gather() and apply() kernels, initial DRAM values, the optional
 * per-node constant vector, the execution flags (use_local_src,
 * always_active, synchronous) and the modelled gather pipeline latency
 * (4 cycles for the HLS floating-point PageRank, 1 for the
 * combinational integer kernels).
 *
 * Value representation: V_DRAM entries are 32-bit raw words (float bit
 * patterns for PageRank); V_BRAM entries are 64-bit raw words. PageRank
 * packs [31:0] = f32 accumulator, [63:32] = u32 out-degree; the other
 * algorithms use [31:0] only.
 */

#ifndef GMOMS_ALGO_SPEC_HH
#define GMOMS_ALGO_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/coo.hh"
#include "src/sim/types.hh"

namespace gmoms
{

enum class Algorithm { PageRank, Scc, Sssp, Bfs, Wcc };

/** Unreachable / infinite distance marker for SSSP/BFS. */
inline constexpr std::uint32_t kInfDist = 0xffffffffu;

/** Default iteration caps: PageRank runs a fixed number of iterations;
 *  the min-label kernels stop at convergence, so theirs is a bound. */
inline constexpr std::uint32_t kPageRankIterations = 10;
inline constexpr std::uint32_t kMaxIterations = 1000;

class AlgoSpec
{
  public:
    Algorithm algo = Algorithm::PageRank;
    std::string name;

    bool weighted = false;       //!< edges carry a 32-bit weight
    bool has_const = false;      //!< V_const present (PageRank: OD)
    bool synchronous = false;    //!< separate V_in / V_out, swap per iter
    bool use_local_src = false;  //!< read src from BRAM when local
    bool always_active = false;  //!< no convergence tracking
    std::uint32_t gather_latency = 1;  //!< PE pipeline depth (cycles)
    std::uint32_t max_iterations = 100;

    /** V_BRAM = init(V_const, V_DRAM_in) at job start (Template 1 l.8). */
    std::uint64_t init(std::uint32_t vconst, std::uint32_t vdram) const;

    /** New V_BRAM destination value (Template 1 l.13/15). */
    std::uint64_t gather(std::uint32_t src_val, std::uint64_t bram,
                         std::uint32_t weight) const;

    /** V_DRAM_out = apply(V_BRAM) at writeback (Template 1 l.21). */
    std::uint32_t apply(std::uint64_t bram) const;

    /** Initial V_DRAM_in for node @p n (Table I row 2). */
    std::uint32_t initialValue(NodeId n) const;

    /** V_const for node @p n (only when has_const). */
    std::uint32_t constValue(NodeId n) const;

    /**
     * Interpret the final raw V_DRAM word of node @p n as the
     * user-facing result (denormalizes PageRank scores).
     */
    double finalValue(std::uint32_t dram_raw, NodeId n) const;

    // -- factories --------------------------------------------------------

    /** PageRank with the ForeGraph normalized-score optimization: DRAM
     *  holds s_i = d * PR_i / OD_i so the irregular read is 32 bits and
     *  normalization happens once per node in apply(). */
    static AlgoSpec pageRank(
        const CooGraph& g, std::uint32_t iterations = kPageRankIterations);

    /** Min-label propagation — the SCC kernel of Table I. */
    static AlgoSpec scc(NodeId num_nodes,
                        std::uint32_t max_iters = kMaxIterations);

    /** Single-source shortest paths (weights in [0, 255]). */
    static AlgoSpec sssp(NodeId source,
                         std::uint32_t max_iters = kMaxIterations);

    /** BFS depth (extension; = SSSP with unit weights, unweighted). */
    static AlgoSpec bfs(NodeId source,
                        std::uint32_t max_iters = kMaxIterations);

    /** Weakly connected components (extension; run on a graph with
     *  reverse edges added). */
    static AlgoSpec wcc(NodeId num_nodes,
                        std::uint32_t max_iters = kMaxIterations);

  private:
    NodeId num_nodes_ = 0;
    NodeId source_ = 0;
    float teleport_ = 0.0f;   //!< 0.15 / N
    float damping_ = 0.85f;
    /** Out-degrees for PageRank initial values / V_const. */
    std::shared_ptr<const std::vector<std::uint32_t>> out_degrees_;
};

} // namespace gmoms

#endif // GMOMS_ALGO_SPEC_HH
