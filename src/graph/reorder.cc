#include "src/graph/reorder.hh"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "src/sim/log.hh"
#include "src/sim/types.hh"

namespace gmoms
{

namespace
{

/** Nodes per 64-byte cache line at 32-bit node values. */
constexpr NodeId kNodesPerLine = kLineBytes / 4;

} // namespace

std::vector<NodeId>
hashNodeIntervals(NodeId num_nodes, std::uint32_t nd)
{
    const std::uint32_t qd =
        static_cast<std::uint32_t>(ceilDiv(num_nodes, nd));
    std::vector<NodeId> new_label(num_nodes);
    NodeId next = 0;
    // Emit nodes interval by interval: interval k receives the nodes
    // congruent to k modulo Qd, in increasing order.
    for (std::uint32_t k = 0; k < qd; ++k)
        for (NodeId i = k; i < num_nodes; i += qd)
            new_label[i] = next++;
    return new_label;
}

std::vector<NodeId>
hashCacheLines(NodeId num_nodes, std::uint32_t nd)
{
    const std::uint32_t qd =
        static_cast<std::uint32_t>(ceilDiv(num_nodes, nd));
    const NodeId num_lines =
        static_cast<NodeId>(ceilDiv(num_nodes, kNodesPerLine));
    std::vector<NodeId> new_label(num_nodes);
    NodeId next = 0;
    for (std::uint32_t k = 0; k < qd; ++k) {
        for (NodeId line = k; line < num_lines; line += qd) {
            const NodeId base = line * kNodesPerLine;
            const NodeId end =
                std::min<NodeId>(base + kNodesPerLine, num_nodes);
            for (NodeId i = base; i < end; ++i)
                new_label[i] = next++;
        }
    }
    return new_label;
}

std::vector<NodeId>
dbgReorder(const CooGraph& g)
{
    const NodeId n = g.numNodes();
    const std::vector<std::uint32_t> deg = g.outDegrees();
    const double avg =
        n == 0 ? 0.0 : static_cast<double>(g.numEdges()) / n;

    // 8 groups with power-of-two thresholds around the average degree,
    // following Faldu et al.: {>=32a, >=16a, >=8a, >=4a, >=2a, >=a,
    // >=a/2, rest}, highest-degree group first.
    auto group_of = [&](std::uint32_t d) -> std::uint32_t {
        double t = 32.0 * avg;
        for (std::uint32_t grp = 0; grp < 7; ++grp) {
            if (static_cast<double>(d) >= t)
                return grp;
            t /= 2.0;
        }
        return 7;
    };

    // Stable counting sort by group. O(N).
    std::array<NodeId, 8> counts{};
    for (NodeId i = 0; i < n; ++i)
        ++counts[group_of(deg[i])];
    std::array<NodeId, 8> base{};
    NodeId acc = 0;
    for (std::uint32_t grp = 0; grp < 8; ++grp) {
        base[grp] = acc;
        acc += counts[grp];
    }
    std::vector<NodeId> new_label(n);
    for (NodeId i = 0; i < n; ++i)
        new_label[i] = base[group_of(deg[i])]++;
    return new_label;
}

std::vector<NodeId>
composePermutations(std::vector<NodeId> first,
                    const std::vector<NodeId>& second)
{
    if (first.size() != second.size())
        fatal("composePermutations: size mismatch");
    for (NodeId& label : first)
        label = second[label];
    return first;
}

bool
isPermutation(const std::vector<NodeId>& perm)
{
    std::vector<bool> seen(perm.size(), false);
    for (NodeId p : perm) {
        if (p >= perm.size() || seen[p])
            return false;
        seen[p] = true;
    }
    return true;
}

const char*
preprocessingName(Preprocessing p)
{
    switch (p) {
      case Preprocessing::None: return "none";
      case Preprocessing::Hash: return "hash";
      case Preprocessing::Dbg: return "dbg";
      case Preprocessing::DbgHash: return "dbg+hash";
      case Preprocessing::Packed: return "packed";
      case Preprocessing::DbgHashPacked: return "dbg+hash+packed";
    }
    return "?";
}

bool
packedCsr(Preprocessing p)
{
    return p == Preprocessing::Packed ||
           p == Preprocessing::DbgHashPacked;
}

Preprocessing
basePreprocessing(Preprocessing p)
{
    switch (p) {
      case Preprocessing::Packed: return Preprocessing::None;
      case Preprocessing::DbgHashPacked: return Preprocessing::DbgHash;
      default: return p;
    }
}

std::vector<NodeId>
preprocessingPermutation(const CooGraph& g, Preprocessing p,
                         std::uint32_t nd)
{
    switch (basePreprocessing(p)) {
      case Preprocessing::Hash:
        return hashCacheLines(g.numNodes(), nd);
      case Preprocessing::Dbg:
        return dbgReorder(g);
      case Preprocessing::DbgHash: {
        // DBG before hashing (argument order is unspecified), composed
        // in DBG's storage: DBG's degree table is freed before the hash
        // table exists, so at most two N-entry tables share the heap.
        // A third left the DDR4 PageRank run's peak RSS 0.4 MiB higher.
        std::vector<NodeId> dbg = dbgReorder(g);
        return composePermutations(std::move(dbg),
                                   hashCacheLines(g.numNodes(), nd));
      }
      default:
        return {};
    }
}

CooGraph
applyPreprocessing(const CooGraph& g, Preprocessing p, std::uint32_t nd)
{
    const std::vector<NodeId> perm = preprocessingPermutation(g, p, nd);
    return perm.empty() ? g : g.relabeled(perm);
}

CooGraph
applyPreprocessing(CooGraph&& g, Preprocessing p, std::uint32_t nd)
{
    const std::vector<NodeId> perm = preprocessingPermutation(g, p, nd);
    if (!perm.empty())
        g.relabel(perm);
    return std::move(g);
}

} // namespace gmoms
