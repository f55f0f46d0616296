#include "src/cluster/partitioner.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

/** Contiguous interval ranges balanced by in-edge count: walk the
 *  intervals in order and close a board once it holds its fair share
 *  of the remaining edges (classic greedy prefix split — deterministic
 *  and within one interval of optimal for contiguous splits). */
std::vector<std::uint32_t>
blockEdgesOwners(const std::vector<EdgeId>& interval_edges,
                 std::uint32_t boards)
{
    const std::uint32_t q =
        static_cast<std::uint32_t>(interval_edges.size());
    std::vector<std::uint32_t> owner(q, 0);
    EdgeId remaining = 0;
    for (EdgeId e : interval_edges)
        remaining += e;

    std::uint32_t b = 0;
    EdgeId load = 0;
    EdgeId target = (remaining + boards - 1) / boards;
    for (std::uint32_t j = 0; j < q; ++j) {
        // Close early when the remaining intervals are only enough to
        // give each later board one — spread, don't starve.
        if (b + 1 < boards && load > 0 && q - j <= boards - b - 1) {
            ++b;
            load = 0;
            target = (remaining + (boards - b) - 1) / (boards - b);
        }
        owner[j] = b;
        load += interval_edges[j];
        remaining -= interval_edges[j];
        // Close once this board holds its fair share of what was left
        // when it opened (re-derived per board so rounding never
        // strands the tail on the last board).
        if (b + 1 < boards && load >= target && q - j - 1 > 0) {
            ++b;
            load = 0;
            target = (remaining + (boards - b) - 1) / (boards - b);
        }
    }
    return owner;
}

} // namespace

ClusterPartition::ClusterPartition(const CooGraph& g, std::uint32_t nd,
                                   const ClusterConfig& cc)
    : nd_(nd), num_nodes_(g.numNodes())
{
    if (nd_ == 0)
        fatal("ClusterPartition: nd must be > 0");
    g.checkWeights("ClusterPartition");
    if (cc.boards == 0 || cc.boards > ClusterConfig::kMaxBoards)
        fatal("ClusterPartition: boards must be in [1, " +
              std::to_string(ClusterConfig::kMaxBoards) + "]; got " +
              std::to_string(cc.boards));

    const std::uint32_t boards = cc.boards;
    const std::uint32_t qd = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(num_nodes_) + nd_ - 1) / nd_);

    // -- interval ownership ----------------------------------------------
    interval_owner_.assign(qd, 0);
    if (boards > 1 && qd > 0) {
        if (cc.partitioner == ClusterConfig::Partitioner::RoundRobin) {
            for (std::uint32_t j = 0; j < qd; ++j)
                interval_owner_[j] = j % boards;
        } else {
            std::vector<EdgeId> interval_edges(qd, 0);
            for (const Edge& e : g.edges())
                ++interval_edges[e.dst / nd_];
            interval_owner_ = blockEdgesOwners(interval_edges, boards);
        }
    }

    // -- owned node spaces -----------------------------------------------
    shards_.resize(boards);
    interval_local_base_.assign(qd, 0);
    for (std::uint32_t j = 0; j < qd; ++j) {
        const std::uint32_t b = interval_owner_[j];
        BoardShard& s = shards_[b];
        s.board = b;
        // Every interval before the globally-last is full; the last
        // interval sorts last on its board (ascending global order),
        // so owned intervals always land nd-aligned in local space.
        interval_local_base_[j] = s.num_owned;
        s.intervals.push_back(j);
        const NodeId hi =
            std::min<NodeId>(num_nodes_, (j + 1) * nd_);
        s.num_owned += hi - j * nd_;
    }

    // -- ghost discovery (per board, ascending global order) -------------
    std::vector<std::vector<NodeId>> ghosts(boards);
    for (const Edge& e : g.edges()) {
        const std::uint32_t db = interval_owner_[e.dst / nd_];
        if (interval_owner_[e.src / nd_] != db)
            ghosts[db].push_back(e.src);
    }
    for (std::uint32_t b = 0; b < boards; ++b) {
        auto& gh = ghosts[b];
        std::sort(gh.begin(), gh.end());
        gh.erase(std::unique(gh.begin(), gh.end()), gh.end());
        BoardShard& s = shards_[b];
        s.num_ghosts = static_cast<NodeId>(gh.size());
        total_ghosts_ += s.num_ghosts;
        // Ghosts start on an interval boundary so no destination
        // interval mixes owned and ghost slots (file header).
        s.ghost_base =
            s.num_ghosts == 0
                ? s.num_owned
                : static_cast<NodeId>(
                      (static_cast<std::uint64_t>(s.num_owned) + nd_ -
                       1) /
                      nd_ * nd_);
    }

    // -- id maps ----------------------------------------------------------
    for (std::uint32_t b = 0; b < boards; ++b) {
        BoardShard& s = shards_[b];
        s.to_global.reserve(s.ghost_base + s.num_ghosts);
        for (std::uint32_t j : s.intervals) {
            const NodeId hi =
                std::min<NodeId>(num_nodes_, (j + 1) * nd_);
            for (NodeId n = j * nd_; n < hi; ++n)
                s.to_global.push_back(n);
        }
        s.to_global.resize(s.ghost_base, kNoGlobalId);  // padding
        for (NodeId n : ghosts[b])
            s.to_global.push_back(n);
    }

    // -- local graphs (global edge order preserved) -----------------------
    for (std::uint32_t b = 0; b < boards; ++b) {
        BoardShard& s = shards_[b];
        s.local = CooGraph(s.ghost_base + s.num_ghosts, g.weighted());
        s.local.name = g.name + "/b" + std::to_string(b);
    }
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        const Edge& e = g.edges()[i];
        const std::uint32_t b = interval_owner_[e.dst / nd_];
        BoardShard& s = shards_[b];
        const NodeId ldst = localId(b, e.dst);
        const NodeId lsrc = localId(b, e.src);
        s.local.addEdge(lsrc, ldst, g.weight(i));
        ++s.local_edges;
        if (lsrc >= s.ghost_base) {
            ++s.cut_edges;
            ++total_cut_edges_;
        }
    }

    // -- export lists ------------------------------------------------------
    exports_.assign(static_cast<std::size_t>(boards) * boards, {});
    import_peers_.assign(boards, {});
    for (std::uint32_t p = 0; p < boards; ++p) {
        std::uint32_t last_owner = boards;  // sentinel
        for (NodeId n : ghosts[p]) {
            const std::uint32_t b = interval_owner_[n / nd_];
            exports_[static_cast<std::size_t>(b) * boards + p]
                .push_back(n);
            if (b != last_owner) {
                // ghosts are globally sorted, so owners repeat in
                // runs; dedup cheaply then uniquify below.
                import_peers_[p].push_back(b);
                last_owner = b;
            }
        }
        auto& peers = import_peers_[p];
        std::sort(peers.begin(), peers.end());
        peers.erase(std::unique(peers.begin(), peers.end()),
                    peers.end());
    }
}

NodeId
ClusterPartition::globalId(std::uint32_t b, NodeId local) const
{
    const BoardShard& s = shards_[b];
    if (local >= s.to_global.size())
        fatal("ClusterPartition::globalId: local id out of range");
    return s.to_global[local];
}

NodeId
ClusterPartition::localId(std::uint32_t b, NodeId n) const
{
    if (n >= num_nodes_)
        fatal("ClusterPartition::localId: node out of range");
    const BoardShard& s = shards_[b];
    const std::uint32_t j = n / nd_;
    if (interval_owner_[j] == b)
        return interval_local_base_[j] + (n % nd_);
    // Ghost slot: binary search the sorted ghost tail of to_global.
    const auto begin = s.to_global.begin() + s.ghost_base;
    const auto it = std::lower_bound(begin, s.to_global.end(), n);
    if (it == s.to_global.end() || *it != n)
        return kNoLocalId;
    return s.ghost_base +
           static_cast<NodeId>(std::distance(begin, it));
}

double
ClusterPartition::edgeBalance() const
{
    EdgeId total = 0, max_edges = 0;
    for (const BoardShard& s : shards_) {
        total += s.local_edges;
        max_edges = std::max(max_edges, s.local_edges);
    }
    if (total == 0)
        return 1.0;
    const double avg =
        static_cast<double>(total) / static_cast<double>(boards());
    return avg == 0 ? 1.0 : static_cast<double>(max_edges) / avg;
}

} // namespace gmoms
