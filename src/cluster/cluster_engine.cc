#include "src/cluster/cluster_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "src/algo/reference.hh"
#include "src/cluster/board.hh"
#include "src/cluster/board_link.hh"
#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

float
asFloatBits(std::uint32_t raw)
{
    float f;
    std::memcpy(&f, &raw, sizeof(f));
    return f;
}

/** Shared driver state (boards may be null for empty shards). */
struct Fleet
{
    const AccelConfig* cfg = nullptr;
    const AlgoSpec* spec = nullptr;
    const ClusterPartition* cp = nullptr;
    Engine* engine = nullptr;
    BoardLink* link = nullptr;
    std::vector<std::unique_ptr<Board>>* boards = nullptr;
    /** sendPeers[b]: peers with a non-empty export list from b. */
    std::vector<std::vector<std::uint32_t>> send_peers;

    Board* board(std::uint32_t b) { return (*boards)[b].get(); }
    std::uint32_t n() const { return cp->boards(); }
};

/**
 * Bulk-synchronous coordination (GraVF-M style): every board runs
 * superstep k to completion, exports travel over the link inside the
 * barrier, ghosts are applied, and superstep k+1 starts globally.
 * Terminates when no board updated anything and no ghost changed.
 * Barrier-wait cycles (from a board's own finish to the end of the
 * exchange) are attributed to that board's BoardLink stall channel.
 */
std::uint32_t
runBsp(Fleet& f)
{
    Engine& eng = *f.engine;
    const std::uint32_t n = f.n();
    std::uint32_t superstep = 0;
    bool cont = true;

    while (cont && superstep < f.spec->max_iterations) {
        for (std::uint32_t b = 0; b < n; ++b)
            if (f.board(b))
                f.board(b)->startIteration();

        // Run all boards to completion, recording each board's own
        // finish cycle for barrier-wait attribution.
        std::vector<bool> done(n);
        std::vector<Cycle> finish(n, 0);
        std::uint32_t remaining = 0;
        for (std::uint32_t b = 0; b < n; ++b) {
            done[b] = f.board(b) == nullptr;
            if (!done[b])
                ++remaining;
        }
        while (remaining > 0) {
            const bool ok = eng.runUntil(
                [&] {
                    for (std::uint32_t b = 0; b < n; ++b)
                        if (!done[b] && f.board(b)->iterationDone())
                            return true;
                    return false;
                },
                f.cfg->max_cycles, Engine::Poll::OnEvents);
            if (!ok)
                fatal("cluster superstep exceeded the cycle budget; "
                      "deadlock or undersized budget");
            for (std::uint32_t b = 0; b < n; ++b) {
                if (done[b] || !f.board(b)->iterationDone())
                    continue;
                done[b] = true;
                finish[b] = eng.now();
                --remaining;
            }
        }

        bool any_update = false;
        for (std::uint32_t b = 0; b < n; ++b)
            if (f.board(b))
                any_update |= f.board(b)->finishIteration();

        // Exchange: every exporting pair sends — a marker when nothing
        // changed, so barrier synchronization traffic is paid for.
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!f.board(b))
                continue;
            f.board(b)->beginPhase("exchange" +
                                   std::to_string(superstep));
            for (std::uint32_t p : f.send_peers[b])
                f.link->send(b, p, f.board(b)->collectExports(p),
                             superstep);
        }
        if (!f.link->idle()) {
            const bool ok =
                eng.runUntil([&] { return f.link->idle(); },
                             f.cfg->max_cycles, Engine::Poll::OnEvents);
            if (!ok)
                fatal("cluster exchange exceeded the cycle budget");
        }

        const Cycle barrier_end = eng.now();
        bool ghost_changed = false;
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!f.board(b))
                continue;
            f.board(b)->addLinkWait(barrier_end - finish[b]);
            for (LinkPacket& pkt : f.link->drain(b))
                ghost_changed |=
                    f.board(b)->applyGhostUpdates(pkt.updates) > 0;
            // Node arrays changed (swap, in-place updates, ghosts):
            // cached source values are stale.
            f.board(b)->invalidateCaches();
        }

        ++superstep;
        cont = any_update || ghost_changed;
    }
    return superstep;
}

/**
 * Asynchronous coordination (Swift style): each board iterates at its
 * own pace and applies arrived ghost updates at its own iteration
 * boundaries. Min-propagation kernels apply remote values immediately
 * (monotone, always safe) and park when locally converged until new
 * ghost values arrive. Synchronous kernels (PageRank) gate iteration k
 * on having applied every import peer's superstep k-1 batch — the
 * per-pair FIFO link plus the last_in_batch flag make that observable
 * — so the data dependencies match BSP while the boards themselves
 * free-run.
 */
std::uint32_t
runAsync(Fleet& f)
{
    Engine& eng = *f.engine;
    const std::uint32_t n = f.n();
    const bool gated = f.spec->synchronous;

    std::vector<std::uint32_t> ss(n, 0);   //!< next iteration index
    std::vector<bool> armed(n, false), parked(n, false),
        finished(n, false);
    std::vector<Cycle> wait_since(n, 0);
    std::vector<std::deque<LinkPacket>> pending(n);
    /** applied[b][p]: supersteps of peer p fully applied on b. */
    std::vector<std::vector<std::uint32_t>> applied(
        n, std::vector<std::uint32_t>(n, 0));

    for (std::uint32_t b = 0; b < n; ++b)
        finished[b] = f.board(b) == nullptr;

    auto applyPending = [&](std::uint32_t b) {
        std::uint32_t changed = 0;
        auto& q = pending[b];
        for (auto it = q.begin(); it != q.end();) {
            // Gated kernels hold back batches from supersteps the
            // board has not reached yet (a fast peer may run ahead).
            if (gated && it->superstep >= ss[b]) {
                ++it;
                continue;
            }
            changed += f.board(b)->applyGhostUpdates(it->updates);
            if (it->last_in_batch)
                applied[b][it->src] = std::max(
                    applied[b][it->src], it->superstep + 1);
            it = q.erase(it);
        }
        if (changed > 0) {
            f.board(b)->invalidateCaches();
            if (parked[b])
                parked[b] = false;
        }
        return changed;
    };

    auto canStart = [&](std::uint32_t b) {
        if (!gated)
            return true;
        for (std::uint32_t p : f.cp->importPeers(b))
            if (applied[b][p] < ss[b])
                return false;
        return true;
    };

    while (true) {
        // Service arrivals, apply what this board may see, arm.
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!f.board(b))
                continue;
            for (LinkPacket& pkt : f.link->drain(b))
                pending[b].push_back(std::move(pkt));
            if (!armed[b])
                applyPending(b);
        }
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!f.board(b) || armed[b] || finished[b] || parked[b] ||
                !canStart(b))
                continue;
            f.board(b)->addLinkWait(eng.now() - wait_since[b]);
            f.board(b)->startIteration();
            armed[b] = true;
        }

        // Termination: nothing armed, nothing in flight, nothing
        // pending. All survivors must be parked (local convergence) or
        // finished; anything else would be a coordination deadlock.
        bool any_armed = false, any_pending = false;
        for (std::uint32_t b = 0; b < n; ++b) {
            any_armed |= armed[b];
            any_pending |= !pending[b].empty();
        }
        if (!any_armed && !any_pending && f.link->idle()) {
            for (std::uint32_t b = 0; b < n; ++b)
                if (f.board(b) && !finished[b] && !parked[b])
                    fatal("async cluster deadlock: board " +
                          std::to_string(b) +
                          " neither finished nor parked");
            break;
        }
        if (!any_armed && any_pending && f.link->idle()) {
            // Nothing runs and nothing is in flight, yet batches are
            // pending. Batches addressed to finished boards are stale
            // by definition — drop them and re-evaluate; anything else
            // would be unapplicable gated hold-backs, a coordination
            // deadlock.
            bool dropped = false;
            for (std::uint32_t b = 0; b < n; ++b) {
                if (finished[b] && !pending[b].empty()) {
                    pending[b].clear();
                    dropped = true;
                }
            }
            if (dropped)
                continue;
            fatal("async cluster deadlock: pending ghost batches can "
                  "never be applied");
        }

        // Advance until some armed board completes, a waiting board
        // receives link data, or — with nothing armed — the link goes
        // idle (in-flight traffic addressed only to finished boards
        // would otherwise satisfy no clause and burn the budget).
        const bool ok = eng.runUntil(
            [&, any_armed] {
                for (std::uint32_t b = 0; b < n; ++b) {
                    if (armed[b] && f.board(b)->iterationDone())
                        return true;
                    if (!armed[b] && f.board(b) != nullptr &&
                        !finished[b] && f.link->hasInbox(b))
                        return true;
                }
                return !any_armed && f.link->idle();
            },
            f.cfg->max_cycles, Engine::Poll::OnEvents);
        if (!ok)
            fatal("async cluster exceeded the cycle budget; deadlock "
                  "or undersized budget");

        // Service completions.
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!armed[b] || !f.board(b)->iterationDone())
                continue;
            armed[b] = false;
            const bool any = f.board(b)->finishIteration();
            for (std::uint32_t p : f.send_peers[b]) {
                auto ups = f.board(b)->collectExports(p);
                // Gated peers need the batch marker even when empty;
                // min kernels skip silent supersteps entirely.
                if (gated || !ups.empty())
                    f.link->send(b, p, std::move(ups), ss[b]);
            }
            f.board(b)->invalidateCaches();
            ++ss[b];
            if (ss[b] >= f.spec->max_iterations) {
                finished[b] = true;
                continue;
            }
            if (gated) {
                wait_since[b] = eng.now();
            } else {
                // Local convergence: park until a ghost changes
                // (applyPending un-parks). A changed ghost may already
                // be pending — the next loop head applies it.
                parked[b] = !any;
                wait_since[b] = eng.now();
            }
        }
    }

    std::uint32_t max_ss = 0;
    for (std::uint32_t b = 0; b < n; ++b)
        max_ss = std::max(max_ss, ss[b]);
    return max_ss;
}

} // namespace

ClusterRunResult
runCluster(const AccelConfig& cfg, const CooGraph& g,
           const PartitionedGraph& global_pg, const AlgoSpec& spec)
{
    const ClusterConfig& cc = cfg.cluster;
    if (!cc.enabled())
        fatal("runCluster: cfg.cluster.boards must be >= 2");
    if (cfg.nd != global_pg.nd() || cfg.ns != global_pg.ns())
        fatal("runCluster: cfg geometry does not match the partition");

    // Functional plane: the canonical values, independent of board
    // count and coordination mode.
    const ReferenceResult ref = runReference(global_pg, spec);

    ClusterPartition cp(g, cfg.nd, cc);

    Engine engine;
    if (cfg.full_tick_engine)
        engine.setFullTick(true);

    BoardLink link(engine, cc, cc.boards);

    std::vector<std::unique_ptr<Board>> boards(cc.boards);
    for (std::uint32_t b = 0; b < cc.boards; ++b) {
        if (cp.shard(b).empty())
            continue;  // a tiny graph can leave late boards empty
        boards[b] = std::make_unique<Board>(engine, cfg, spec, cp, b);
        boards[b]->registerLinkStall(link.creditStallCounter(b));
    }

    Fleet fleet;
    fleet.cfg = &cfg;
    fleet.spec = &spec;
    fleet.cp = &cp;
    fleet.engine = &engine;
    fleet.link = &link;
    fleet.boards = &boards;
    fleet.send_peers.resize(cc.boards);
    for (std::uint32_t b = 0; b < cc.boards; ++b) {
        if (!boards[b])
            continue;
        for (std::uint32_t p = 0; p < cc.boards; ++p)
            if (p != b && boards[p] && !cp.exportsTo(b, p).empty())
                fleet.send_peers[b].push_back(p);
    }

    const std::uint32_t supersteps =
        cc.mode == ClusterConfig::Mode::Bsp ? runBsp(fleet)
                                            : runAsync(fleet);

    // Drain all queues (stale timing tokens), as Accelerator::run does.
    for (std::uint32_t b = 0; b < cc.boards; ++b)
        if (boards[b])
            boards[b]->beginPhase("drain");
    engine.runUntil(
        [&] {
            for (std::uint32_t b = 0; b < cc.boards; ++b)
                if (boards[b] && !boards[b]->idle())
                    return false;
            return link.idle();
        },
        100000, Engine::Poll::OnEvents);

    // Timed-plane values, verified against the functional plane.
    std::vector<std::uint32_t> timed(cp.numNodes(), 0);
    for (std::uint32_t b = 0; b < cc.boards; ++b)
        if (boards[b])
            boards[b]->readOwnedValues(timed);

    // A min-propagation run stopped by the iteration cap before global
    // convergence has no unique fixpoint to verify against: how far
    // each wavefront got in k iterations depends on the coordination
    // schedule (async boards free-run; BSP skips silent boards). The
    // canonical raw_values stay the functional plane's either way; the
    // report just records that the timed plane was still mid-flight.
    const bool truncated = spec.algo != Algorithm::PageRank &&
                           ref.iterations >= spec.max_iterations;
    bool timed_matches = true;
    double max_rel = 0.0;
    for (NodeId n = 0; n < cp.numNodes(); ++n) {
        if (timed[n] == ref.raw_values[n])
            continue;
        if (spec.algo != Algorithm::PageRank) {
            if (truncated) {
                timed_matches = false;
                continue;
            }
            fatal("cluster verification: timed value of node " +
                  std::to_string(n) +
                  " diverges from the functional plane (integer "
                  "kernels have a unique fixpoint)");
        }
        const double want = asFloatBits(ref.raw_values[n]);
        const double got = asFloatBits(timed[n]);
        const double denom = std::max(std::abs(want), 1e-12);
        max_rel = std::max(max_rel, std::abs(got - want) / denom);
    }
    // Empirical bound on f32 arrival-order drift: a degenerate hub
    // graph funnels thousands of same-magnitude adds into one
    // accumulator, and the packed edge encoding shifts DMA timing (and
    // with it the gather order) relative to the plain stream — both
    // together reach ~1e-3. Anything past 5e-3 is a real bug, not
    // reassociation noise.
    if (max_rel > 5e-3)
        fatal("cluster verification: timed PageRank deviates " +
              std::to_string(max_rel) +
              " rel from the functional plane (tolerance 5e-3)");

    // Assemble the result. The user-facing raw_values are the
    // functional plane (see cluster_engine.hh).
    ClusterRunResult out;
    out.engine = engine.stats();
    out.full_tick = engine.fullTick();
    RunResult& run = out.run;
    run.cycles = engine.now();
    run.iterations = ref.iterations;
    run.raw_values = ref.raw_values;

    ClusterReport& rep = out.report;
    rep.config = cc;
    rep.supersteps = supersteps;
    rep.cut_edges = cp.totalCutEdges();
    rep.ghost_count = cp.totalGhosts();
    rep.edge_balance = cp.edgeBalance();
    rep.link_wire_bytes = link.totalWireBytes();
    rep.link_packets = link.totalPackets();
    rep.link_updates = link.totalUpdates();
    rep.timed_matches_reference = timed_matches;
    rep.max_rel_error = max_rel;

    std::uint64_t moms_requests = 0, moms_hits = 0;
    for (std::uint32_t b = 0; b < cc.boards; ++b) {
        if (!boards[b])
            continue;
        Board& board = *boards[b];
        const BoardShard& shard = cp.shard(b);
        const BoardLink::BoardStats& ls = link.boardStats(b);

        ClusterBoardReport br;
        br.board = b;
        br.owned_nodes = shard.num_owned;
        br.ghost_nodes = shard.num_ghosts;
        br.local_edges = shard.local_edges;
        br.cut_edges = shard.cut_edges;
        br.iterations = board.iterations();
        br.edges_processed = board.edgesProcessed();
        br.dram_bytes_read = board.mem().totalBytesRead();
        br.dram_bytes_written = board.mem().totalBytesWritten();
        br.moms_hit_rate = board.moms().hitRate();
        br.link_wait_cycles = board.linkWaitCycles();
        br.credit_stall_cycles = ls.credit_stall_cycles;
        br.packets_sent = ls.packets_sent;
        br.marker_packets = ls.marker_packets;
        br.updates_sent = ls.updates_sent;
        br.wire_bytes = ls.payload_bytes + ls.header_bytes;
        br.telemetry = board.finalizeTelemetry();

        run.iterations = std::max(run.iterations, board.iterations());
        run.edges_processed += br.edges_processed;
        run.dram_bytes_read += br.dram_bytes_read;
        run.dram_bytes_written += br.dram_bytes_written;
        run.moms_requests += board.moms().totalRequests();
        run.moms_secondary_misses +=
            board.moms().totalSecondaryMisses();
        run.moms_lines_from_mem += board.moms().totalLinesFromMem();
        run.pe_raw_stalls += board.peRawStalls();
        moms_requests += board.moms().totalRequests();
        moms_hits += board.moms().totalHits();

        rep.boards.push_back(std::move(br));
    }
    run.moms_hit_rate =
        moms_requests == 0
            ? 0.0
            : static_cast<double>(moms_hits) /
                  static_cast<double>(moms_requests);
    return out;
}

} // namespace gmoms
