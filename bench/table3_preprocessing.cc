/**
 * @file
 * Table III — Preprocessing time in seconds: shard partitioning,
 * cache-line hashing and DBG, measured per dataset stand-in on this
 * host (the paper uses a 20-core Xeon; absolute seconds differ, the
 * relative cost ordering — all lightweight, DBG cheapest — holds).
 * Two columns show the rest of a simulation's set-up: generating the
 * stand-in (buildDataset) and the one-pass DBG + hashing relabel
 * (applyPreprocessing) that the paper-default runs apply.
 */

#include <algorithm>
#include <chrono>

#include "bench/bench_common.hh"

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

double
timeIt(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    std::printf("=== Table III: preprocessing time in seconds ===\n\n");
    Table table({"tag", "generate", "partitioning", "hashing", "DBG",
                 "dbg+hash", "total edges"});
    for (const DatasetProfile& p : table2Profiles()) {
        CooGraph g;
        const double t_generate = timeIt([&] { g = buildDataset(p); });
        // CI runs this bench to build every stand-in, so a generator
        // fault must fail it, not only print odd timings.
        const bool in_range = std::all_of(
            g.edges().begin(), g.edges().end(), [&g](const Edge& e) {
                return e.src < g.numNodes() && e.dst < g.numNodes();
            });
        if (!in_range || g.numEdges() != p.edges())
            fatal("stand-in " + p.tag + " has the wrong edge count or an "
                  "edge outside its node range");
        auto [nd, ns] = defaultIntervalsFor(g.numNodes(), g.numEdges());

        double t_partition = timeIt([&] {
            PartitionedGraph pg(g, nd, ns);
            (void)pg;
        });
        double t_hash = timeIt([&] {
            CooGraph h = g.relabeled(hashCacheLines(g.numNodes(), nd));
            (void)h;
        });
        double t_dbg = timeIt([&] {
            CooGraph d = g.relabeled(dbgReorder(g));
            (void)d;
        });
        double t_dbg_hash = timeIt([&] {
            CooGraph dh = applyPreprocessing(g, Preprocessing::DbgHash, nd);
            (void)dh;
        });
        table.addRow({p.tag, fmt(t_generate, 4), fmt(t_partition, 4),
                      fmt(t_hash, 4), fmt(t_dbg, 4), fmt(t_dbg_hash, 4),
                      std::to_string(g.numEdges())});
    }
    table.print();
    std::printf("\nAll passes are O(M) or O(N) (Table III of the "
                "paper); every step besides partitioning\nis "
                "optional.\n");
    return 0;
}
