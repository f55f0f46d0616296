/**
 * @file
 * Multi-board scale-out: GTEPS as a function of the simulated board
 * count (1, 2, 4, 8) with BSP and asynchronous coordination, plus the
 * crossing-traffic breakdown (cut edges, ghosts, wire bytes) and the
 * per-board stall attribution (board-link wait and credit stalls) that
 * explains where the scaling curve bends.
 *
 * There is no counterpart figure in the paper — the paper's design is a
 * single board and its Section VII names multi-die/multi-FPGA scaling
 * as the natural extension. GraVF-M (BSP) and Swift (async) motivate
 * the two coordination modes; see docs/MODEL.md "Multi-board clusters".
 *
 * The historical 1.2M-edge dataset cap is a per-board budget: the
 * uncapped section runs one dataset above that cap (UK at 4 boards),
 * exercising exactly the scale a single board cannot hold.
 *
 * Flags: --smoke (tiny sweep for CI), --json=FILE (machine-readable
 * artifact; --smoke defaults it to BENCH_boards.json), plus the shared
 * --telemetry/--trace=FILE.
 */

#include "bench/bench_common.hh"
#include "src/cluster/cluster_engine.hh"

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

/** One (dataset, algo, boards, mode) design point. */
struct Point
{
    std::string tag;
    std::string algo;
    std::uint32_t boards = 1;
    ClusterConfig::Mode mode = ClusterConfig::Mode::Bsp;

    std::string
    label() const
    {
        if (boards == 1)
            return "1x";
        return std::to_string(boards) + "x" +
               (mode == ClusterConfig::Mode::Bsp ? "bsp" : "async");
    }
};

AccelConfig
pointConfig(const Point& j)
{
    // The per-board machine stays fixed while boards are added, so the
    // curve isolates the interconnect (weak machine scaling).
    AccelConfig cfg =
        AccelConfig::preset(MomsConfig::twoLevel(8), /*pes=*/8,
                            /*channels=*/2);
    cfg.cluster.boards = j.boards;
    cfg.cluster.mode = j.mode;
    return cfg;
}

SessionResult
runPoint(const CooGraph& g, const Point& j, const TelemetryCli& cli)
{
    AccelConfig cfg = pointConfig(j);
    cli.apply(cfg, j.algo + " " + j.tag + " " + j.label());
    Session session = SessionBuilder()
                          .datasetView(g)
                          .config(std::move(cfg))
                          .build();
    return session.run(j.algo, 0,
                       j.algo == "PageRank" ? pagerankIterations()
                                            : convergenceCap());
}

} // namespace

int
main(int argc, char** argv)
{
    TelemetryCli cli;
    cli.parse(argc, argv);
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }
    if (smoke && json_path.empty())
        json_path = "BENCH_boards.json";

    const std::vector<std::uint32_t> board_counts =
        smoke ? std::vector<std::uint32_t>{1, 2, 4}
              : std::vector<std::uint32_t>{1, 2, 4, 8};
    const std::vector<std::string> algos =
        smoke ? std::vector<std::string>{"PageRank", "SSSP"}
              : std::vector<std::string>{"PageRank", "SCC", "SSSP"};
    const std::vector<std::string> tags =
        smoke ? std::vector<std::string>{"WT"} : benchDatasetTags();
    const std::vector<ClusterConfig::Mode> modes = {
        ClusterConfig::Mode::Bsp, ClusterConfig::Mode::Async};

    std::printf("=== Multi-board scale-out: GTEPS vs board count "
                "(per-board 8/8 two-level MOMS @2ch) ===\n\n");

    std::vector<Point> jobs;
    for (const std::string& tag : tags)
        for (const std::string& algo : algos)
            for (std::uint32_t boards : board_counts) {
                if (boards == 1) {
                    jobs.push_back({tag, algo, 1,
                                    ClusterConfig::Mode::Bsp});
                    continue;
                }
                for (ClusterConfig::Mode mode : modes)
                    jobs.push_back({tag, algo, boards, mode});
            }

    const std::vector<SessionResult> outcomes =
        sweep(jobs, [&](const Point& j) {
            return runPoint(*loadDataset(j.tag), j, cli);
        });

    JsonReport report;
    report.set("smoke", smoke);

    // --- Scaling table: GTEPS per (dataset, algo) across points -------
    std::size_t next = 0;
    for (const std::string& tag : tags) {
        std::printf("--- %s (GTEPS; speedup vs 1 board) ---\n",
                    tag.c_str());
        std::vector<std::string> header = {"algo", "1x"};
        for (std::uint32_t boards : board_counts)
            if (boards > 1) {
                header.push_back(std::to_string(boards) + "xbsp");
                header.push_back(std::to_string(boards) + "xasync");
            }
        header.push_back("best/1x");
        Table table(header);

        for (const std::string& algo : algos) {
            std::vector<std::string> row = {algo};
            double base = 0, best = 0;
            for (std::uint32_t boards : board_counts) {
                const std::size_t points = boards == 1 ? 1 : 2;
                for (std::size_t m = 0; m < points; ++m) {
                    const Point& j = jobs[next];
                    const SessionResult& res = outcomes[next++];
                    if (boards == 1)
                        base = res.gteps;
                    best = std::max(best, res.gteps);
                    row.push_back(fmt(res.gteps, 3));
                    report.set(tag + "." + algo + "." + j.label() +
                                   ".gteps",
                               res.gteps);
                    if (res.cluster) {
                        report.set(tag + "." + algo + "." + j.label() +
                                       ".wire_bytes",
                                   res.cluster->link_wire_bytes);
                        report.set(tag + "." + algo + "." + j.label() +
                                       ".cut_edges",
                                   static_cast<std::uint64_t>(
                                       res.cluster->cut_edges));
                    }
                }
            }
            row.push_back(fmt(base > 0 ? best / base : 0, 2) + "x");
            table.addRow(row);
        }
        table.print();
        std::printf("\n");
    }

    // --- Crossing-traffic breakdown (largest board count, BSP) --------
    std::printf("=== Crossing traffic at %ux (BSP, PageRank) ===\n",
                board_counts.back());
    Table traffic({"dataset", "cut-edges", "cut%", "ghosts",
                   "wire-MB", "packets", "marker%", "edge-balance"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Point& j = jobs[i];
        const SessionResult& res = outcomes[i];
        if (j.algo != "PageRank" || j.boards != board_counts.back() ||
            j.mode != ClusterConfig::Mode::Bsp || !res.cluster)
            continue;
        const ClusterReport& rep = *res.cluster;
        EdgeId edges = 0;
        std::uint64_t markers = 0, packets = 0;
        for (const ClusterBoardReport& br : rep.boards) {
            edges += br.local_edges;
            markers += br.marker_packets;
            packets += br.packets_sent;
        }
        traffic.addRow(
            {j.tag,
             std::to_string(rep.cut_edges),
             fmt(100.0 * static_cast<double>(rep.cut_edges) /
                     static_cast<double>(std::max<EdgeId>(edges, 1)),
                 1) + "%",
             std::to_string(rep.ghost_count),
             fmt(static_cast<double>(rep.link_wire_bytes) /
                     (1024.0 * 1024.0),
                 2),
             std::to_string(packets),
             fmt(packets > 0
                     ? 100.0 * static_cast<double>(markers) /
                           static_cast<double>(packets)
                     : 0.0,
                 1) + "%",
             fmt(rep.edge_balance, 2)});
    }
    traffic.print();
    std::printf("\n");

    // --- Per-board attribution (first dataset, largest BSP point) -----
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Point& j = jobs[i];
        if (j.tag != tags.front() || j.algo != "PageRank" ||
            j.boards != board_counts.back() ||
            j.mode != ClusterConfig::Mode::Bsp)
            continue;
        const SessionResult& res = outcomes[i];
        if (!res.cluster)
            break;
        std::printf("=== Per-board attribution: %s PageRank %s "
                    "(%llu cycles) ===\n",
                    j.tag.c_str(), j.label().c_str(),
                    static_cast<unsigned long long>(res.run.cycles));
        Table per_board({"board", "owned", "ghosts", "edges",
                         "cut-edges", "moms-hit", "link-wait%",
                         "credit-stall%", "wire-KB"});
        const double cyc = static_cast<double>(res.run.cycles);
        for (const ClusterBoardReport& br : res.cluster->boards) {
            per_board.addRow(
                {std::to_string(br.board),
                 std::to_string(br.owned_nodes),
                 std::to_string(br.ghost_nodes),
                 std::to_string(br.local_edges),
                 std::to_string(br.cut_edges),
                 fmt(100.0 * br.moms_hit_rate, 1) + "%",
                 fmt(100.0 * static_cast<double>(br.link_wait_cycles) /
                         cyc,
                     1) + "%",
                 fmt(100.0 *
                         static_cast<double>(br.credit_stall_cycles) /
                         cyc,
                     1) + "%",
                 fmt(static_cast<double>(br.wire_bytes) / 1024.0, 1)});
            report.set("attribution.b" + std::to_string(br.board) +
                           ".link_wait_cycles",
                       br.link_wait_cycles);
            report.set("attribution.b" + std::to_string(br.board) +
                           ".credit_stall_cycles",
                       br.credit_stall_cycles);
        }
        per_board.print();
        std::printf("\n");
        break;
    }

    // --- Above the single-board cap: UK at 4 boards -------------------
    // UK scales to 3.66M edges — 3x over the historical 1.2M per-board
    // cap, which a partitioned 4-board run is budgeted for. Skipped in
    // smoke mode (CI-sized).
    if (!smoke) {
        const DatasetProfile& uk = datasetByTag("UK");
        const std::uint32_t boards = 4;
        std::printf("=== Above the 1.2M single-board edge cap: %s, "
                    "%u boards ===\n",
                    uk.full_name.c_str(), boards);
        CooGraph big = buildDataset(uk, /*seed=*/1, boards);
        std::printf("dataset %s: %u nodes, %llu edges (single-board "
                    "cap %llu)\n",
                    uk.tag.c_str(), big.numNodes(),
                    static_cast<unsigned long long>(big.numEdges()),
                    static_cast<unsigned long long>(
                        DatasetProfile::kEdgeCap));
        AccelConfig cfg = pointConfig(
            {uk.tag, "PageRank", boards, ClusterConfig::Mode::Bsp});
        Session session = SessionBuilder()
                              .dataset(std::move(big))
                              .config(std::move(cfg))
                              .preprocessing(Preprocessing::DbgHash)
                              .build();
        const SessionResult res =
            session.pageRank(pagerankIterations());
        std::printf("completed: %.3f GTEPS over %llu cycles, "
                    "%.1f%% cut, %.2f MB on the wire\n\n",
                    res.gteps,
                    static_cast<unsigned long long>(res.run.cycles),
                    100.0 *
                        static_cast<double>(res.cluster->cut_edges) /
                        static_cast<double>(res.run.edges_processed /
                                            std::max(1u,
                                                     res.run.iterations)),
                    static_cast<double>(
                        res.cluster->link_wire_bytes) /
                        (1024.0 * 1024.0));
        report.set("uncapped.dataset", std::string(uk.tag));
        report.set("uncapped.edges",
                   static_cast<std::uint64_t>(
                       session.graph().numEdges()));
        report.set("uncapped.gteps", res.gteps);
    }

    std::printf("Expected shape: near-linear GTEPS scaling while the "
                "cut stays small (block-edges\npartitioning); "
                "round-trips and credit stalls grow with board count "
                "and bound BSP at\nhigh cut ratios, where async "
                "coordination pulls ahead.\n");

    if (!json_path.empty()) {
        if (writeReportAtomically(json_path, report))
            std::printf("\nwrote %s\n", json_path.c_str());
        else
            std::printf("\ncould not write %s\n", json_path.c_str());
    }

    if (cli.enabled()) {
        std::vector<TelemetrySummaryPtr> summaries;
        for (const SessionResult& res : outcomes) {
            if (!res.cluster) {
                summaries.push_back(res.run.telemetry);
                continue;
            }
            for (const ClusterBoardReport& br : res.cluster->boards)
                summaries.push_back(br.telemetry);
        }
        cli.maybeWriteTrace(summaries);
    }
    return 0;
}
