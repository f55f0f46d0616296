/**
 * @file
 * Seeded randomized hardening harness: every run draws a random graph
 * (R-MAT / power-law / uniform / grid / star), a random kernel and a
 * random extreme-but-legal AccelConfig, then simulates it under BOTH
 * engine modes with the full hardening layer enabled (conservation
 * checkers and physical-bound audits, quiescence watchdog, shadow
 * functional memory) and demands
 *
 *   - bit-exact cycle counts and raw values between the idle-aware and
 *     the legacy full-tick engine,
 *   - agreement with the textbook golden oracle (exact for SCC, SSSP
 *     and BFS; fixed-point tolerance for PageRank),
 *   - no checker or watchdog firing on a healthy configuration.
 *
 * Usage:
 *   fuzz_sim [--runs=N] [--seed=S] [--smoke] [--dump=PATH]
 *
 * --smoke caps the run count (CI); --dump sets CheckConfig::dump_path
 * so a firing watchdog leaves its diagnostic on disk. Any failure
 * prints the reproducing seed and exits nonzero.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/graph/generator.hh"

using namespace gmoms;

namespace
{

struct Options
{
    std::uint64_t runs = 200;
    std::uint64_t seed = 1;
    std::string dump_path;
};

template <typename T, std::size_t N>
const T&
pick(std::mt19937_64& rng, const T (&choices)[N])
{
    return choices[rng() % N];
}

CooGraph
drawGraph(std::mt19937_64& rng, std::string* desc)
{
    char buf[96];
    switch (rng() % 5) {
      case 0: {
        const std::uint32_t scale = 8 + rng() % 3;  // 256..1024 nodes
        const EdgeId edges = (EdgeId{1} << scale) * (3 + rng() % 8);
        const std::uint64_t s = rng();
        std::snprintf(buf, sizeof(buf), "rmat(scale=%u, edges=%llu)",
                      scale, static_cast<unsigned long long>(edges));
        *desc = buf;
        return rmat(scale, edges, RmatParams{}, s);
      }
      case 1: {
        const NodeId n = 256 + rng() % 3800;
        const EdgeId edges = n * (2 + rng() % 8);
        const double alpha = 1.8 + 0.2 * static_cast<double>(rng() % 6);
        const std::uint64_t s = rng();
        std::snprintf(buf, sizeof(buf),
                      "powerLaw(n=%u, edges=%llu, alpha=%.1f)", n,
                      static_cast<unsigned long long>(edges), alpha);
        *desc = buf;
        return powerLaw(n, edges, alpha, /*locality=*/0.5,
                        /*window=*/64, s);
      }
      case 2: {
        const NodeId n = 200 + rng() % 3000;
        const EdgeId edges = n * (2 + rng() % 10);
        const std::uint64_t s = rng();
        std::snprintf(buf, sizeof(buf), "uniform(n=%u, edges=%llu)", n,
                      static_cast<unsigned long long>(edges));
        *desc = buf;
        return uniformRandom(n, edges, s);
      }
      case 3: {
        const NodeId rows = 12 + rng() % 50, cols = 12 + rng() % 50;
        std::snprintf(buf, sizeof(buf), "grid2d(%u x %u)", rows, cols);
        *desc = buf;
        return grid2d(rows, cols);
      }
      default: {
        // Degenerate hub: every edge merges onto one node's sources.
        const NodeId n = 64 + rng() % 2000;
        std::snprintf(buf, sizeof(buf), "star(n=%u)", n);
        *desc = buf;
        return star(n);
      }
    }
}

void
mutateBank(std::mt19937_64& rng, MomsBankConfig& bank)
{
    static const std::uint32_t kMshrsPerTable[] = {1, 2, 16, 256};
    static const std::uint32_t kTables[] = {1, 2, 4};
    static const std::uint32_t kKicks[] = {1, 4, 8};
    static const std::uint32_t kSubentries[] = {2, 8, 64, 8192};
    static const std::uint32_t kDepth[] = {1, 2, 16};
    static const Cycle kLat[] = {1, 2, 4};
    bank.mshr_tables = pick(rng, kTables);
    // The cuckoo file partitions evenly across its ways.
    bank.num_mshrs = bank.mshr_tables * pick(rng, kMshrsPerTable);
    bank.max_kicks = pick(rng, kKicks);
    bank.num_subentries = pick(rng, kSubentries);
    bank.req_queue_depth = pick(rng, kDepth);
    bank.resp_queue_depth = pick(rng, kDepth);
    bank.req_latency = pick(rng, kLat);
    bank.resp_latency = pick(rng, kLat);
    if (rng() % 3 == 0) {
        bank.cache_bytes = 0;  // cache-less (Figs. 12/15 regime)
    } else if (bank.cache_bytes > 0) {
        static const std::uint32_t kWays[] = {1, 2, 4};
        bank.cache_ways = pick(rng, kWays);
    }
}

AccelConfig
drawConfig(std::mt19937_64& rng, const Options& opts,
           std::string* desc)
{
    static const std::uint32_t kPes[] = {1, 2, 3, 4, 8};
    static const std::uint32_t kChannels[] = {1, 2, 4};
    static const std::uint32_t kBankMult[] = {1, 2, 4};
    static const Cycle kCrossing[] = {1, 2, 4, 32};
    static const std::uint32_t kXbarDepth[] = {1, 2, 8, 32};
    static const std::uint32_t kThreads[] = {1, 4, 64, 1024};
    static const std::uint32_t kBurstLines[] = {1, 2, 8};
    static const std::uint32_t kBursts[] = {1, 2, 4};
    static const std::uint32_t kInitLines[] = {1, 4, 32};
    static const std::uint32_t kNodesPerCycle[] = {1, 4};

    // A quarter of the draws run on the HBM2 pseudo-channel substrate
    // (narrow buses, fine interleave): the functional plane must not
    // notice, so the engine-mode and golden oracles apply unchanged.
    static const std::uint32_t kPseudoChannels[] = {2, 4, 8};
    const bool hbm = rng() % 4 == 0;
    const std::uint32_t channels =
        hbm ? pick(rng, kPseudoChannels) : pick(rng, kChannels);
    const std::uint32_t banks = channels * pick(rng, kBankMult);
    MomsConfig moms;
    const char* shape;
    switch (rng() % 4) {
      case 0:
        moms = MomsConfig::twoLevel(banks,
                                    rng() % 2 ? 2048 : 0);
        shape = "two-level";
        break;
      case 1:
        moms = MomsConfig::shared(banks);
        shape = "shared";
        break;
      case 2:
        moms = MomsConfig::privateOnly();
        shape = "private";
        break;
      default:
        moms = MomsConfig::traditionalTwoLevel(banks);
        shape = "traditional";
        break;
    }
    moms.crossing_latency = pick(rng, kCrossing);
    moms.crossbar_queue_depth = pick(rng, kXbarDepth);
    mutateBank(rng, moms.shared_bank);
    mutateBank(rng, moms.private_bank);

    AccelConfig cfg = AccelConfig::preset(std::move(moms),
                                          pick(rng, kPes), channels);
    if (hbm)
        cfg.mem = MemSubstrateConfig::hbm2(channels);
    cfg.max_threads = pick(rng, kThreads);
    cfg.edge_burst_lines = pick(rng, kBurstLines);
    cfg.max_edge_bursts = pick(rng, kBursts);
    cfg.init_burst_lines = pick(rng, kInitLines);
    cfg.nodes_per_cycle = pick(rng, kNodesPerCycle);

    cfg.checks.enabled = true;
    cfg.checks.shadow_memory = true;
    cfg.checks.watchdog_interval = 200'000;
    cfg.checks.dump_path = opts.dump_path;

    // A third of the draws become multi-board clusters: the cluster
    // path must satisfy the same oracles as the single board (engine
    // modes bit-exact, golden agreement) for every topology and link
    // shape, including a starved link (1 credit, 500-cycle latency).
    if (rng() % 3 == 0) {
        static const std::uint32_t kBoards[] = {2, 3, 4, 8};
        static const std::uint32_t kLinkBytes[] = {4, 16, 64};
        static const Cycle kLinkLat[] = {8, 64, 500};
        static const std::uint32_t kCredits[] = {1, 4, 16};
        static const std::uint32_t kPacket[] = {24, 64, 1024};
        cfg.cluster.boards = pick(rng, kBoards);
        cfg.cluster.mode = rng() % 2 ? ClusterConfig::Mode::Async
                                     : ClusterConfig::Mode::Bsp;
        cfg.cluster.partitioner =
            rng() % 2 ? ClusterConfig::Partitioner::RoundRobin
                      : ClusterConfig::Partitioner::BlockEdges;
        cfg.cluster.link_bytes_per_cycle = pick(rng, kLinkBytes);
        cfg.cluster.link_latency = pick(rng, kLinkLat);
        cfg.cluster.link_credits = pick(rng, kCredits);
        cfg.cluster.link_max_packet_bytes = pick(rng, kPacket);
        // Boards park for long stretches at barriers / on ghost waits;
        // the quiescence watchdog would misread that as a hang (same
        // rule serve::validateJobSpec applies to boards > 1).
        cfg.checks.enabled = false;
        cfg.checks.shadow_memory = false;
    }

    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %u pe / %u %s / %u banks",
                  shape, cfg.num_pes, cfg.mem.channels,
                  hbm ? "pc-hbm" : "ch-ddr4", banks);
    *desc = buf;
    if (cfg.cluster.enabled()) {
        std::snprintf(buf, sizeof(buf), " x %u boards (%s, %s)",
                      cfg.cluster.boards,
                      cfg.cluster.mode == ClusterConfig::Mode::Bsp
                          ? "bsp"
                          : "async",
                      cfg.cluster.partitioner ==
                              ClusterConfig::Partitioner::BlockEdges
                          ? "block-edges"
                          : "round-robin");
        *desc += buf;
    }
    return cfg;
}

/** One seeded run; returns false (after printing the repro line) on
 *  any disagreement. Checker aborts propagate as exceptions. */
bool
runOne(std::uint64_t seed, const Options& opts)
{
    std::mt19937_64 rng(seed);
    std::string graph_desc, cfg_desc;
    CooGraph g = drawGraph(rng, &graph_desc);
    AccelConfig cfg = drawConfig(rng, opts, &cfg_desc);

    static const char* kAlgos[] = {"PageRank", "SCC", "SSSP", "BFS"};
    const std::string algo = kAlgos[rng() % 4];
    const NodeId source =
        static_cast<NodeId>(rng() % g.numNodes());
    if (algo == "SSSP")
        addRandomWeights(g, rng());  // session uses the graph's weights

    // A quarter of the draws stream the packed half-word CSR. The base
    // relabeling stays identity, so the golden oracles compare in the
    // external id space exactly as for the plain encoding.
    const Preprocessing prep =
        rng() % 4 == 0 ? Preprocessing::Packed : Preprocessing::None;
    if (prep == Preprocessing::Packed)
        cfg_desc += " packed";

    cfg.validate();  // the draw must only ever produce legal configs
    if (std::getenv("FUZZ_VERBOSE"))
        std::fprintf(stderr, "seed %llu: %s | %s | %s\n",
                     static_cast<unsigned long long>(seed),
                     graph_desc.c_str(), cfg_desc.c_str(),
                     algo.c_str());

    auto fail = [&](const std::string& what) {
        std::fprintf(stderr,
                     "FUZZ FAILURE (seed %llu): %s\n"
                     "  graph:  %s\n  config: %s\n  algo:   %s "
                     "(source %u)\n",
                     static_cast<unsigned long long>(seed),
                     what.c_str(), graph_desc.c_str(),
                     cfg_desc.c_str(), algo.c_str(), source);
        return false;
    };

    auto runMode = [&](bool full_tick) {
        AccelConfig mode_cfg = cfg;
        mode_cfg.full_tick_engine = full_tick;
        return SessionBuilder()
            .datasetView(g)
            .config(mode_cfg)
            .preprocessing(prep)
            .algo(algo)
            .iterations(algo == "PageRank" ? 3 : 1000)
            .source(source)
            .run();
    };

    SessionResult idle = runMode(false);
    SessionResult full = runMode(true);

    if (idle.run.cycles != full.run.cycles)
        return fail("engine modes disagree on cycle count: idle " +
                    std::to_string(idle.run.cycles) + " vs full-tick " +
                    std::to_string(full.run.cycles));
    if (idle.run.raw_values != full.run.raw_values)
        return fail("engine modes disagree on result values");

    const auto& raw = idle.run.raw_values;
    if (algo == "PageRank") {
        const std::vector<double> golden = goldenPageRank(g, 3);
        for (NodeId i = 0; i < g.numNodes(); ++i)
            if (std::abs(idle.values[i] - golden[i]) >
                2e-4 * golden[i] + 1e-8)
                return fail("PageRank diverges from golden at node " +
                            std::to_string(i));
    } else if (algo == "SCC") {
        if (raw != goldenMinLabel(g))
            return fail("SCC labels differ from golden fixpoint");
    } else if (algo == "SSSP") {
        if (raw != goldenSssp(g, source))
            return fail("SSSP distances differ from Bellman-Ford");
    } else {
        if (raw != goldenBfs(g, source))
            return fail("BFS depths differ from golden");
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--runs=", 0) == 0)
            opts.runs = std::strtoull(arg.c_str() + 7, nullptr, 10);
        else if (arg.rfind("--seed=", 0) == 0)
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        else if (arg.rfind("--dump=", 0) == 0)
            opts.dump_path = arg.substr(7);
        else if (arg == "--smoke")
            opts.runs = 40;
        else {
            std::fprintf(stderr,
                         "usage: fuzz_sim [--runs=N] [--seed=S] "
                         "[--smoke] [--dump=PATH]\n");
            return 2;
        }
    }
    if (opts.runs == 0) {
        std::fprintf(stderr, "fuzz_sim: --runs must be positive\n");
        return 2;
    }

    std::printf("fuzz_sim: %llu runs from seed %llu "
                "(checkers + shadow memory on, both engine modes)\n",
                static_cast<unsigned long long>(opts.runs),
                static_cast<unsigned long long>(opts.seed));
    for (std::uint64_t r = 0; r < opts.runs; ++r) {
        const std::uint64_t seed = opts.seed + r;
        try {
            if (!runOne(seed, opts))
                return 1;
        } catch (const CheckError& e) {
            std::fprintf(stderr,
                         "FUZZ FAILURE (seed %llu): hardening layer "
                         "fired on a healthy run:\n%s\n",
                         static_cast<unsigned long long>(seed),
                         e.what());
            return 1;
        } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "FUZZ FAILURE (seed %llu): unexpected "
                         "exception: %s\n",
                         static_cast<unsigned long long>(seed),
                         e.what());
            return 1;
        }
        if ((r + 1) % 25 == 0 || r + 1 == opts.runs)
            std::printf("  %llu/%llu ok\n",
                        static_cast<unsigned long long>(r + 1),
                        static_cast<unsigned long long>(opts.runs));
    }
    std::printf("fuzz_sim: all runs passed\n");
    return 0;
}
