/**
 * @file
 * Simulation workloads: one dataset stand-in, one accelerator design
 * point, one algorithm, run in this process through the public library
 * calls (buildDataset, applyPreprocessing, Session::partition, the
 * Accelerator constructor and Accelerator::run), each timed from
 * outside.
 *
 * Why these three (benchmark/README.md has the measurements):
 *  - sim-ddr4-pagerank is throughput-bound: only ~3% of component ticks
 *    are skipped, so PE, MOMS and DDR4 tick cost sets the wall time;
 *  - sim-hbm-packed-pagerank is the only workload on HBM pseudo-channels,
 *    the packed half-word edge decode and init_outstanding_bursts=8;
 *  - sim-latency-bound-scc skips ~83% of component ticks, so the wake
 *    calendar and time-skip do the work there and little on the others.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "benchmark/src/bench.hh"
#include "src/accel/resource_model.hh"
#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/algo/reference.hh"
#include "src/graph/datasets.hh"
#include "src/graph/reorder.hh"
#include "src/obs/trace_export.hh"

namespace gbench
{

using namespace gmoms;

void
SimCounters::add(const RunResult& r, const Engine::Stats& e,
                 double construct_seconds, double run_seconds)
{
    ++runs;
    construct_s.push_back(construct_seconds);
    run_s.push_back(run_seconds);
    cycles += r.cycles;
    edges += r.edges_processed;
    raw_stalls += r.pe_raw_stalls;
    moms_requests += r.moms_requests;
    moms_hits += r.moms_hit_rate * static_cast<double>(r.moms_requests);
    secondary_misses += r.moms_secondary_misses;
    lines_from_mem += r.moms_lines_from_mem;
    dram_read += r.dram_bytes_read;
    dram_written += r.dram_bytes_written;
    edge_section_bytes += r.edge_section_bytes;
    engine.cycles += e.cycles;
    engine.cycles_skipped += e.cycles_skipped;
    engine.ticks_executed += e.ticks_executed;
    engine.ticks_skipped += e.ticks_skipped;
    engine.wakes += e.wakes;
}

void
SimCounters::emit(Metrics& m) const
{
    const double n = static_cast<double>(runs ? runs : 1);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto mean = [&](std::uint64_t v) { return d(v) / n; };
    const double ticks = d(engine.ticks_executed + engine.ticks_skipped);
    const double run_s_total =
        std::accumulate(run_s.begin(), run_s.end(), 0.0);
    m.set("accel.construct_s", median(construct_s), "s");
    m.set("accel.run_s", median(run_s), "s");
    m.set("engine.cycles_per_s",
          run_s_total > 0 ? d(engine.cycles) / run_s_total : 0, "1/s");
    m.set("engine.ns_per_tick",
          engine.ticks_executed
              ? run_s_total * 1e9 / d(engine.ticks_executed)
              : 0,
          "ns");
    m.set("engine.ticks_executed", mean(engine.ticks_executed), "count");
    m.set("engine.tick_skip_frac",
          ticks > 0 ? d(engine.ticks_skipped) / ticks : 0, "ratio");
    m.set("engine.cycles_skipped", mean(engine.cycles_skipped), "cycles");
    m.set("engine.wakes", mean(engine.wakes), "count");
    m.set("sim.cycles", mean(cycles), "cycles");
    m.set("pe.edges_processed", mean(edges), "count");
    m.set("pe.raw_stalls", mean(raw_stalls), "cycles");
    m.set("moms.hit_rate",
          moms_requests ? moms_hits / d(moms_requests) : 0, "ratio");
    m.set("moms.requests", mean(moms_requests), "count");
    m.set("moms.secondary_misses", mean(secondary_misses), "count");
    m.set("moms.lines_from_mem", mean(lines_from_mem), "count");
    m.set("mem.dram_bytes_read", mean(dram_read), "B");
    m.set("mem.dram_bytes_written", mean(dram_written), "B");
    m.set("mem.read_bytes_per_edge", edges ? d(dram_read) / d(edges) : 0,
          "B");
    m.set("graph.edge_section_bytes", mean(edge_section_bytes), "B");
}

namespace
{

struct SimWorkload
{
    const char* name;
    const char* dataset;
    Preprocessing prep;
    AccelConfig (*config)();
    const char* algo;  //!< "PageRank" or "SCC"
    std::uint32_t iterations;
    /** --smoke runs the same workload on the small WT stand-in with this
     *  iteration cap. SCC runs to convergence there: capped SCC values
     *  depend on update order, and only the UK runs at 4 iterations
     *  are known to equal the reference executor's. */
    std::uint32_t smoke_iterations;
};

constexpr const char* kSmokeDataset = "WT";

/** The Fig. 11 reference design "18/16 two-level 2k" over 4x DDR4. */
AccelConfig
fig11Reference()
{
    return AccelConfig::preset(MomsConfig::twoLevel(16, 2048), 18, 4);
}

/** 16 HBM2 pseudo-channels with the packed half-word edge encoding. */
AccelConfig
hbmPacked()
{
    AccelConfig cfg = AccelConfig::hbmTwoLevel();
    cfg.packed_edges = true;
    return cfg;
}

/** bench_engine's "1pe mlp1 nocache x32" point: one PE with one edge
 *  burst in flight, no cache arrays and deep die-crossing latency, so
 *  most components sleep through each DRAM round trip. */
AccelConfig
latencyBound()
{
    AccelConfig cfg = AccelConfig::preset(
        MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
    cfg.max_edge_bursts = 1;
    cfg.moms.crossing_latency = 32;
    return cfg;
}

const SimWorkload kSimWorkloads[] = {
    {"sim-ddr4-pagerank", "UK", Preprocessing::DbgHash, fig11Reference,
     "PageRank", 2, 2},
    {"sim-hbm-packed-pagerank", "UK", Preprocessing::Dbg, hbmPacked,
     "PageRank", 2, 2},
    {"sim-latency-bound-scc", "UK", Preprocessing::DbgHash, latencyBound,
     "SCC", 4, 1000},
};

/** The fewest timed runs a window may hold. */
constexpr int kMinTimedRuns = 3;

/** Stall groups folded into one class each: every pseudo-channel
 *  "hbm.pc<i>" is "hbm". */
std::string
stallClass(const std::string& group)
{
    if (group.rfind("hbm.", 0) == 0)
        return "hbm";
    return group;
}

/** One prepared session and what its set-up cost. */
struct Prepared
{
    std::unique_ptr<Session> session;
    double generate_s = 0;
    double preprocess_s = 0;
    double partition_s = 0;
    double total() const { return generate_s + preprocess_s + partition_s; }
};

Prepared
prepare(const SimWorkload& w, const std::string& dataset, std::uint64_t seed,
        SpanRecorder& spans)
{
    Prepared p;
    const Clock::time_point t0 = Clock::now();
    CooGraph raw = buildDataset(datasetByTag(dataset), seed);
    const Clock::time_point t1 = Clock::now();
    const std::uint32_t nd =
        defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
    auto graph = std::make_shared<const CooGraph>(
        applyPreprocessing(raw, w.prep, nd));
    const Clock::time_point t2 = Clock::now();
    p.session = std::make_unique<Session>(graph, w.config());
    p.session->partition();
    const Clock::time_point t3 = Clock::now();
    p.generate_s = seconds(t0, t1);
    p.preprocess_s = seconds(t1, t2);
    p.partition_s = seconds(t2, t3);
    spans.span("setup", "setup", t0, t3);
    spans.span("buildDataset", "graph", t0, t1, 1);
    spans.span("applyPreprocessing", "graph", t1, t2, 1);
    spans.span("Session::partition", "accel", t2, t3, 1);
    return p;
}

struct TimedRun
{
    RunResult result;
    Engine::Stats engine;
    double construct_s = 0;
    double run_s = 0;
    double gteps = 0;
    double wall() const { return construct_s + run_s; }
};

TimedRun
runOnce(const Session& s, const AlgoSpec& spec, const AccelConfig& cfg,
        SpanRecorder& spans, const std::string& label)
{
    TimedRun out;
    const Clock::time_point t0 = Clock::now();
    Accelerator accel(cfg, s.partition(), spec);
    const Clock::time_point t1 = Clock::now();
    out.result = accel.run();
    const Clock::time_point t2 = Clock::now();
    out.engine = accel.engine().stats();
    out.construct_s = seconds(t0, t1);
    out.run_s = seconds(t1, t2);
    out.gteps = out.result.gteps(modelFrequencyMhz(cfg, spec));
    spans.span(label, "run", t0, t2);
    spans.span("Accelerator()", "accel", t0, t1, 1);
    spans.span("Accelerator::run", "accel", t1, t2, 1);
    return out;
}

/** Every deterministic output of two runs of one simulation, compared;
 *  empty when identical. */
std::string
firstDifference(const RunResult& a, const RunResult& b)
{
    if (a.cycles != b.cycles)
        return "cycles";
    if (a.iterations != b.iterations)
        return "iterations";
    if (a.edges_processed != b.edges_processed)
        return "edges_processed";
    if (a.dram_bytes_read != b.dram_bytes_read)
        return "dram_bytes_read";
    if (a.dram_bytes_written != b.dram_bytes_written)
        return "dram_bytes_written";
    if (a.moms_hit_rate != b.moms_hit_rate)
        return "moms_hit_rate";
    if (a.moms_requests != b.moms_requests)
        return "moms_requests";
    if (a.moms_secondary_misses != b.moms_secondary_misses)
        return "moms_secondary_misses";
    if (a.moms_lines_from_mem != b.moms_lines_from_mem)
        return "moms_lines_from_mem";
    if (a.pe_raw_stalls != b.pe_raw_stalls)
        return "pe_raw_stalls";
    if (a.packed_layout != b.packed_layout ||
        a.edge_section_bytes != b.edge_section_bytes)
        return "edge layout";
    if (a.raw_values != b.raw_values)
        return "raw_values";
    return "";
}

/** Check the first run against an independent oracle: goldenPageRank
 *  within the 2e-4 relative tolerance of tests/test_accelerator.cc, or
 *  the Template 1 reference executor bit for bit. */
void
checkOracle(const SimWorkload& w, const Session& s, const AlgoSpec& spec,
            std::uint32_t iterations, const RunResult& r, Result& res)
{
    const CooGraph& g = s.graph();
    if (std::string(w.algo) == "PageRank") {
        if (r.iterations != iterations)
            res.fail("PageRank ran " + std::to_string(r.iterations) +
                     " iterations, not " + std::to_string(iterations));
        const std::vector<double> golden = goldenPageRank(g, iterations);
        std::uint64_t bad = 0;
        for (NodeId i = 0; i < g.numNodes(); ++i) {
            const double got = spec.finalValue(r.raw_values[i], i);
            if (!(std::fabs(got - golden[i]) <= 2e-4 * golden[i] + 1e-8))
                ++bad;
        }
        if (bad)
            res.fail(std::to_string(bad) +
                     " PageRank values outside 2e-4 of goldenPageRank");
    } else if (runReference(s.partition(), spec).raw_values != r.raw_values) {
        res.fail("SCC labels differ from runReference");
    }
}

} // namespace

bool
isSimWorkload(const std::string& name)
{
    for (const SimWorkload& w : kSimWorkloads)
        if (name == w.name)
            return true;
    return false;
}

Result
runSim(const Options& opt)
{
    const SimWorkload* wp = nullptr;
    for (const SimWorkload& w : kSimWorkloads)
        if (opt.workload == w.name)
            wp = &w;
    const SimWorkload& w = *wp;
    Result res;
    SpanRecorder spans(opt.trace);
    Metrics& m = res.metrics;

    // Set-up, repeated: each set-up replaces the previous session, so
    // peak memory holds one prepared dataset as in a single set-up.
    const int setups = opt.smoke ? 1 : kSetups;
    const std::string dataset = opt.smoke ? kSmokeDataset : w.dataset;
    Prepared prep;
    std::vector<double> setup_s, generate_s, preprocess_s, partition_s;
    for (int i = 0; i < setups; ++i) {
        prep = Prepared{};
        prep = prepare(w, dataset, opt.seed, spans);
        setup_s.push_back(prep.total());
        generate_s.push_back(prep.generate_s);
        preprocess_s.push_back(prep.preprocess_s);
        partition_s.push_back(prep.partition_s);
    }
    const Session& session = *prep.session;
    const AccelConfig& cfg = session.config();
    const std::uint32_t iters =
        opt.smoke ? w.smoke_iterations : w.iterations;
    const AlgoSpec spec =
        std::string(w.algo) == "PageRank"
            ? AlgoSpec::pageRank(session.graph(), iters)
            : AlgoSpec::scc(session.graph().numNodes(), iters);

    // The untimed warm-up is also the run every later one must equal
    // bit for bit, and the one checked against the oracle.
    const TimedRun first = runOnce(session, spec, cfg, spans, "warm-up");
    ++res.attempted;
    checkOracle(w, session, spec, iters, first.result, res);
    if (!res.correct)
        ++res.failed;

    std::vector<TimedRun> timed;
    const Clock::time_point window = Clock::now();
    const int min_runs = opt.smoke ? 1 : kMinTimedRuns;
    while (static_cast<int>(timed.size()) < min_runs ||
           since(window) < opt.seconds) {
        timed.push_back(runOnce(session, spec, cfg, spans,
                                "run " + std::to_string(timed.size())));
        ++res.attempted;
        const TimedRun& t = timed.back();
        const std::string diff = firstDifference(first.result, t.result);
        if (!diff.empty() ||
            t.engine.ticks_executed != first.engine.ticks_executed ||
            t.engine.wakes != first.engine.wakes) {
            res.fail("timed run " + std::to_string(timed.size()) +
                     " differs from the warm-up in " +
                     (diff.empty() ? "engine counters" : diff));
            ++res.failed;
        }
        std::fprintf(stderr, "  %s run %zu: %.3f s, %llu cycles\n", w.name,
                     timed.size(), t.wall(),
                     static_cast<unsigned long long>(t.result.cycles));
    }
    const double window_s = since(window);

    std::vector<double> walls_ms;
    SimCounters counters;
    for (const TimedRun& t : timed) {
        walls_ms.push_back(t.wall() * 1e3);
        counters.add(t.result, t.engine, t.construct_s, t.run_s);
    }

    // End to end: this workload is a closed loop with one job in
    // flight, so its capacity is the reciprocal of the median job.
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", selfPeakRssMb(), "MiB");
    m.set("job_p50_ms", median(walls_ms), "ms");
    m.set("jobs_per_s", 1e3 / median(walls_ms), "1/s");
    m.set("sim_gteps", first.gteps, "GTEPS");
    res.notes.push_back(std::to_string(timed.size()) +
                        " timed runs in a " + std::to_string(window_s) +
                        " s window");

    // Per layer: the set-up split, then host time, engine counts and
    // simulated counters of the untraced timed runs.
    m.set("graph.generate_s", median(generate_s), "s");
    m.set("graph.preprocess_s", median(preprocess_s), "s");
    m.set("accel.partition_s", median(partition_s), "s");
    counters.emit(m);

    if (opt.trace) {
        // The traced pass: telemetry on, results must not move.
        AccelConfig traced_cfg = cfg;
        traced_cfg.telemetry.enabled = true;
        traced_cfg.telemetry.label = std::string(w.name) + " (simulated)";
        const TimedRun t =
            runOnce(session, spec, traced_cfg, spans, "traced run");
        ++res.attempted;
        const std::string diff = firstDifference(first.result, t.result);
        if (!diff.empty()) {
            res.fail("telemetry changed the run: " + diff);
            ++res.failed;
        }
        m.set("trace.overhead_frac",
              t.wall() / (median(walls_ms) / 1e3) - 1.0, "ratio");
        std::map<std::string, double> stalls;
        double total = 0;
        if (t.result.telemetry) {
            for (const TelemetrySummary::StallTotal& st :
                 t.result.telemetry->stalls) {
                const std::string name = "stall." + stallClass(st.group) +
                                         "." + stallCauseName(st.cause);
                stalls[name] += static_cast<double>(st.cycles);
                total += static_cast<double>(st.cycles);
            }
        } else {
            res.fail("telemetry on but no summary");
        }
        // A class outside the fixed list fails run.py's name check.
        for (const auto& [name, cycles] : stalls)
            m.set(name, cycles, "cycles");
        m.set("stall.total", total, "cycles");
        res.trace_json = chromeDocument(
            spans.events(), chromeTraceString({t.result.telemetry}));
    }
    zeroUnsetPerLayer(m, res);
    return res;
}

} // namespace gbench
