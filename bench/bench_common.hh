/**
 * @file
 * Shared infrastructure for the per-figure/table bench binaries:
 * architecture presets (the Fig. 11 design points, scaled), dataset
 * loading with preprocessing, run helpers and table formatting.
 *
 * Every bench prints the same rows/series as the corresponding paper
 * figure or table. Absolute GTEPS are measured on the scaled synthetic
 * stand-ins (DESIGN.md), so shapes and ratios — not absolute numbers —
 * are the reproduction target; EXPERIMENTS.md records both.
 */

#ifndef GMOMS_BENCH_BENCH_COMMON_HH
#define GMOMS_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/accel/accelerator.hh"
#include "src/accel/resource_model.hh"
#include "src/accel/session.hh"
#include "src/algo/spec.hh"
#include "src/graph/datasets.hh"
#include "src/graph/generator.hh"
#include "src/graph/reorder.hh"
#include "src/obs/trace_export.hh"
#include "src/serve/dataset_cache.hh"
#include "src/sim/parallel.hh"
#include "src/sim/report.hh"

namespace gmoms::bench
{

/** A named architecture design point (Fig. 11 label convention:
 *  "PEs/banks kind private-kB"). */
struct ArchPreset
{
    std::string name;
    AccelConfig config;
};

/** The Fig. 11 design-point set, scaled (paper sizes / 8). */
inline std::vector<ArchPreset>
fig11Presets(std::uint32_t channels = 4)
{
    auto base = [&](MomsConfig moms, std::uint32_t pes) {
        return AccelConfig::preset(std::move(moms), pes, channels);
    };
    return {
        {"16/16 two-level", base(MomsConfig::twoLevel(16), 16)},
        {"18/16 two-level 2k",
         base(MomsConfig::twoLevel(16, 2048), 18)},
        {"20/8 two-level", base(MomsConfig::twoLevel(8), 20)},
        {"16/16 shared", base(MomsConfig::shared(16), 16)},
        {"24/8 shared", base(MomsConfig::shared(8), 24)},
        {"20 private 1k", base(MomsConfig::privateOnly(), 20)},
        {"16/16 trad 2L", base(MomsConfig::traditionalTwoLevel(16), 16)},
        {"20/8 trad 2L", base(MomsConfig::traditionalTwoLevel(8), 20)},
    };
}

/** Iteration caps for bench runs: the paper runs PageRank for 10
 *  iterations and the rest to convergence; benches cap work so the full
 *  suite runs in minutes (throughput is per-edge and stable across
 *  iterations; GMOMS_PAPER_ITERATIONS=1 restores paper settings). */
inline std::uint32_t
pagerankIterations()
{
    if (const char* env = std::getenv("GMOMS_PAPER_ITERATIONS");
        env && env[0] == '1')
        return 10;
    return 2;
}

inline std::uint32_t
convergenceCap()
{
    if (const char* env = std::getenv("GMOMS_PAPER_ITERATIONS");
        env && env[0] == '1')
        return 1000;
    return 4;
}

/** Immutable, shareable dataset handle (one build per process, all
 *  sweep workers reference the same graph). */
using DatasetPtr = serve::DatasetPtr;

/**
 * Build a dataset stand-in with the paper-default preprocessing,
 * served from the process-wide serve::DatasetCache: one build per
 * (tag, prep, nd) key with concurrent callers waiting on that build
 * (the PR-2 once-per-key contract), shared by pointer so sweep workers
 * never copy multi-MB graphs — but now under an LRU byte budget
 * (GMOMS_DATASET_CACHE_MB) instead of unbounded process-lifetime
 * memoization. Rebuilds after eviction are bit-identical, so sweep
 * outputs stay byte-stable (test_sweep_determinism).
 */
inline DatasetPtr
loadDataset(const std::string& tag,
            Preprocessing prep = Preprocessing::DbgHash,
            std::uint32_t nd_hint = 0)
{
    return serve::DatasetCache::process().get(tag, prep, nd_hint);
}

/** Algorithm factory by name for the three paper kernels. */
inline AlgoSpec
makeSpec(const std::string& algo, const CooGraph& g)
{
    if (algo == "PageRank")
        return AlgoSpec::pageRank(g, pagerankIterations());
    if (algo == "SCC")
        return AlgoSpec::scc(g.numNodes(), convergenceCap());
    if (algo == "SSSP")
        return AlgoSpec::sssp(0, convergenceCap());
    throw FatalError("unknown algorithm " + algo);
}

struct RunOutcome
{
    RunResult result;
    double freq_mhz = 0;
    double gteps = 0;
    Engine::Stats engine;    //!< engine activity counters of the run
    double wall_seconds = 0; //!< wall-clock time of Accelerator::run()
};

/**
 * Shared `--telemetry` / `--trace=FILE` flag handling for bench mains.
 * `--trace` implies `--telemetry`; unknown arguments are ignored so a
 * bench's own flags pass through untouched.
 */
struct TelemetryCli
{
    bool telemetry = false;
    std::string trace_path;

    void
    parse(int argc, char** argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--telemetry")
                telemetry = true;
            else if (arg.rfind("--trace=", 0) == 0) {
                trace_path = arg.substr(8);
                telemetry = true;
            }
        }
    }

    bool enabled() const { return telemetry; }

    /** Enable collection on @p cfg, labelling the run for the trace. */
    void
    apply(AccelConfig& cfg, const std::string& label) const
    {
        cfg.telemetry.enabled = telemetry;
        cfg.telemetry.label = label;
    }

    /** Write all collected summaries when --trace=FILE was given. */
    void
    maybeWriteTrace(const std::vector<TelemetrySummaryPtr>& runs) const
    {
        if (trace_path.empty())
            return;
        if (writeChromeTraceFile(trace_path, runs))
            std::printf("\nwrote Chrome trace: %s (open at "
                        "https://ui.perfetto.dev)\n",
                        trace_path.c_str());
        else
            std::printf("\ncould not write trace file %s\n",
                        trace_path.c_str());
    }
};

/**
 * Write @p report to @p path atomically: serialize into "<path>.tmp"
 * in full, then rename over the target. A crash (or two bench
 * processes racing on the same output) can never leave a truncated,
 * half-written JSON file behind — consumers see either the old
 * complete file or the new complete file.
 */
inline bool
writeReportAtomically(const std::string& path, const JsonReport& report)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            return false;
        report.write(os);
        os << '\n';
        if (!os)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

/**
 * Accumulates simulator-speed numbers across every runOn() call of a
 * bench process — split into idle-aware and legacy full-tick buckets.
 * A process that called writeAtExit() (bench_engine, and only it)
 * writes them as BENCH_engine.json (or $GMOMS_BENCH_ENGINE_JSON) at
 * exit, via temp-file-then-rename so the file is never observed
 * half-written; every other bench leaves the committed file alone.
 * When both engine modes ran in the same process the report includes
 * their cycles/sec ratio ("speedup"). Benches may attach extra
 * pre-serialized sections (bench_engine's checkpoint-latency record)
 * with addSection().
 */
class EngineBenchRecorder
{
  public:
    static EngineBenchRecorder&
    instance()
    {
        static EngineBenchRecorder recorder;
        return recorder;
    }

    void
    add(const Engine::Stats& stats, double wall_seconds, bool full_tick)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Bucket& b = full_tick ? full_ : idle_;
        ++b.runs;
        b.stats.cycles += stats.cycles;
        b.stats.cycles_skipped += stats.cycles_skipped;
        b.stats.ticks_executed += stats.ticks_executed;
        b.stats.ticks_skipped += stats.ticks_skipped;
        b.stats.wakes += stats.wakes;
        b.wall_seconds += wall_seconds;
    }

    /** Attach a pre-serialized JSON value under @p key in the final
     *  report (bench-specific sections, e.g. "checkpoint"). Last write
     *  per key wins. */
    void
    addSection(const std::string& key, std::string json)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& [k, v] : sections_)
            if (k == key) {
                v = std::move(json);
                return;
            }
        sections_.emplace_back(key, std::move(json));
    }

    /** Opt in to writing the report at process exit. */
    void
    writeAtExit()
    {
        std::lock_guard<std::mutex> lock(mu_);
        write_at_exit_ = true;
    }

    ~EngineBenchRecorder()
    {
        if (!write_at_exit_)
            return;
        const char* env = std::getenv("GMOMS_BENCH_ENGINE_JSON");
        const std::string path = env ? env : "BENCH_engine.json";
        JsonReport report;
        // Wall-clock context: every number here is host time, and
        // consumers need to know what host measured it.
        report.set("host_cpus",
                   static_cast<std::uint64_t>(
                       std::thread::hardware_concurrency()));
        appendBucket(report, "idle", idle_);
        appendBucket(report, "full_tick", full_);
        if (idle_.runs > 0 && full_.runs > 0 &&
            idle_.wall_seconds > 0 && full_.wall_seconds > 0) {
            const double idle_rate =
                static_cast<double>(idle_.stats.cycles) /
                idle_.wall_seconds;
            const double full_rate =
                static_cast<double>(full_.stats.cycles) /
                full_.wall_seconds;
            if (full_rate > 0)
                report.set("speedup", idle_rate / full_rate);
        }
        for (const auto& [key, json] : sections_)
            report.set(key, JsonReport::Raw{json});
        writeReportAtomically(path, report);
    }

  private:
    struct Bucket
    {
        std::uint64_t runs = 0;
        Engine::Stats stats;
        double wall_seconds = 0;
    };

    static void
    appendBucket(JsonReport& report, const std::string& prefix,
                 const Bucket& b)
    {
        if (b.runs == 0)
            return;
        report.set(prefix + "_runs", b.runs);
        report.set(prefix + "_sim_cycles", b.stats.cycles)
            .set(prefix + "_cycles_skipped", b.stats.cycles_skipped)
            .set(prefix + "_ticks_executed", b.stats.ticks_executed)
            .set(prefix + "_ticks_skipped", b.stats.ticks_skipped)
            .set(prefix + "_wakes", b.stats.wakes)
            .set(prefix + "_wall_seconds", b.wall_seconds)
            .set(prefix + "_cycles_per_sec",
                 b.wall_seconds > 0
                     ? static_cast<double>(b.stats.cycles) /
                           b.wall_seconds
                     : 0.0);
    }

    std::mutex mu_;  //!< add() is called from sweep workers
    bool write_at_exit_ = false;
    Bucket idle_;
    Bucket full_;
    std::vector<std::pair<std::string, std::string>> sections_;
};

/** Run @p cfg on @p g through a Session; weights are added (to a
 *  session-local copy — @p g is shared between sweep workers) when the
 *  kernel needs them. */
inline RunOutcome
runOn(const CooGraph& g, const std::string& algo, AccelConfig cfg)
{
    // Datasets arrive already preprocessed (loadDataset), so the
    // session borrows the shared graph and adds no preprocessing.
    Session session = SessionBuilder()
                          .datasetView(g)
                          .config(std::move(cfg))
                          .build();
    SessionResult res = session.run(
        algo, 0,
        algo == "PageRank" ? pagerankIterations() : convergenceCap());
    RunOutcome out;
    out.result = std::move(res.run);
    out.engine = res.engine;
    out.wall_seconds = res.wall_seconds;
    out.freq_mhz = res.fmax_mhz;
    out.gteps = res.gteps;
    EngineBenchRecorder::instance().add(out.engine, out.wall_seconds,
                                        res.full_tick);
    return out;
}

/**
 * Fan @p fn over @p jobs on a worker pool and return the results in
 * input order. Each job must be independent (the simulator core is
 * re-entrant: every runOn() builds its own Engine/Accelerator, see
 * docs/MODEL.md). Results are reassembled by index, so the output —
 * and anything printed from it afterwards — is byte-identical to the
 * serial loop `for (job : jobs) results.push_back(fn(job))` regardless
 * of worker count. @p pool defaults to the shared GMOMS_JOBS-sized
 * pool; pass an explicit pool to control the worker count (tests).
 */
template <typename JobT, typename Fn>
auto
sweep(const std::vector<JobT>& jobs, Fn fn, ThreadPool* pool = nullptr)
    -> std::vector<std::decay_t<decltype(fn(jobs.front()))>>
{
    using Result = std::decay_t<decltype(fn(jobs.front()))>;
    std::vector<Result> results(jobs.size());
    std::vector<ThreadPool::Job> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        tasks.push_back(
            [&, i] { results[i] = fn(jobs[i]); });
    (pool ? *pool : ThreadPool::shared()).runAll(std::move(tasks));
    return results;
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Print a row-major table: header then one line per row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {
    }

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(header_.size());
        for (std::size_t c = 0; c < header_.size(); ++c)
            width[c] = header_[c].size();
        for (const auto& row : rows_)
            for (std::size_t c = 0; c < row.size(); ++c)
                width[c] = std::max(width[c], row[c].size());
        auto line = [&](const std::vector<std::string>& cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        line(header_);
        for (const auto& row : rows_)
            line(row);
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting into std::string. */
inline std::string
fmt(double v, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace gmoms::bench

#endif // GMOMS_BENCH_BENCH_COMMON_HH
