/**
 * @file
 * Simulator-speed bench: idle-aware engine versus legacy full-tick.
 *
 * Runs the same latency-bound workloads (high SLR-crossing latency and
 * cache-less MOMS configurations, the slowest points of
 * ablation_die_crossing and fig12_hitrate) under both engine modes,
 * checks bit-exact cycle/result agreement, and reports wall-clock
 * speedup. The telemetry and hardening sections time each workload
 * over several alternating off/on pairs and report medians and IQRs,
 * checking every run bit-exact. A further section times checkpoint
 * capture/restore/fork on the Fig. 11 reference design point. This is the one bench that opts
 * the EngineBenchRecorder (bench_common.hh) in to writing: all
 * aggregate numbers, with host_cpus, land in BENCH_engine.json at
 * exit, atomically.
 */

#include "bench/bench_common.hh"
#include "src/accel/checkpoint.hh"

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

struct Workload
{
    std::string name;
    std::string algo;
    std::string dataset;
    AccelConfig config;
};

/** Off/on pairs per overhead row: one pair per row let host noise
 *  read the same layer as -15% and +31%. */
constexpr int kOverheadPairs = 5;

/** Median and interquartile range; quartiles interpolate linearly
 *  between ranks. */
struct Spread
{
    double median = 0;
    double iqr = 0;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const auto quantile = [&v](double p) {
        const double pos = p * static_cast<double>(v.size() - 1);
        const std::size_t i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
    };
    return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/** Wall time of one workload with an observation-only layer off and
 *  on. */
struct Overhead
{
    Spread off, on;
    bool exact = true;  //!< every run reproduced the first off run

    double
    ratio() const
    {
        return off.median > 0 ? on.median / off.median - 1.0 : 0.0;
    }

    std::vector<std::string>
    row(const std::string& name) const
    {
        return {name,
                fmt(off.median, 2),
                fmt(off.iqr, 2),
                fmt(on.median, 2),
                fmt(on.iqr, 2),
                fmt(100.0 * ratio(), 1) + "%"};
    }

    JsonReport
    json() const
    {
        JsonReport j;
        j.set("pairs", static_cast<std::uint64_t>(kOverheadPairs))
            .set("off_median_seconds", off.median)
            .set("off_iqr_seconds", off.iqr)
            .set("on_median_seconds", on.median)
            .set("on_iqr_seconds", on.iqr)
            .set("overhead", ratio());
        return j;
    }
};

/**
 * Time @p w kOverheadPairs times each with the layer off and on
 * (@p enable switches it on), alternating which side runs first so
 * host drift charges both alike. Every run must reproduce the first
 * off run's cycles and values, and @p accept must pass every on run.
 */
template <typename Enable, typename Accept>
Overhead
timeOverhead(const Workload& w, Enable enable, Accept accept)
{
    const CooGraph& g = *loadDataset(w.dataset);
    AccelConfig on_cfg = w.config;
    enable(on_cfg);

    Overhead o;
    std::optional<RunResult> ref;
    std::vector<double> off_s, on_s;
    auto run = [&](bool on) {
        RunOutcome r = runOn(g, w.algo, on ? on_cfg : w.config);
        (on ? on_s : off_s).push_back(r.wall_seconds);
        if (!ref) {
            ref = std::move(r.result);
            return;
        }
        if (r.result.cycles != ref->cycles ||
            r.result.raw_values != ref->raw_values) {
            std::printf("%s run %zu of %s: %llu cycles, reference "
                        "%llu\n", on ? "on" : "off",
                        (on ? on_s : off_s).size(), w.name.c_str(),
                        static_cast<unsigned long long>(r.result.cycles),
                        static_cast<unsigned long long>(ref->cycles));
            o.exact = false;
        }
        if (on && !accept(r))
            o.exact = false;
    };
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        const bool on_first = pair % 2 == 1;
        run(on_first);
        run(!on_first);
    }
    o.off = spreadOf(off_s);
    o.on = spreadOf(on_s);
    return o;
}

} // namespace

int
main()
{
    EngineBenchRecorder::instance().writeAtExit();
    std::printf("=== Engine speed: idle-aware vs legacy full-tick "
                "===\n\n");

    std::vector<Workload> workloads;
    {
        // Deeply latency-bound: a single PE, one 64 B edge burst in
        // flight, no cache arrays and the deepest die-crossing
        // latency. Each 16-word decode phase is followed by a full
        // DRAM round trip during which every component sleeps.
        AccelConfig cfg = AccelConfig::preset(
            MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
        cfg.max_edge_bursts = 1;
        cfg.edge_burst_lines = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"1pe mlp1 64B nocache x32", "SCC", "UK", cfg});
    }
    {
        // Latency-bound: a single PE with one edge burst in flight
        // alternates decode bursts with full (cache-less, deep
        // die-crossing) DRAM round trips, so most components sleep
        // most cycles — the regime the wake calendar targets.
        AccelConfig cfg = AccelConfig::preset(
            MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
        cfg.max_edge_bursts = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"1pe mlp1 nocache x32", "SCC", "UK", cfg});
    }
    {
        // Same low-MLP point at 16 PEs: enough threads in flight to
        // keep most components busy, so skipping buys little — kept
        // to show the idle-aware engine does not regress saturated
        // (throughput-bound) runs.
        AccelConfig cfg =
            AccelConfig::preset(MomsConfig::twoLevel(16), /*pes=*/16);
        cfg.max_edge_bursts = 1;
        cfg.moms.crossing_latency = 32;
        workloads.push_back(
            {"16pe mlp1 crossing-32", "SCC", "UK", cfg});
    }

    Table table({"workload", "cycles", "full-tick s", "idle s",
                 "skip %", "speedup"});
    bool exact = true;
    for (const Workload& w : workloads) {
        const CooGraph& g = *loadDataset(w.dataset);

        AccelConfig full = w.config;
        full.full_tick_engine = true;
        RunOutcome f = runOn(g, w.algo, full);

        AccelConfig idle = w.config;
        idle.full_tick_engine = false;
        RunOutcome i = runOn(g, w.algo, idle);

        if (f.result.cycles != i.result.cycles ||
            f.result.raw_values != i.result.raw_values) {
            std::printf("MISMATCH on %s: full-tick %llu cycles, "
                        "idle-aware %llu cycles\n", w.name.c_str(),
                        static_cast<unsigned long long>(f.result.cycles),
                        static_cast<unsigned long long>(i.result.cycles));
            exact = false;
        }

        const std::uint64_t ticks = i.engine.ticks_executed +
                                    i.engine.ticks_skipped;
        table.addRow(
            {w.name, std::to_string(i.result.cycles),
             fmt(f.wall_seconds, 2), fmt(i.wall_seconds, 2),
             fmt(ticks ? 100.0 *
                             static_cast<double>(i.engine.ticks_skipped) /
                             static_cast<double>(ticks)
                       : 0.0,
                 1),
             fmt(i.wall_seconds > 0 ? f.wall_seconds / i.wall_seconds
                                    : 0.0,
                 2) +
                 "x"});
    }
    table.print();
    std::printf("\n%s; aggregate rates land in BENCH_engine.json.\n",
                exact ? "Both engines agreed bit-for-bit on every run"
                      : "ENGINES DISAGREED — idle-aware mode is broken");

    // Telemetry cost contract (docs/MODEL.md): collection off must be
    // free (no sampler component, null probe pointers), and collection
    // on must not change simulation results. The saturated 16-PE
    // workload is the worst case for per-push/pop probe overhead.
    std::printf("\n=== Telemetry overhead (idle-aware engine; median "
                "and IQR of %d off/on pairs) ===\n", kOverheadPairs);
    Table tele_table({"workload", "off s", "off IQR", "on s", "on IQR",
                      "overhead", "stall cyc"});
    JsonReport tele_json;
    bool tele_exact = true;
    for (const Workload& w : workloads) {
        std::uint64_t stall_cycles = 0;
        const Overhead o = timeOverhead(
            w,
            [&w](AccelConfig& cfg) {
                cfg.telemetry.enabled = true;
                cfg.telemetry.label = w.name;
            },
            [&](const RunOutcome& on) {
                if (!on.result.telemetry) {
                    std::printf("NO SUMMARY on %s despite telemetry "
                                "on\n", w.name.c_str());
                    return false;
                }
                stall_cycles = on.result.telemetry->totalStallCycles();
                return true;
            });
        if (!o.exact) {
            std::printf("TELEMETRY PERTURBED %s\n", w.name.c_str());
            tele_exact = false;
        }
        std::vector<std::string> row = o.row(w.name);
        row.push_back(std::to_string(stall_cycles));
        tele_table.addRow(std::move(row));
        tele_json.set(w.name, JsonReport::Raw{o.json().str()});
    }
    tele_table.print();
    EngineBenchRecorder::instance().addSection("telemetry_overhead",
                                               tele_json.str());
    std::printf("\n%s.\n",
                tele_exact
                    ? "Telemetry left every result bit-identical"
                    : "TELEMETRY CHANGED RESULTS — collection is not "
                      "observation-only");

    // Hardening cost contract (docs/MODEL.md "Invariants & watchdog"):
    // checks off must be free (no harness component, no shadow memory),
    // and checks on — watchdog, conservation checkers, shadow-memory
    // verification — must only *observe*, leaving results bit-identical
    // at, per the acceptance bar, <= 5% wall-clock overhead.
    std::printf("\n=== Hardening overhead (idle-aware engine; median "
                "and IQR of %d off/on pairs) ===\n", kOverheadPairs);
    Table check_table(
        {"workload", "off s", "off IQR", "on s", "on IQR", "overhead"});
    JsonReport check_json;
    bool check_exact = true;
    for (const Workload& w : workloads) {
        const Overhead o = timeOverhead(
            w, [](AccelConfig& cfg) { cfg.checks.enabled = true; },
            [](const RunOutcome&) { return true; });
        if (!o.exact) {
            std::printf("CHECKS PERTURBED %s\n", w.name.c_str());
            check_exact = false;
        }
        check_table.addRow(o.row(w.name));
        check_json.set(w.name, JsonReport::Raw{o.json().str()});
    }
    check_table.print();
    EngineBenchRecorder::instance().addSection("hardening_overhead",
                                               check_json.str());
    std::printf("\n%s.\n",
                check_exact
                    ? "The hardening layer left every result "
                      "bit-identical"
                    : "CHECKS CHANGED RESULTS — the hardening layer is "
                      "not observation-only");

    // Checkpoint latency: what the serving layer pays to save a warm
    // session once versus forking it per job.
    std::printf("\n=== Warm-session checkpoint: capture / restore / "
                "fork (Fig. 11 reference, 18/16 two-level 2k) ===\n");
    const AccelConfig ref_cfg =
        AccelConfig::preset(MomsConfig::twoLevel(16, 2048), /*pes=*/18,
                            /*channels=*/4);
    const CooGraph& ref_g = *loadDataset("WT");
    Session warm = SessionBuilder()
                       .datasetView(ref_g)
                       .config(ref_cfg)
                       .build();
    WallTimer capture_timer;
    SessionCheckpoint cp = SessionCheckpoint::capture(warm);
    const double capture_s = capture_timer.elapsedSeconds();

    WallTimer restore_timer;
    Session restored = cp.restore();
    const double restore_s = restore_timer.elapsedSeconds();

    constexpr int kForks = 1000;
    WallTimer fork_timer;
    for (int i = 0; i < kForks; ++i)
        Session forked = cp.restore();
    const double fork_avg_s =
        fork_timer.elapsedSeconds() / static_cast<double>(kForks);

    std::printf("capture (incl. partition warm-up): %.3f ms\n"
                "first restore:                     %.6f ms\n"
                "fork (avg of %d):                  %.6f ms\n"
                "resident bytes:                    %zu\n",
                capture_s * 1e3, restore_s * 1e3, kForks,
                fork_avg_s * 1e3, cp.residentBytes());

    JsonReport ckpt;
    ckpt.set("capture_seconds", capture_s)
        .set("restore_seconds", restore_s)
        .set("fork_seconds_avg", fork_avg_s)
        .set("forks_timed", static_cast<std::uint64_t>(kForks))
        .set("resident_bytes",
             static_cast<std::uint64_t>(cp.residentBytes()));
    EngineBenchRecorder::instance().addSection("checkpoint",
                                               ckpt.str());

    return exact && tele_exact && check_exact ? 0 : 1;
}
