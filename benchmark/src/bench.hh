/**
 * @file
 * Shared pieces of the gmoms benchmark binary: options, the metric
 * record, percentile helpers and the in-memory span recorder behind the
 * Chrome trace files.
 *
 * The binary runs exactly one workload per process and prints one JSON
 * object on its last stdout line; benchmark/run.py builds the binary,
 * filters that object to the metric list in BENCHMARK.json and
 * checks it. Every layer is timed from outside, around the public calls
 * into it, so no library file changes to be measured.
 */

#ifndef GMOMS_BENCHMARK_BENCH_HH
#define GMOMS_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/accelerator.hh"

namespace gbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
since(Clock::time_point from)
{
    return seconds(from, Clock::now());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10;
    /** Add the traced pass (telemetry + spans) and its metrics. */
    bool trace = false;
    /** Where to write the Chrome trace; empty = keep it in memory only. */
    std::string trace_file;
    /** Path of the gmoms_serve executable (serving workloads). */
    std::string server;
    /** Smallest inputs through the same code paths (a few seconds). */
    bool smoke = false;
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** Nearest-rank percentile (the repo's LatencyStats convention);
 *  0 for an empty sample. */
double percentile(std::vector<double> samples, double p);

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50);
}

/** Metrics in emission order, each with its unit. */
class Metrics
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    bool has(const std::string& name) const;
    /** Serialize as {"name": {"value": v, "unit": u}, ...}. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Chrome trace events kept in memory until the run ends. Timestamps are
 * microseconds of host time since the recorder was created. Complete
 * spans ("X") suit strictly nested host calls; async spans ("b"/"e",
 * keyed by id) suit overlapping requests, which Perfetto draws on one
 * track per id.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** A complete span on thread lane @p tid of the host process. */
    void span(const std::string& name, const std::string& cat,
              Clock::time_point begin, Clock::time_point end, int tid = 0);
    /** An async span of request @p id. */
    void async(const std::string& name, const std::string& cat,
               std::uint64_t id, Clock::time_point begin,
               Clock::time_point end,
               const std::string& args_json = "");

    /** Events recorded so far, comma-separated (no brackets). */
    const std::string& events() const { return events_; }

  private:
    double us(Clock::time_point t) const;
    void append(const std::string& event);

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::string events_;
};

/** Outcome of one workload run. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every failed check, for the log. */
    std::vector<std::string> problems;
    /** Open-loop latency limit on the tail percentile; 0 = none. */
    double latency_limit_ms = 0;
    bool latency_limit_met = true;
    /** False when the load generator fell behind its schedule. */
    bool valid = true;
    std::vector<std::string> notes;
    Metrics metrics;
    /** Full Chrome trace document; empty unless traced. */
    std::string trace_json;

    void fail(const std::string& problem);
};

/** A metric name with its unit. */
struct MetricName
{
    const char* name;
    const char* unit;
};

/** Every per-layer metric, in print order; the same list on every
 *  workload (BENCHMARK.json "per_layer" repeats it). */
extern const std::vector<MetricName> kPerLayerMetrics;

/** Give every per-layer metric that @p m lacks the value 0: the layer
 *  did no work on this workload (e.g. the network on a simulation
 *  workload). The names are noted in @p res. */
void zeroUnsetPerLayer(Metrics& m, Result& res);

/**
 * Simulation-layer counters summed over one or more runs: the
 * RunResult and Engine::Stats counters plus the host time of the
 * Accelerator constructor and Accelerator::run around each run.
 */
struct SimCounters
{
    std::uint64_t runs = 0;
    std::vector<double> construct_s;
    std::vector<double> run_s;
    std::uint64_t cycles = 0;
    std::uint64_t edges = 0;
    std::uint64_t raw_stalls = 0;
    std::uint64_t moms_requests = 0;
    double moms_hits = 0;  //!< hit_rate x requests, summed
    std::uint64_t secondary_misses = 0;
    std::uint64_t lines_from_mem = 0;
    std::uint64_t dram_read = 0;
    std::uint64_t dram_written = 0;
    std::uint64_t edge_section_bytes = 0;
    gmoms::Engine::Stats engine;

    void add(const gmoms::RunResult& r, const gmoms::Engine::Stats& e,
             double construct_seconds, double run_seconds);
    /** Set the accel.*, engine.*, sim.*, pe.*, moms.* and mem.* metrics:
     *  times as the median per run, counts as the mean per run (exact
     *  when every run is the same simulation), rates from the totals. */
    void emit(Metrics& m) const;
};

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** Wrap @p events (plus an optional telemetry trace document to splice
 *  in) into one Chrome trace-event JSON document. */
std::string chromeDocument(const std::string& events,
                           const std::string& telemetry_doc = "");

Result runSim(const Options& opt);
Result runServe(const Options& opt);

/** The names runSim / runServe accept. */
bool isSimWorkload(const std::string& name);
bool isServeWorkload(const std::string& name);

} // namespace gbench

#endif // GMOMS_BENCHMARK_BENCH_HH
