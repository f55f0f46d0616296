/**
 * @file
 * gmoms_bench: run one benchmark workload and print its result as one
 * JSON object on the last stdout line (progress goes to stderr).
 *
 *   gmoms_bench --workload W --seed N --seconds S --trace 0|1
 *               --server PATH [--trace-file F] [--smoke]
 *
 * benchmark/run.py is the entry point that builds this binary and
 * passes the server path; see benchmark/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "benchmark/src/bench.hh"
#include "src/sim/report.hh"

#ifndef GMOMS_BENCH_BUILD_TYPE
#define GMOMS_BENCH_BUILD_TYPE "unknown"
#endif

namespace gbench
{

namespace
{

/** A JSON number with every significant digit (round-trips a double). */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
stringArray(const std::vector<std::string>& items)
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            os << ',';
        gmoms::JsonReport::writeEscaped(os, items[i]);
    }
    os << ']';
    return os.str();
}

} // namespace

const std::vector<MetricName> kPerLayerMetrics = {
    {"graph.generate_s", "s"},
    {"graph.preprocess_s", "s"},
    {"accel.partition_s", "s"},
    {"accel.construct_s", "s"},
    {"accel.run_s", "s"},
    {"engine.cycles_per_s", "1/s"},
    {"engine.ns_per_tick", "ns"},
    {"engine.ticks_executed", "count"},
    {"engine.tick_skip_frac", "ratio"},
    {"engine.cycles_skipped", "cycles"},
    {"engine.wakes", "count"},
    {"sim.cycles", "cycles"},
    {"pe.edges_processed", "count"},
    {"pe.raw_stalls", "cycles"},
    {"moms.hit_rate", "ratio"},
    {"moms.requests", "count"},
    {"moms.secondary_misses", "count"},
    {"moms.lines_from_mem", "count"},
    {"mem.dram_bytes_read", "B"},
    {"mem.dram_bytes_written", "B"},
    {"mem.read_bytes_per_edge", "B"},
    {"graph.edge_section_bytes", "B"},
    {"stall.total", "cycles"},
    {"stall.pe.raw-hazard", "cycles"},
    {"stall.pe.thread-slots-full", "cycles"},
    {"stall.pe.downstream-backpressure", "cycles"},
    {"stall.pe.crossing-credit", "cycles"},
    {"stall.pe.upstream-empty", "cycles"},
    {"stall.moms.l1.mshr-full", "cycles"},
    {"stall.moms.l1.subentry-full", "cycles"},
    {"stall.moms.l1.crossing-credit", "cycles"},
    {"stall.moms.l1.downstream-backpressure", "cycles"},
    {"stall.moms.l2.mshr-full", "cycles"},
    {"stall.moms.l2.subentry-full", "cycles"},
    {"stall.moms.l2.downstream-backpressure", "cycles"},
    {"stall.moms.xbar.bank-conflict", "cycles"},
    {"stall.moms.xbar.downstream-backpressure", "cycles"},
    {"stall.dram.row-miss", "cycles"},
    {"stall.hbm.row-miss", "cycles"},
    {"stall.hbm.bank-conflict", "cycles"},
    {"trace.overhead_frac", "ratio"},
    {"net.handle_ms.p50", "ms"},
    {"net.handle_ms.p99", "ms"},
    {"net.flush_ms.p50", "ms"},
    {"net.flush_ms.p99", "ms"},
    {"net.bytes_per_request", "B"},
    {"client.latency_ms.p99", "ms"},
    {"client.submit_rtt_ms.p50", "ms"},
    {"client.submit_rtt_ms.p99", "ms"},
    {"client.wire_overhead_ms.p50", "ms"},
    {"client.polls_per_job", "count"},
    {"client.send_lag_ms.p99", "ms"},
    {"client.encode_us.p50", "us"},
    {"client.decode_us.p50", "us"},
    {"serve.result_cache.hit_rate", "ratio"},
    {"serve.result_cache.insertions", "count"},
    {"serve.sim_ms.p50", "ms"},
    {"serve.sim_ms.p99", "ms"},
    {"serve.prep_ms.p50", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.total_ms.p50", "ms"},
    {"serve.total_ms.p99", "ms"},
    {"serve.checkpoint.hits", "count"},
    {"serve.checkpoint.forks", "count"},
    {"serve.checkpoint.memo_hits", "count"},
    {"serve.dataset_cache.misses", "count"},
    {"serve.rejected", "count"},
    {"serve.degraded", "count"},
    {"serve.failed", "count"},
};

void
zeroUnsetPerLayer(Metrics& m, Result& res)
{
    std::string idle;
    for (const MetricName& n : kPerLayerMetrics)
        if (!m.has(n.name)) {
            m.set(n.name, 0.0, n.unit);
            if (!idle.empty())
                idle += ' ';
            idle += n.name;
        }
    if (!idle.empty())
        res.notes.push_back("layers idle on this workload (reported as 0): " +
                            idle);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (Entry& e : entries_)
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    entries_.push_back({name, value, unit});
}

bool
Metrics::has(const std::string& name) const
{
    for (const Entry& e : entries_)
        if (e.name == name)
            return true;
    return false;
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        if (i)
            os << ',';
        gmoms::JsonReport::writeEscaped(os, e.name);
        os << ":{\"value\":"
           << (std::isfinite(e.value) ? number(e.value) : "null")
           << ",\"unit\":";
        gmoms::JsonReport::writeEscaped(os, e.unit);
        os << '}';
    }
    os << '}';
    return os.str();
}

double
SpanRecorder::us(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void
SpanRecorder::append(const std::string& event)
{
    if (!events_.empty())
        events_ += ",\n";
    events_ += event;
}

void
SpanRecorder::span(const std::string& name, const std::string& cat,
                   Clock::time_point begin, Clock::time_point end, int tid)
{
    if (!enabled_)
        return;
    gmoms::JsonReport ev;
    ev.set("name", name)
        .set("cat", cat)
        .set("ph", std::string("X"))
        .set("pid", std::uint64_t{0})
        .set("tid", static_cast<std::uint64_t>(tid))
        .set("ts", gmoms::JsonReport::Raw{number(us(begin))})
        .set("dur", gmoms::JsonReport::Raw{number(us(end) - us(begin))});
    append(ev.str());
}

void
SpanRecorder::async(const std::string& name, const std::string& cat,
                    std::uint64_t id, Clock::time_point begin,
                    Clock::time_point end, const std::string& args_json)
{
    if (!enabled_)
        return;
    for (const char* ph : {"b", "e"}) {
        gmoms::JsonReport ev;
        ev.set("name", name)
            .set("cat", cat)
            .set("ph", std::string(ph))
            .set("id", id)
            .set("pid", std::uint64_t{0})
            .set("tid", std::uint64_t{0})
            .set("ts", gmoms::JsonReport::Raw{
                           number(us(ph[0] == 'b' ? begin : end))});
        if (ph[0] == 'b' && !args_json.empty())
            ev.set("args", gmoms::JsonReport::Raw{args_json});
        append(ev.str());
    }
}

void
Result::fail(const std::string& problem)
{
    correct = false;
    problems.push_back(problem);
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
chromeDocument(const std::string& events, const std::string& telemetry_doc)
{
    // The host process (pid 0) carries the benchmark's spans; the
    // telemetry exporter numbers its simulated runs from pid 1 and uses
    // 1 simulated cycle = 1 us, so the two time bases sit on separate
    // process tracks.
    std::string meta =
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"benchmark host (wall us)\"}}";
    std::string all = meta;
    if (!events.empty())
        all += ",\n" + events;
    const std::string head = "{\"traceEvents\":[\n";
    if (telemetry_doc.rfind(head, 0) == 0) {
        std::string doc = telemetry_doc;
        const bool empty_sim = doc.compare(head.size(), 2, "\n]") == 0;
        doc.insert(head.size(), all + (empty_sim ? "" : ",\n"));
        return doc;
    }
    return head + all + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace gbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: gmoms_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH [--trace-file F] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (arg == "--workload")
            opt.workload = v;
        else if (arg == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(v);
        else if (arg == "--trace")
            opt.trace = std::string(v) == "1";
        else if (arg == "--trace-file")
            opt.trace_file = v;
        else if (arg == "--server")
            opt.server = v;
        else
            return usage();
    }
    if (!(opt.seconds > 0))
        return usage();

    Result res;
    try {
        if (isSimWorkload(opt.workload))
            res = runSim(opt);
        else if (isServeWorkload(opt.workload))
            res = runServe(opt);
        else {
            std::fprintf(stderr, "unknown workload \"%s\"\n",
                         opt.workload.c_str());
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gmoms_bench: %s\n", e.what());
        return 1;
    }

    if (!opt.trace_file.empty() && !res.trace_json.empty()) {
        std::ofstream os(opt.trace_file);
        os << res.trace_json;
        if (!os)
            res.fail("could not write trace file " + opt.trace_file);
    }

    gmoms::JsonReport out;
    out.set("workload", opt.workload)
        .set("seed", opt.seed)
        .set("seconds", opt.seconds)
        .set("smoke", opt.smoke)
        .set("traced", opt.trace)
        .set("correct", res.correct)
        .set("attempted", res.attempted)
        .set("failed", res.failed)
        .set("valid", res.valid)
        .set("latency_limit_ms", res.latency_limit_ms)
        .set("latency_limit_met", res.latency_limit_met)
        .set("problems", gmoms::JsonReport::Raw{stringArray(res.problems)})
        .set("notes", gmoms::JsonReport::Raw{stringArray(res.notes)})
        .set("host_cpus", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()))
#ifdef __clang__
        .set("compiler", std::string("clang ") + __clang_version__)
#else
        .set("compiler", std::string("gcc ") + __VERSION__)
#endif
        .set("build_type", std::string(GMOMS_BENCH_BUILD_TYPE))
        .set("metrics", gmoms::JsonReport::Raw{res.metrics.json()});
    std::cout << out.str() << std::endl;
    return res.correct && res.failed == 0 ? 0 : 1;
}
