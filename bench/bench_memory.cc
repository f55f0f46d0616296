/**
 * @file
 * Host memory of one simulation, step by step.
 *
 * For the benchmark's three simulation workloads (the design points of
 * benchmark/src/sim.cc) on UK seed 1, or on WT with --smoke, this
 * records RSS, its high-water mark and glibc malloc's in-use and free
 * bytes after each step: generate, preprocess, partition, Accelerator
 * construction and the run. It also sums the host bytes of the memory
 * channels' (request, response) port queue rings, as the run grew them
 * and as the capacity-sized allocation they would be at their modelled
 * depth.
 *
 * Each workload runs in a forked child, so one workload's heap never
 * shows in another's numbers.
 *
 * Usage:
 *   bench_memory [--smoke] [--json=PATH] [--baseline=PATH]
 *
 * Writes BENCH_memory.json (or PATH) with host_cpus and the compiler.
 * --baseline embeds an earlier BENCH_memory.json (a build of another
 * commit) under "baseline" and records every MiB figure's change from
 * it as "<key>.delta". Exits 1 when a workload fails, or when the grown
 * ring bytes are not below the capacity-sized bytes.
 */

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_common.hh"
#include "src/obs/json_check.hh"

using namespace gmoms;

namespace
{

struct Workload
{
    const char* name;
    const char* dataset;
    Preprocessing prep;
    AccelConfig (*config)();
    bool pagerank;  //!< PageRank, else SCC
    std::uint32_t iterations;
    std::uint32_t smoke_iterations;
};

AccelConfig
fig11Reference()
{
    return AccelConfig::preset(MomsConfig::twoLevel(16, 2048), 18, 4);
}

AccelConfig
hbmPacked()
{
    AccelConfig cfg = AccelConfig::hbmTwoLevel();
    cfg.packed_edges = true;
    return cfg;
}

AccelConfig
latencyBound()
{
    AccelConfig cfg = AccelConfig::preset(
        MomsConfig::twoLevel(16).withoutCacheArrays(), /*pes=*/1);
    cfg.max_edge_bursts = 1;
    cfg.moms.crossing_latency = 32;
    return cfg;
}

const Workload kWorkloads[] = {
    {"sim-ddr4-pagerank", "UK", Preprocessing::DbgHash, fig11Reference,
     true, 2, 2},
    {"sim-hbm-packed-pagerank", "UK", Preprocessing::Dbg, hbmPacked, true,
     2, 2},
    {"sim-latency-bound-scc", "UK", Preprocessing::DbgHash, latencyBound,
     false, 4, 1000},
};

constexpr std::uint64_t kSeed = 1;

const char*
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
mib(double bytes)
{
    return bytes / (1024.0 * 1024.0);
}

/** A /proc/self/status field in KiB, as MiB. */
double
statusMib(const char* field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, n, field) == 0 && line[n] == ':')
            return std::stod(line.substr(n + 1)) / 1024.0;
    return 0;
}

/** Lines "key u <integer>" or "key d <double>", one per figure. */
class Figures
{
  public:
    void
    step(const std::string& prefix)
    {
        const struct mallinfo2 mi = mallinfo2();
        num(prefix + ".rss_mib", statusMib("VmRSS"));
        num(prefix + ".hwm_mib", statusMib("VmHWM"));
        num(prefix + ".in_use_mib", mib(static_cast<double>(
                                        mi.uordblks + mi.hblkhd)));
        num(prefix + ".free_mib", mib(static_cast<double>(mi.fordblks)));
    }
    void
    num(const std::string& key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, " d %.17g\n", v);
        text_ += key + buf;
    }
    void
    count(const std::string& key, std::uint64_t v)
    {
        text_ += key + " u " + std::to_string(v) + "\n";
    }
    const std::string& text() const { return text_; }

  private:
    std::string text_;
};

/** Host bytes of every (channel, port) queue pair's rings. */
void
portRings(const MemorySystem& mem, const std::string& prefix, Figures& f)
{
    std::uint64_t grown = 0, sized = 0, pairs = 0, unused = 0;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c) {
        const MemChannel& ch = mem.channel(c);
        for (std::uint32_t p = 0; p < ch.numPorts(); ++p) {
            const auto& req = ch.reqPort(p);
            const auto& resp = ch.respPort(p);
            grown += req.storageSlots() * req.slotBytes() +
                     resp.storageSlots() * resp.slotBytes();
            sized += req.capacity() * req.slotBytes() +
                     resp.capacity() * resp.slotBytes();
            ++pairs;
            unused += req.storageSlots() == 0 && resp.storageSlots() == 0;
        }
    }
    f.count(prefix + ".ring_bytes", grown);
    f.count(prefix + ".ring_bytes_capacity_sized", sized);
    f.count(prefix + ".port_pairs", pairs);
    f.count(prefix + ".port_pairs_without_storage", unused);
}

/** The child's work: every step of one workload, as figure lines. */
std::string
measure(const Workload& w, bool smoke)
{
    Figures f;
    const std::string k = w.name;
    f.step(k + ".start");
    std::unique_ptr<Session> session;
    {
        const CooGraph raw =
            buildDataset(datasetByTag(smoke ? "WT" : w.dataset), kSeed);
        f.step(k + ".generate");
        const std::uint32_t nd =
            defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
        auto graph = std::make_shared<const CooGraph>(
            applyPreprocessing(raw, w.prep, nd));
        f.step(k + ".preprocess");
        session = std::make_unique<Session>(graph, w.config());
        session->partition();
        f.step(k + ".partition");
    }
    const std::uint32_t iters = smoke ? w.smoke_iterations : w.iterations;
    const AlgoSpec spec =
        w.pagerank ? AlgoSpec::pageRank(session->graph(), iters)
                   : AlgoSpec::scc(session->graph().numNodes(), iters);
    Accelerator accel(session->config(), session->partition(), spec);
    f.step(k + ".construct");
    portRings(accel.mem(), k + ".construct", f);
    const RunResult r = accel.run();
    f.step(k + ".run");
    portRings(accel.mem(), k + ".run", f);
    f.count(k + ".sim_cycles", r.cycles);
    return f.text();
}

/** Run measure() in a child; its figure lines, or "" on failure. */
std::string
measureInChild(const Workload& w, bool smoke)
{
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        return "";
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        std::string text;
        try {
            text = measure(w, smoke);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_memory: %s: %s\n", w.name,
                         e.what());
            _exit(1);
        }
        std::size_t done = 0;
        while (done < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + done, text.size() - done);
            if (n <= 0)
                _exit(1);
            done += static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return "";
    return text;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string json_path = "BENCH_memory.json", baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke")
            smoke = true;
        else if (a.rfind("--json=", 0) == 0)
            json_path = a.substr(7);
        else if (a.rfind("--baseline=", 0) == 0)
            baseline_path = a.substr(11);
        else {
            std::fprintf(stderr,
                         "usage: bench_memory [--smoke] [--json=PATH] "
                         "[--baseline=PATH]\n");
            return 2;
        }
    }
    std::optional<JsonValue> baseline;
    std::string baseline_text;
    if (!baseline_path.empty()) {
        baseline_text = readFile(baseline_path);
        while (!baseline_text.empty() &&
               std::isspace(static_cast<unsigned char>(
                   baseline_text.back())))
            baseline_text.pop_back();
        baseline = parseJson(baseline_text);
        if (!baseline || !baseline->isObject()) {
            std::fprintf(stderr, "bench_memory: %s is not a JSON object\n",
                         baseline_path.c_str());
            return 2;
        }
    }

    JsonReport report;
    report.set("host_cpus", static_cast<std::uint64_t>(
                                std::thread::hardware_concurrency()));
    report.set("compiler", std::string(compilerName()));
    report.set("smoke", smoke);
    report.set("seed", kSeed);
    bool ok = true;
    for (const Workload& w : kWorkloads) {
        const std::string text = measureInChild(w, smoke);
        if (text.empty()) {
            std::fprintf(stderr, "bench_memory: %s failed\n", w.name);
            ok = false;
            continue;
        }
        std::printf("%s (%s)\n  %-10s %8s %8s %8s %8s  MiB\n", w.name,
                    smoke ? "WT" : w.dataset, "after", "RSS", "HWM",
                    "in use", "free");
        std::istringstream lines(text);
        std::string key, kind;
        std::map<std::string, double> got;
        while (lines >> key >> kind) {
            if (kind == "u") {
                std::uint64_t v = 0;
                lines >> v;
                report.set(key, v);
                got[key] = static_cast<double>(v);
            } else {
                double v = 0;
                lines >> v;
                report.set(key, v);
                got[key] = v;
            }
            const JsonValue* base =
                baseline ? baseline->find(key) : nullptr;
            if (base && base->isNumber() &&
                key.size() > 4 && key.substr(key.size() - 4) == "_mib")
                report.set(key + ".delta", got[key] - base->number);
        }
        const std::string k = w.name;
        for (const char* step : {"start", "generate", "preprocess",
                                 "partition", "construct", "run"}) {
            const std::string p = k + "." + step;
            std::printf("  %-10s %8.2f %8.2f %8.2f %8.2f\n", step,
                        got[p + ".rss_mib"], got[p + ".hwm_mib"],
                        got[p + ".in_use_mib"], got[p + ".free_mib"]);
        }
        const double grown = got[k + ".run.ring_bytes"];
        const double sized = got[k + ".run.ring_bytes_capacity_sized"];
        std::printf("  port rings after the run: %.3f MiB of %.3f MiB "
                    "capacity-sized; %.0f of %.0f (channel, port) pairs "
                    "hold none\n",
                    mib(grown), mib(sized),
                    got[k + ".run.port_pairs_without_storage"],
                    got[k + ".run.port_pairs"]);
        if (!(grown < sized)) {
            std::fprintf(stderr,
                         "bench_memory: %s: grown rings (%.0f B) not "
                         "below capacity-sized (%.0f B)\n",
                         w.name, grown, sized);
            ok = false;
        }
    }
    if (baseline)
        report.set("baseline", JsonReport::Raw{baseline_text});
    if (!bench::writeReportAtomically(json_path, report)) {
        std::fprintf(stderr, "bench_memory: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
    return ok ? 0 : 1;
}
