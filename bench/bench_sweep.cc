/**
 * @file
 * Sweep-runner bench: thread-pooled simulations versus the serial
 * loop, over the re-entrant simulator core.
 *
 * Runs the same (dataset, algorithm, architecture) job list serially
 * and under worker pools of several sizes, verifies that every pool
 * size reproduces the serial per-run results bit-for-bit (cycles,
 * DRAM traffic, raw algorithm output), and reports wall-clock time,
 * jobs/sec and heap-allocation counts to stdout and BENCH_sweep.json
 * (or $GMOMS_BENCH_SWEEP_JSON).
 *
 * This binary overrides global operator new/delete to count heap
 * allocations — the hot-path de-allocation work (FlatMap/RingDeque
 * replacing unordered_map/deque in PE, BurstAssembler, MomsBank and
 * MemChannel) shows up as allocations-per-job, which would be orders
 * of magnitude higher with node-based containers on the tick path.
 *
 * Usage: bench_sweep [--smoke]
 *   --smoke: smallest dataset only, fewer points (CI smoke test).
 * Worker counts compared: 1, 2, 8 and the GMOMS_JOBS /
 * hardware-concurrency default (deduplicated). Exits nonzero on any
 * cross-worker-count result mismatch.
 */

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench/bench_common.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void*
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace gmoms;
using namespace gmoms::bench;

namespace
{

struct SweepJob
{
    std::string tag;
    std::string algo;
    AccelConfig config;
};

std::vector<SweepJob>
makeJobs(bool smoke)
{
    const std::vector<std::string> tags =
        smoke ? std::vector<std::string>{"WT"} : benchDatasetTags();
    const std::vector<std::string> algos =
        smoke ? std::vector<std::string>{"SCC"}
              : std::vector<std::string>{"PageRank", "SCC"};
    AccelConfig two_level;
    two_level.num_pes = 16;
    two_level.mem.channels = 4;
    two_level.moms = MomsConfig::twoLevel(16);
    AccelConfig shallow = two_level;
    shallow.num_pes = 20;
    shallow.moms = MomsConfig::twoLevel(8);

    std::vector<SweepJob> jobs;
    for (const std::string& tag : tags)
        for (const std::string& algo : algos) {
            jobs.push_back({tag, algo, two_level});
            jobs.push_back({tag, algo, shallow});
        }
    return jobs;
}

/** The per-run fields that must agree bit-for-bit across runners. */
bool
sameResults(const std::vector<RunOutcome>& a,
            const std::vector<RunOutcome>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].result.cycles != b[i].result.cycles ||
            a[i].result.edges_processed != b[i].result.edges_processed ||
            a[i].result.dram_bytes_read != b[i].result.dram_bytes_read ||
            a[i].result.raw_values != b[i].result.raw_values ||
            a[i].gteps != b[i].gteps)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const std::vector<SweepJob> jobs = makeJobs(smoke);

    std::printf("=== Sweep runner: serial vs thread-pooled "
                "(%zu jobs%s) ===\n\n",
                jobs.size(), smoke ? ", smoke" : "");

    // Build every dataset once, up front, so dataset construction is
    // excluded from both the serial and the pooled measurements.
    for (const SweepJob& j : jobs)
        (void)loadDataset(j.tag);

    auto run_one = [](const SweepJob& j) {
        return runOn(*loadDataset(j.tag), j.algo, j.config);
    };

    struct Sample
    {
        std::string name;
        unsigned workers = 0;  //!< 0 = serial loop
        double seconds = 0;
        std::uint64_t allocs = 0;
        bool identical = true;
    };
    std::vector<Sample> samples;

    // Serial reference: a plain loop, no pool involved.
    std::vector<RunOutcome> serial;
    {
        const std::uint64_t alloc0 = allocCount();
        WallTimer timer;
        for (const SweepJob& j : jobs)
            serial.push_back(run_one(j));
        samples.push_back({"serial", 0, timer.elapsedSeconds(),
                           allocCount() - alloc0, true});
    }

    std::vector<unsigned> worker_counts = {1, 2, 8};
    const unsigned def = ThreadPool::defaultWorkers();
    if (std::find(worker_counts.begin(), worker_counts.end(), def) ==
        worker_counts.end())
        worker_counts.push_back(def);

    bool all_identical = true;
    for (unsigned w : worker_counts) {
        ThreadPool pool(w);
        const std::uint64_t alloc0 = allocCount();
        WallTimer timer;
        const std::vector<RunOutcome> pooled =
            sweep(jobs, run_one, &pool);
        Sample s{"pool-" + std::to_string(w), w,
                 timer.elapsedSeconds(), allocCount() - alloc0,
                 sameResults(serial, pooled)};
        all_identical = all_identical && s.identical;
        samples.push_back(std::move(s));
    }

    const double serial_s = samples.front().seconds;
    Table table({"runner", "wall s", "jobs/s", "speedup", "allocs",
                 "identical"});
    for (const Sample& s : samples)
        table.addRow(
            {s.name, fmt(s.seconds, 2),
             fmt(s.seconds > 0 ? jobs.size() / s.seconds : 0.0, 2),
             fmt(s.seconds > 0 ? serial_s / s.seconds : 0.0, 2) + "x",
             std::to_string(s.allocs),
             s.workers == 0 ? "-" : (s.identical ? "yes" : "NO")});
    table.print();

    const char* env = std::getenv("GMOMS_BENCH_SWEEP_JSON");
    const std::string path = env ? env : "BENCH_sweep.json";
    std::ofstream os(path);
    if (os) {
        JsonReport report;
        report.set("jobs", static_cast<std::uint64_t>(jobs.size()))
            .set("smoke", smoke)
            .set("default_workers", static_cast<std::uint64_t>(def))
            .set("identical", all_identical);
        for (const Sample& s : samples) {
            report.set(s.name + "_seconds", s.seconds)
                .set(s.name + "_jobs_per_sec",
                     s.seconds > 0 ? jobs.size() / s.seconds : 0.0)
                .set(s.name + "_allocs", s.allocs);
            if (s.workers != 0)
                report.set(s.name + "_speedup",
                           s.seconds > 0 ? serial_s / s.seconds : 0.0);
        }
        report.write(os);
        os << '\n';
    }

    std::printf("\n%s; rates land in %s.\n",
                all_identical
                    ? "Every pool size reproduced the serial results "
                      "bit-for-bit"
                    : "RESULT MISMATCH across worker counts — the core "
                      "is not re-entrant",
                path.c_str());
    return all_identical ? 0 : 1;
}
