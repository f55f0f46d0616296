#include "src/baseline/cpu_baseline.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <chrono>
#include <thread>

#include "src/algo/spec.hh"

namespace gmoms
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Run @p fn(t) on @p threads workers and join. */
void
parallelFor(std::uint32_t threads,
            const std::function<void(std::uint32_t)>& fn)
{
    if (threads <= 1) {
        fn(0);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t)
        pool.emplace_back(fn, t);
    for (auto& th : pool)
        th.join();
}

/** Atomically lower @p target to @p value (relaxed min). */
bool
atomicMin(std::atomic<std::uint32_t>& target, std::uint32_t value)
{
    std::uint32_t cur = target.load(std::memory_order_relaxed);
    while (value < cur) {
        if (target.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed))
            return true;
    }
    return false;
}

} // namespace

CpuResult
cpuPageRank(const CooGraph& g, std::uint32_t iterations,
            std::uint32_t num_threads)
{
    CpuResult r;
    const NodeId n = g.numNodes();
    const std::vector<std::uint32_t> od = g.outDegrees();
    std::vector<double> pr(n, 1.0 / n);
    // Per-thread partial accumulators avoid atomics on doubles.
    std::vector<std::vector<double>> partial(
        num_threads, std::vector<double>(n, 0.0));

    const auto t0 = Clock::now();
    for (std::uint32_t it = 0; it < iterations; ++it) {
        parallelFor(num_threads, [&](std::uint32_t t) {
            auto& acc = partial[t];
            std::fill(acc.begin(), acc.end(), 0.0);
            const EdgeId lo = g.numEdges() * t / num_threads;
            const EdgeId hi = g.numEdges() * (t + 1) / num_threads;
            for (EdgeId e = lo; e < hi; ++e) {
                const Edge& edge = g.edges()[e];
                acc[edge.dst] += pr[edge.src] / od[edge.src];
            }
        });
        parallelFor(num_threads, [&](std::uint32_t t) {
            const NodeId lo =
                static_cast<NodeId>(std::uint64_t{n} * t / num_threads);
            const NodeId hi = static_cast<NodeId>(
                std::uint64_t{n} * (t + 1) / num_threads);
            for (NodeId v = lo; v < hi; ++v) {
                double sum = 0;
                for (std::uint32_t p = 0; p < num_threads; ++p)
                    sum += partial[p][v];
                pr[v] = 0.15 / n + 0.85 * sum;
            }
        });
    }
    r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    r.iterations = iterations;
    r.edges_processed = static_cast<EdgeId>(iterations) * g.numEdges();
    r.pagerank = std::move(pr);
    return r;
}

CpuResult
cpuScc(const CooGraph& g, std::uint32_t num_threads)
{
    CpuResult r;
    const NodeId n = g.numNodes();
    std::vector<std::atomic<std::uint32_t>> label(n);
    for (NodeId i = 0; i < n; ++i)
        label[i].store(i, std::memory_order_relaxed);

    const auto t0 = Clock::now();
    std::atomic<bool> changed{true};
    while (changed.load()) {
        changed.store(false);
        ++r.iterations;
        r.edges_processed += g.numEdges();
        parallelFor(num_threads, [&](std::uint32_t t) {
            const EdgeId lo = g.numEdges() * t / num_threads;
            const EdgeId hi = g.numEdges() * (t + 1) / num_threads;
            bool local_changed = false;
            for (EdgeId e = lo; e < hi; ++e) {
                const Edge& edge = g.edges()[e];
                const std::uint32_t s =
                    label[edge.src].load(std::memory_order_relaxed);
                if (atomicMin(label[edge.dst], s))
                    local_changed = true;
            }
            if (local_changed)
                changed.store(true);
        });
    }
    r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    r.values.resize(n);
    for (NodeId i = 0; i < n; ++i)
        r.values[i] = label[i].load();
    return r;
}

CpuResult
cpuSssp(const CooGraph& g, NodeId source, std::uint32_t num_threads)
{
    CpuResult r;
    const NodeId n = g.numNodes();
    std::vector<std::atomic<std::uint32_t>> dist(n);
    for (NodeId i = 0; i < n; ++i)
        dist[i].store(kInfDist, std::memory_order_relaxed);
    dist[source].store(0);

    const auto t0 = Clock::now();
    std::atomic<bool> changed{true};
    while (changed.load()) {
        changed.store(false);
        ++r.iterations;
        r.edges_processed += g.numEdges();
        parallelFor(num_threads, [&](std::uint32_t t) {
            const EdgeId lo = g.numEdges() * t / num_threads;
            const EdgeId hi = g.numEdges() * (t + 1) / num_threads;
            bool local_changed = false;
            for (EdgeId e = lo; e < hi; ++e) {
                const Edge& edge = g.edges()[e];
                const std::uint32_t ds =
                    dist[edge.src].load(std::memory_order_relaxed);
                if (ds == kInfDist)
                    continue;
                const std::uint64_t cand =
                    std::uint64_t{ds} + g.weight(e);
                if (cand < kInfDist &&
                    atomicMin(dist[edge.dst],
                              static_cast<std::uint32_t>(cand)))
                    local_changed = true;
            }
            if (local_changed)
                changed.store(true);
        });
    }
    r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    r.values.resize(n);
    for (NodeId i = 0; i < n; ++i)
        r.values[i] = dist[i].load();
    return r;
}

} // namespace gmoms
