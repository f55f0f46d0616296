/**
 * @file
 * Parallel-sweep determinism: sweep() over the re-entrant core must
 * produce per-run results and formatted table rows byte-identical to
 * the serial loop, for every worker count. This is the contract that
 * lets bench binaries fan out across cores without changing a single
 * output byte (and the test ThreadSanitizer runs in CI).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hh"

namespace gmoms
{
namespace
{

using bench::RunOutcome;
using bench::fmt;
using bench::loadDataset;
using bench::runOn;
using bench::sweep;

struct SweepJob
{
    std::string algo;
    std::uint32_t pes;
    std::uint32_t banks;
};

std::vector<SweepJob>
smallJobs()
{
    // Small configs on the smallest dataset: enough jobs to overlap
    // on any pool size, fast enough for a unit test.
    return {
        {"PageRank", 4, 4}, {"SCC", 4, 4},  {"SSSP", 4, 4},
        {"PageRank", 8, 8}, {"SCC", 8, 8},  {"SSSP", 8, 8},
        {"SCC", 4, 8},      {"SCC", 8, 4},
    };
}

RunOutcome
runJob(const SweepJob& j)
{
    AccelConfig cfg;
    cfg.num_pes = j.pes;
    cfg.mem.channels = 2;
    cfg.moms = MomsConfig::twoLevel(j.banks);
    return runOn(*loadDataset("WT"), j.algo, cfg);
}

/** The row a bench table would print for this outcome. */
std::string
formatRow(const SweepJob& j, const RunOutcome& out)
{
    return j.algo + "/" + std::to_string(j.pes) + "/" +
           std::to_string(j.banks) + " " + fmt(out.gteps, 3) + " " +
           fmt(out.result.moms_hit_rate * 100, 1) + " " +
           std::to_string(out.result.cycles);
}

TEST(SweepDeterminism, PoolsOfAnySizeMatchTheSerialLoopExactly)
{
    const std::vector<SweepJob> jobs = smallJobs();

    std::vector<RunOutcome> serial;
    std::vector<std::string> serial_rows;
    for (const SweepJob& j : jobs) {
        serial.push_back(runJob(j));
        serial_rows.push_back(formatRow(j, serial.back()));
    }

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ThreadPool pool(workers);
        const std::vector<RunOutcome> pooled =
            sweep(jobs, runJob, &pool);
        ASSERT_EQ(pooled.size(), serial.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("job=" + std::to_string(i));
            EXPECT_EQ(pooled[i].result.cycles, serial[i].result.cycles);
            EXPECT_EQ(pooled[i].result.edges_processed,
                      serial[i].result.edges_processed);
            EXPECT_EQ(pooled[i].result.dram_bytes_read,
                      serial[i].result.dram_bytes_read);
            EXPECT_EQ(pooled[i].result.raw_values,
                      serial[i].result.raw_values);
            EXPECT_EQ(pooled[i].result.moms_hit_rate,
                      serial[i].result.moms_hit_rate);
            EXPECT_EQ(pooled[i].gteps, serial[i].gteps);
            EXPECT_EQ(pooled[i].freq_mhz, serial[i].freq_mhz);
            EXPECT_EQ(formatRow(jobs[i], pooled[i]), serial_rows[i]);
        }
    }
}

TEST(SweepDeterminism, SharedDatasetHandleIsStableAcrossCallers)
{
    // The memo must hand every caller the same immutable graph (one
    // build per key, no copies) — including under concurrent access.
    const bench::DatasetPtr first = loadDataset("WT");
    std::vector<int> indices(16);
    const std::vector<bench::DatasetPtr> handles =
        sweep(indices, [](int) { return loadDataset("WT"); });
    for (const bench::DatasetPtr& h : handles)
        EXPECT_EQ(h.get(), first.get());
}

TEST(SweepDeterminism, SweepPropagatesJobFailures)
{
    const std::vector<int> jobs = {0, 1, 2, 3};
    EXPECT_THROW(sweep(jobs,
                       [](int i) -> int {
                           if (i == 2)
                               throw std::runtime_error("boom");
                           return i;
                       }),
                 std::runtime_error);
}

} // namespace
} // namespace gmoms
