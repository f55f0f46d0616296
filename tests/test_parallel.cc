/**
 * @file
 * ThreadPool contract: completion of every job, deterministic
 * (lowest-index) exception propagation, inline nested batches, queue
 * backpressure and GMOMS_JOBS parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/parallel.hh"

namespace gmoms
{
namespace
{

TEST(ThreadPool, RunAllWithNoJobsReturnsImmediately)
{
    ThreadPool pool(2);
    pool.runAll({});
}

TEST(ThreadPool, RunAllExecutesEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 200;
    std::vector<std::atomic<int>> hits(kJobs);
    std::vector<ThreadPool::Job> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs.push_back([&hits, i] { ++hits[i]; });
    pool.runAll(std::move(jobs));
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ResultsLandAtTheirJobIndex)
{
    // The sweep() pattern: each job writes results[i]; order of
    // execution must not matter for where results land.
    ThreadPool pool(8);
    constexpr std::size_t kJobs = 64;
    std::vector<int> results(kJobs, -1);
    std::vector<ThreadPool::Job> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs.push_back(
            [&results, i] { results[i] = static_cast<int>(i) * 3; });
    pool.runAll(std::move(jobs));
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(results[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, SingleWorkerRunsJobsInPostedOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<ThreadPool::Job> jobs;
    for (int i = 0; i < 32; ++i)
        jobs.push_back([&order, i] { order.push_back(i); });
    pool.runAll(std::move(jobs));
    std::vector<int> expected(32);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, RethrowsLowestIndexFailure)
{
    ThreadPool pool(4);
    // Every odd job fails; the batch must surface job 1's exception
    // regardless of which failing job finished first.
    std::vector<ThreadPool::Job> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.push_back([i] {
            if (i % 2 == 1)
                throw std::runtime_error("job " + std::to_string(i));
        });
    try {
        pool.runAll(std::move(jobs));
        FAIL() << "expected runAll to rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
}

TEST(ThreadPool, AllJobsRunEvenWhenSomeThrow)
{
    ThreadPool pool(2);
    std::atomic<int> executed{0};
    std::vector<ThreadPool::Job> jobs;
    for (int i = 0; i < 20; ++i)
        jobs.push_back([&executed, i] {
            ++executed;
            if (i == 0)
                throw std::runtime_error("first");
        });
    EXPECT_THROW(pool.runAll(std::move(jobs)), std::runtime_error);
    EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPool, NestedRunAllFromWorkerExecutesInline)
{
    // A job that itself calls runAll() must not deadlock even when the
    // pool has a single worker (the nested batch runs on that worker).
    ThreadPool pool(1);
    std::atomic<int> inner_runs{0};
    pool.runAll({[&] {
        std::vector<ThreadPool::Job> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back([&inner_runs] { ++inner_runs; });
        pool.runAll(std::move(inner));
    }});
    EXPECT_EQ(inner_runs.load(), 8);
}

TEST(ThreadPool, SmallQueueBackpressuresWithoutDeadlock)
{
    // Queue of 2 slots, many more jobs: post() must block-and-resume
    // rather than drop or deadlock.
    ThreadPool pool(2, 2);
    std::atomic<int> runs{0};
    std::vector<ThreadPool::Job> jobs;
    for (int i = 0; i < 100; ++i)
        jobs.push_back([&runs] { ++runs; });
    pool.runAll(std::move(jobs));
    EXPECT_EQ(runs.load(), 100);
}

TEST(ThreadPool, ParseWorkersAcceptsOnlyPlainPositiveIntegers)
{
    EXPECT_EQ(ThreadPool::parseWorkers(nullptr), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers(""), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("abc"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("4x"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("-2"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("0"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("1"), 1u);
    EXPECT_EQ(ThreadPool::parseWorkers("16"), 16u);
}

TEST(ThreadPool, ParseWorkersRejectsCountsAboveTheCap)
{
    const std::string cap = std::to_string(ThreadPool::kMaxWorkers);
    const std::string over = std::to_string(ThreadPool::kMaxWorkers + 1);
    EXPECT_EQ(ThreadPool::parseWorkers(cap.c_str()),
              ThreadPool::kMaxWorkers);
    EXPECT_EQ(ThreadPool::parseWorkers(over.c_str()), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("4294967295"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("99999999999999999999"), 0u);
    // strtoul negates a signed value, and "-18446744073709551615"
    // would read as 1; a sign or a blank is refused outright.
    EXPECT_EQ(ThreadPool::parseWorkers("-18446744073709551615"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers("+4"), 0u);
    EXPECT_EQ(ThreadPool::parseWorkers(" 4"), 0u);
}

TEST(ThreadPool, DefaultWorkersIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
}

TEST(ThreadPool, WorkerCountMatchesRequest)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
}

} // namespace
} // namespace gmoms
