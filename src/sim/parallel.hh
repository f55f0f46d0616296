/**
 * @file
 * Thread-pool job system for fanning independent simulations across
 * host cores.
 *
 * Every paper figure is a sweep of independent `Accelerator::run()`
 * calls (Fig. 11 alone is ~100), and the simulation core is re-entrant
 * (see docs/MODEL.md, "Re-entrancy contract"): no two simulations share
 * mutable state, so sweeps are embarrassingly parallel. The pool is a
 * fixed set of workers draining a bounded job queue; runAll() executes
 * a batch and rethrows the first failure by job index, which keeps
 * error reporting deterministic regardless of scheduling.
 *
 * Sizing: GMOMS_JOBS=<n> pins the worker count (GMOMS_JOBS=1 gives a
 * serial-equivalent schedule for debugging and wall-clock baselines);
 * unset or 0 uses std::thread::hardware_concurrency().
 *
 * runAll() called from inside a pool worker executes the batch inline
 * on that worker (nested sweeps cannot deadlock the pool).
 */

#ifndef GMOMS_SIM_PARALLEL_HH
#define GMOMS_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gmoms
{

class ThreadPool
{
  public:
    using Job = std::function<void()>;

    /** Largest worker count accepted from outside the program:
     *  GMOMS_JOBS (parseWorkers) and gmoms_serve --workers. */
    static constexpr unsigned kMaxWorkers = 1024;

    /**
     * @param workers     Worker threads; 0 means defaultWorkers().
     * @param queue_slots Bounded job-queue capacity; post() blocks
     *                    while the queue is full. 0 sizes it at
     *                    4 * workers.
     */
    explicit ThreadPool(unsigned workers = 0,
                        std::size_t queue_slots = 0);

    /** Joins all workers after draining already-posted jobs. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** GMOMS_JOBS if set and nonzero, else hardware concurrency
     *  (at least 1). */
    static unsigned defaultWorkers();

    /** Parse a GMOMS_JOBS-style value: a plain decimal count in
     *  [1, kMaxWorkers]; 0 for null, empty, invalid or out-of-range
     *  text. Exposed for tests. */
    static unsigned parseWorkers(const char* value);

    /** Process-wide pool used by bench sweeps, sized defaultWorkers(). */
    static ThreadPool& shared();

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Enqueue one job; blocks while the queue is full. The job's
     * exceptions are swallowed here — use runAll() when failures must
     * propagate.
     */
    void post(Job job);

    /**
     * Run every job in @p jobs and wait for all of them. If any job
     * threw, rethrows the exception of the *lowest-index* failing job
     * (deterministic under any scheduling). Safe to call from a pool
     * worker: the batch then runs inline on the calling thread.
     */
    void runAll(std::vector<Job> jobs);

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::size_t queue_slots_;

    std::mutex mu_;
    std::condition_variable queue_nonempty_;
    std::condition_variable queue_nonfull_;
    std::vector<Job> queue_;  //!< FIFO via head index
    std::size_t queue_head_ = 0;
    bool stopping_ = false;
};

} // namespace gmoms

#endif // GMOMS_SIM_PARALLEL_HH
