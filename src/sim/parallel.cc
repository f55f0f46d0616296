#include "src/sim/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>

#include "src/sim/log.hh"

namespace gmoms
{

namespace
{

/** Set while the current thread is a pool worker (any pool): nested
 *  runAll() calls then execute inline instead of waiting on workers
 *  that may all be blocked on the same wait. */
thread_local bool tls_in_worker = false;

} // namespace

ThreadPool::ThreadPool(unsigned workers, std::size_t queue_slots)
{
    if (workers == 0)
        workers = defaultWorkers();
    queue_slots_ = queue_slots != 0 ? queue_slots
                                    : static_cast<std::size_t>(workers) * 4;
    queue_.reserve(queue_slots_);
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    queue_nonempty_.notify_all();
    queue_nonfull_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

unsigned
ThreadPool::parseWorkers(const char* value)
{
    // strtoul would also take leading blanks and a sign (and negate
    // "-1" to ULONG_MAX), so the text must start with a digit.
    if (value == nullptr || value[0] < '0' || value[0] > '9')
        return 0;
    char* end = nullptr;
    const unsigned long n = std::strtoul(value, &end, 10);
    if (*end != '\0' || n > kMaxWorkers)
        return 0;
    return static_cast<unsigned>(n);
}

unsigned
ThreadPool::defaultWorkers()
{
    const char* env = std::getenv("GMOMS_JOBS");
    if (env != nullptr && env[0] != '\0') {
        const unsigned n = parseWorkers(env);
        // Fail loudly: "GMOMS_JOBS=eight" silently running with one
        // worker per core is exactly the wrong-but-plausible fallback
        // a sweep user would never notice.
        if (n == 0)
            fatal("GMOMS_JOBS must be a worker count in [1, " +
                  std::to_string(kMaxWorkers) + "], got \"" +
                  std::string(env) + "\"");
        return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

ThreadPool&
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::post(Job job)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_nonfull_.wait(lock, [this] {
            return queue_.size() - queue_head_ < queue_slots_ ||
                   stopping_;
        });
        if (stopping_)
            return;
        // Compact the drained prefix before appending; amortized O(1).
        if (queue_head_ != 0 && queue_.size() == queue_head_) {
            queue_.clear();
            queue_head_ = 0;
        }
        queue_.push_back(std::move(job));
    }
    queue_nonempty_.notify_one();
}

void
ThreadPool::workerLoop()
{
    tls_in_worker = true;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queue_nonempty_.wait(lock, [this] {
                return queue_head_ < queue_.size() || stopping_;
            });
            if (queue_head_ >= queue_.size()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(queue_[queue_head_]);
            ++queue_head_;
            if (queue_head_ == queue_.size()) {
                queue_.clear();
                queue_head_ = 0;
            }
        }
        queue_nonfull_.notify_one();
        job();  // exceptions must be handled by the wrapper (runAll)
    }
}

void
ThreadPool::runAll(std::vector<Job> jobs)
{
    if (jobs.empty())
        return;

    if (tls_in_worker) {
        // Nested call from a worker: run inline (lowest-index failure
        // wins trivially — jobs execute in order).
        for (Job& job : jobs)
            job();
        return;
    }

    struct Batch
    {
        std::mutex mu;
        std::condition_variable done;
        std::size_t remaining;
        std::exception_ptr first_error;
        std::size_t first_error_index;
    };
    auto batch = std::make_shared<Batch>();
    batch->remaining = jobs.size();
    batch->first_error_index = std::numeric_limits<std::size_t>::max();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        post([batch, i, job = std::move(jobs[i])]() mutable {
            std::exception_ptr error;
            try {
                job();
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(batch->mu);
            // Hand the exception over (or drop it) under the lock: once
            // remaining hits 0 the caller may rethrow and free it, so
            // this worker must hold no reference after unlocking.
            if (error && i < batch->first_error_index) {
                batch->first_error = std::move(error);
                batch->first_error_index = i;
            }
            error = nullptr;
            if (--batch->remaining == 0)
                batch->done.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
    // Take the exception out under the lock as well: a worker may drop
    // the last batch reference after this returns, and must not be the
    // one that frees an exception the caller is reading.
    const std::exception_ptr error = batch->first_error;
    batch->first_error = nullptr;
    if (error)
        std::rethrow_exception(error);
}

} // namespace gmoms
