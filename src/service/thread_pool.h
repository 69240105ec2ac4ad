/**
 * @file
 * The tuning service's thread-pool runtime: a fixed set of worker
 * threads draining a bounded FIFO work queue, plus the parallelFor
 * primitive the collector and GA use for fan-out.
 *
 * parallelFor is deadlock-free under nesting: the calling thread
 * participates in its own loop, so a pool task that itself calls
 * parallelFor makes progress even when every worker is busy; idle
 * workers merely accelerate it.
 */

#ifndef DAC_SERVICE_THREAD_POOL_H
#define DAC_SERVICE_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/executor.h"

namespace dac::service {

/**
 * Fixed-size worker pool over a bounded work queue.
 */
class ThreadPool final : public Executor
{
  public:
    /** Pool sizing. */
    struct Options
    {
        /** Worker threads (0 = one per hardware thread). */
        size_t threads = 0;
        /** Maximum queued (not yet running) tasks; post() blocks and
         *  tryPost() fails once the queue is this deep. */
        size_t queueCapacity = 1024;
    };

    /** Pool with `threads` workers and the default queue capacity. */
    explicit ThreadPool(size_t threads);
    explicit ThreadPool(Options options);

    /** Joins the workers after draining all queued work. */
    ~ThreadPool() override;

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool. */
    size_t threadCount() const { return workers.size(); }
    size_t concurrency() const override { return workers.size(); }

    /** Tasks queued and not yet picked up by a worker. */
    size_t queueDepth() const;

    /**
     * Enqueue a fire-and-forget task; blocks while the queue is at
     * capacity. fatalError() if the pool has been shut down.
     */
    void post(std::function<void()> task);

    /** Like post(), but fails instead of blocking on a full (or shut
     *  down) queue. */
    bool tryPost(std::function<void()> task);

    /**
     * Enqueue a task and get a future for its result; exceptions the
     * task throws surface when the future is consumed.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        post([task]() { (*task)(); });
        return result;
    }

    /**
     * Run body(0..n-1) across the pool and the calling thread; see
     * Executor::parallelFor for the contract.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t)> &body) override;

    /**
     * Stop accepting work, finish every queued task, and join the
     * workers. Idempotent; called by the destructor.
     */
    void shutdown();

  private:
    void workerLoop(size_t index);

    mutable std::mutex mutex;
    std::condition_variable taskReady; ///< signals workers: work/stop
    std::condition_variable queueSpace; ///< signals posters: room freed
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    size_t capacity;
    /** Workers waiting on taskReady; parallelFor sizes its helpers by
     *  it. Guarded by `mutex`. */
    size_t parked = 0;
    bool accepting = true;
    bool stopping = false;
};

} // namespace dac::service

#endif // DAC_SERVICE_THREAD_POOL_H
