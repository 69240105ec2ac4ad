#include "service/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::service {

namespace {

size_t
resolveThreadCount(size_t requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

ThreadPool::ThreadPool(size_t threads)
    : ThreadPool(Options{threads, Options{}.queueCapacity})
{
}

ThreadPool::ThreadPool(Options options)
    : capacity(options.queueCapacity)
{
    DAC_ASSERT(capacity > 0, "thread pool needs a non-empty queue");
    const size_t count = resolveThreadCount(options.threads);
    workers.reserve(count);
    for (size_t i = 0; i < count; ++i)
        workers.emplace_back([this, i]() { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return queue.size();
}

void
ThreadPool::post(std::function<void()> task)
{
    DAC_ASSERT(task, "posted an empty task");
    {
        std::unique_lock<std::mutex> lock(mutex);
        queueSpace.wait(lock, [this]() {
            return queue.size() < capacity || !accepting;
        });
        if (!accepting)
            fatalError("ThreadPool::post after shutdown");
        queue.push_back(std::move(task));
    }
    taskReady.notify_one();
}

bool
ThreadPool::tryPost(std::function<void()> task)
{
    DAC_ASSERT(task, "posted an empty task");
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!accepting || queue.size() >= capacity)
            return false;
        queue.push_back(std::move(task));
    }
    taskReady.notify_one();
    return true;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;

    struct LoopState
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        size_t total;
        const std::function<void(size_t)> *body;
        std::mutex mutex;
        std::condition_variable finished;
        std::exception_ptr error;
    };
    auto state = std::make_shared<LoopState>();
    state->total = n;
    state->body = &body;

    // Work fanned out to pool workers still nests under the span open
    // on the calling thread, keeping the trace one connected tree —
    // and inherits the caller's sampling decision, so a sampled-out
    // request stays silent across its parallel sections.
    const uint64_t parentSpan = obs::currentSpanId();
    const bool record = !obs::samplingSuppressed();
    auto drain = [state, parentSpan, record]() {
        obs::SampleScope sampleScope(record);
        obs::ParentScope parentScope(parentSpan);
        for (;;) {
            // Relaxed: claiming an index carries no data; the body's
            // writes are published by the done counter below.
            const size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= state->total)
                return;
            try {
                (*state->body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
            // acq_rel: release publishes this iteration's writes, and
            // the acquire side keeps the whole RMW chain a release
            // sequence, so the caller's acquire load of `done` sees
            // every worker's writes, not just the last increment's.
            if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                state->total) {
                // Lock so the notify cannot race the waiter between its
                // predicate check and its sleep.
                std::lock_guard<std::mutex> lock(state->mutex);
                state->finished.notify_all();
            }
        }
    };

    // Idle workers accelerate the loop; the caller alone guarantees
    // completion, so a full queue (or a busy pool) is never a deadlock.
    // Helpers go only to workers parked right now, less the tasks
    // already queued for them: a helper posted for a busy worker would
    // sit in the bounded queue long after its loop had finished.
    size_t helpers = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (accepting && parked > queue.size()) {
            helpers = std::min({parked - queue.size(), n - 1,
                                capacity - queue.size()});
            for (size_t h = 0; h < helpers; ++h)
                queue.push_back(drain);
        }
    }
    for (size_t h = 0; h < helpers; ++h)
        taskReady.notify_one();
    drain();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->finished.wait(lock, [&]() {
        // Acquire pairs with the workers' acq_rel increments: once this
        // reads `total`, every loop body's writes are visible here.
        return state->done.load(std::memory_order_acquire) >=
            state->total;
    });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping && !accepting)
            return;
        accepting = false;
        stopping = true;
    }
    taskReady.notify_all();
    queueSpace.notify_all();
    for (auto &worker : workers) {
        if (worker.joinable())
            worker.join();
    }
}

void
ThreadPool::workerLoop(size_t index)
{
    obs::setThreadName("pool-" + std::to_string(index));
    obs::FlightRecorder::attachThread();
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            ++parked;
            taskReady.wait(lock, [this]() {
                return !queue.empty() || stopping;
            });
            --parked;
            // Graceful shutdown: drain the queue before exiting.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }
        queueSpace.notify_one();
        task();
    }
}

} // namespace dac::service
