/** @file Tests for the service thread-pool runtime. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/thread_pool.h"

namespace dac::service {
namespace {

TEST(ThreadPool, SubmittedWorkExecutes)
{
    ThreadPool pool(2);
    auto doubled = pool.submit([]() { return 21 * 2; });
    EXPECT_EQ(doubled.get(), 42);

    std::atomic<int> hits{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(pool.submit([&hits]() { ++hits; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(hits.load(), 20);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto failing = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(failing.get(), std::runtime_error);

    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> touched(101);
    pool.parallelFor(touched.size(), [&](size_t i) { ++touched[i]; });
    for (const auto &count : touched)
        EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](size_t i) {
                                      if (i == 13)
                                          throw std::runtime_error("13");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A pool task running parallelFor must finish even when every
    // worker is occupied: the calling thread drains its own loop.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    auto done = pool.submit([&]() {
        pool.parallelFor(8, [&](size_t) {
            pool.parallelFor(4, [&](size_t) { ++total; });
        });
    });
    done.get();
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork)
{
    std::atomic<int> completed{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 16; ++i) {
            pool.post([&completed]() {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++completed;
            });
        }
        pool.shutdown();
        EXPECT_EQ(completed.load(), 16);
        EXPECT_THROW(pool.post([]() {}), std::runtime_error);
    }
    EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, BoundedQueueRejectsTryPostWhenFull)
{
    ThreadPool::Options options;
    options.threads = 1;
    options.queueCapacity = 2;
    ThreadPool pool(options);

    // Block the single worker, then fill the two queue slots.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.post([gate]() { gate.wait(); });
    while (pool.queueDepth() > 0)
        std::this_thread::yield();

    pool.post([]() {});
    pool.post([]() {});
    EXPECT_EQ(pool.queueDepth(), 2u);
    EXPECT_FALSE(pool.tryPost([]() {}));

    release.set_value();
    pool.shutdown();
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPool, ParallelForLeavesNoStaleHelpers)
{
    // With every worker busy, parallelFor must run on the caller alone
    // and queue no helpers: one left behind outlives its loop and holds
    // a bounded-queue slot until a worker frees up.
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> blocked{0};
    for (int w = 0; w < 2; ++w) {
        pool.post([gate, &blocked]() {
            ++blocked;
            gate.wait();
        });
    }
    while (blocked.load() < 2)
        std::this_thread::yield();

    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> onCaller{0};
    pool.parallelFor(100, [&](size_t) {
        if (std::this_thread::get_id() == caller)
            ++onCaller;
    });
    EXPECT_EQ(onCaller.load(), 100);
    EXPECT_EQ(pool.queueDepth(), 0u);

    release.set_value();
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
    EXPECT_EQ(pool.concurrency(), pool.threadCount());
}

} // namespace
} // namespace dac::service
