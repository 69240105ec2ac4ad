/**
 * @file
 * A single-threaded readiness event loop: one thread, one Poller, a
 * set of watched fds with callbacks, and a wakeup pipe so other
 * threads can inject work (runInLoop) or stop it.
 *
 * Threading contract: watch()/updateInterest()/unwatch() and every fd
 * callback run on the loop thread only — cross-thread callers go
 * through runInLoop(), which is the one (mutex-protected) entry point.
 * The server pins each accepted connection to one loop, so connection
 * state needs no locks at all; that is the point of the design.
 */

#ifndef DAC_NET_EVENT_LOOP_H
#define DAC_NET_EVENT_LOOP_H

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "net/poller.h"

namespace dac::net {

class EventLoop
{
  public:
    /** Invoked on the loop thread when the watched fd is ready. */
    using FdHandler = std::function<void(const ReadyEvent &)>;

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Process events until stop(). Runs pending runInLoop callbacks
     * after each poll cycle, and drains them once more before
     * returning so work queued just before stop() still executes.
     */
    void run();

    /** Ask the loop to exit; thread-safe, idempotent. */
    void stop();

    /**
     * Queue `fn` to run on the loop thread and wake it. Thread-safe.
     * Called from the loop thread itself, still queues (no reentrant
     * execution).
     */
    void runInLoop(std::function<void()> fn);

    /** True on the thread currently inside run(). */
    [[nodiscard]] bool inLoopThread() const;

    /** Watch `fd`; loop thread only. */
    void watch(int fd, bool read, bool write, FdHandler handler);
    /** Change interest of a watched fd; loop thread only. */
    void updateInterest(int fd, bool read, bool write);
    /** Stop watching; loop thread only. Safe to call from inside the
     *  fd's own handler (dispatch works on a copy). */
    void unwatch(int fd);

  private:
    void wakeup();
    void runPending();

    Poller poller;
    /** Self-pipe: [0] read end watched by the poller, [1] written by
     *  wakeup(). */
    int wakeFds[2] = {-1, -1};
    std::map<int, FdHandler> handlers;

    std::mutex mutex;
    std::vector<std::function<void()>> pending;

    std::atomic<bool> stopRequested{false};
    std::atomic<std::thread::id> loopThread{};
};

} // namespace dac::net

#endif // DAC_NET_EVENT_LOOP_H
