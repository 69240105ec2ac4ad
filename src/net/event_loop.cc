#include "net/event_loop.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "net/socket.h"
#include "support/logging.h"

namespace dac::net {

EventLoop::EventLoop()
{
    if (::pipe(wakeFds) != 0)
        fatalError(std::string("pipe(): ") + std::strerror(errno));
    setNonBlocking(wakeFds[0]);
    setNonBlocking(wakeFds[1]);
    poller.add(wakeFds[0], true, false);
}

EventLoop::~EventLoop()
{
    poller.remove(wakeFds[0]);
    ::close(wakeFds[0]);
    ::close(wakeFds[1]);
}

void
EventLoop::run()
{
    loopThread.store(std::this_thread::get_id(),
                     std::memory_order_release);
    std::vector<ReadyEvent> ready;
    while (!stopRequested.load(std::memory_order_acquire)) {
        poller.wait(-1, ready);
        for (const ReadyEvent &event : ready) {
            if (event.fd == wakeFds[0]) {
                // Drain however many wakeup bytes accumulated.
                uint8_t sink[64];
                while (::read(wakeFds[0], sink, sizeof(sink)) > 0) {
                }
                continue;
            }
            // Copy the handler: it may unwatch (erase) itself, and an
            // earlier handler this cycle may have unwatched this fd.
            const auto it = handlers.find(event.fd);
            if (it == handlers.end())
                continue;
            const FdHandler handler = it->second;
            handler(event);
        }
        runPending();
    }
    // Final drain: callbacks queued between the last cycle and stop().
    runPending();
    loopThread.store(std::thread::id{}, std::memory_order_release);
}

void
EventLoop::stop()
{
    stopRequested.store(true, std::memory_order_release);
    wakeup();
}

void
EventLoop::runInLoop(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        pending.push_back(std::move(fn));
    }
    wakeup();
}

bool
EventLoop::inLoopThread() const
{
    return loopThread.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
}

void
EventLoop::watch(int fd, bool read, bool write, FdHandler handler)
{
    DAC_ASSERT(inLoopThread(), "watch() off the loop thread");
    DAC_ASSERT(handlers.find(fd) == handlers.end(),
               "fd is already watched");
    handlers.emplace(fd, std::move(handler));
    poller.add(fd, read, write);
}

void
EventLoop::updateInterest(int fd, bool read, bool write)
{
    DAC_ASSERT(inLoopThread(), "updateInterest() off the loop thread");
    poller.update(fd, read, write);
}

void
EventLoop::unwatch(int fd)
{
    DAC_ASSERT(inLoopThread(), "unwatch() off the loop thread");
    poller.remove(fd);
    handlers.erase(fd);
}

void
EventLoop::wakeup()
{
    const uint8_t byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    (void)::write(wakeFds[1], &byte, 1);
}

void
EventLoop::runPending()
{
    std::vector<std::function<void()>> batch;
    {
        std::lock_guard<std::mutex> lock(mutex);
        batch.swap(pending);
    }
    for (auto &fn : batch)
        fn();
}

} // namespace dac::net
