/**
 * @file
 * Readiness-notification backend of the event loop: one
 * level-triggered epoll instance answering "which of these fds are
 * readable/writable". The server is Linux-only, and epoll is its one
 * readiness backend.
 */

#ifndef DAC_NET_POLLER_H
#define DAC_NET_POLLER_H

#include <vector>

namespace dac::net {

/** One ready descriptor, as reported by Poller::wait. */
struct ReadyEvent
{
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /** Error/hangup on the descriptor; treat as readable so the
     *  handler observes EOF and closes. */
    bool broken = false;
};

/**
 * Level-triggered readiness watcher over epoll. Not thread-safe:
 * owned and driven by exactly one event-loop thread.
 */
class Poller
{
  public:
    Poller();
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Start watching `fd` for the given interest set. */
    void add(int fd, bool read, bool write);
    /** Change the interest set of a watched fd. */
    void update(int fd, bool read, bool write);
    /** Stop watching (must be called before closing the fd). */
    void remove(int fd);

    /**
     * Block up to `timeout_ms` (-1 = forever) and fill `out` with the
     * ready descriptors.
     */
    void wait(int timeout_ms, std::vector<ReadyEvent> &out);

  private:
    void control(int op, int fd, bool read, bool write);

    int epollFd;
};

} // namespace dac::net

#endif // DAC_NET_POLLER_H
