#include "net/poller.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <sys/epoll.h>
#include <unistd.h>

#include "support/logging.h"

namespace dac::net {

namespace {

/** Ready events one wait() collects at most. */
constexpr int kMaxEvents = 64;

} // namespace

Poller::Poller()
    : epollFd(::epoll_create1(0))
{
    if (epollFd < 0)
        fatalError(std::string("epoll_create1(): ") +
                   std::strerror(errno));
}

Poller::~Poller()
{
    ::close(epollFd);
}

void
Poller::add(int fd, bool read, bool write)
{
    control(EPOLL_CTL_ADD, fd, read, write);
}

void
Poller::update(int fd, bool read, bool write)
{
    control(EPOLL_CTL_MOD, fd, read, write);
}

void
Poller::remove(int fd)
{
    epoll_event ev{};
    (void)::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, &ev);
}

void
Poller::wait(int timeout_ms, std::vector<ReadyEvent> &out)
{
    out.clear();
    epoll_event events[kMaxEvents];
    const int ready = ::epoll_wait(epollFd, events, kMaxEvents, timeout_ms);
    if (ready <= 0)
        return; // timeout or EINTR; the loop just re-waits
    out.reserve(static_cast<size_t>(ready));
    for (int i = 0; i < ready; ++i) {
        ReadyEvent event;
        event.fd = events[i].data.fd;
        event.readable = (events[i].events & EPOLLIN) != 0;
        event.writable = (events[i].events & EPOLLOUT) != 0;
        event.broken = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        out.push_back(event);
    }
}

void
Poller::control(int op, int fd, bool read, bool write)
{
    epoll_event ev{};
    ev.data.fd = fd;
    if (read)
        ev.events |= EPOLLIN;
    if (write)
        ev.events |= EPOLLOUT;
    if (::epoll_ctl(epollFd, op, fd, &ev) != 0)
        fatalError(std::string("epoll_ctl(): ") + std::strerror(errno));
}

} // namespace dac::net
