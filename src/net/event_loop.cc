#include "src/net/event_loop.h"

#include <errno.h>
#include <limits.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <string>
#include <utility>

namespace deepcrawl {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + strerror(errno));
}

// Packs (fd, generation) into epoll_event.data.u64 so a harvested event
// can be matched against the CURRENT registration of that fd.
uint64_t PackTag(int fd, uint64_t generation) {
  return (generation << 32) | static_cast<uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop() : events_(256) {}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");
  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.u64 = PackTag(wake_fd_, 0);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wakeup)");
  }
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  if (epoll_fd_ < 0) return Status::FailedPrecondition("EventLoop not Init()ed");
  uint64_t generation = next_generation_++;
  struct epoll_event ev;
  ev.events = events;
  ev.data.u64 = PackTag(fd, generation);
  int op = handlers_.count(fd) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) < 0) return Errno("epoll_ctl(add)");
  handlers_[fd] = Handler{generation, std::move(callback)};
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    return Status::NotFound("Modify on unregistered fd");
  }
  struct epoll_event ev;
  ev.events = events;
  ev.data.u64 = PackTag(fd, it->second.generation);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) > 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::ScheduleAt(uint64_t deadline_us, std::function<void()> fn) {
  timers_.emplace(deadline_us, std::move(fn));
}

uint64_t EventLoop::NowMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

void EventLoop::DrainWakeup() {
  uint64_t value;
  while (read(wake_fd_, &value, sizeof(value)) > 0) {
  }
}

void EventLoop::RunDueTimers() {
  // Fire every timer due as of entry. Callbacks may schedule new
  // timers; those wait for the next batch even if already due, so a
  // zero-delay self-rescheduling timer cannot starve the poll.
  uint64_t now = NowMicros();
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

int EventLoop::EffectiveTimeoutMs(int timeout_ms) const {
  if (timers_.empty()) return timeout_ms;
  uint64_t now = NowMicros();
  uint64_t next = timers_.begin()->first;
  uint64_t wait_ms = next <= now ? 0 : (next - now + 999) / 1000;
  if (wait_ms > INT_MAX) wait_ms = INT_MAX;
  int timer_ms = static_cast<int>(wait_ms);
  if (timeout_ms < 0) return timer_ms;
  return timer_ms < timeout_ms ? timer_ms : timeout_ms;
}

Status EventLoop::RunOnce(int timeout_ms) {
  if (epoll_fd_ < 0) return Status::FailedPrecondition("EventLoop not Init()ed");
  int n = epoll_wait(epoll_fd_, events_.data(),
                     static_cast<int>(events_.size()),
                     EffectiveTimeoutMs(timeout_ms));
  if (n < 0) {
    if (errno == EINTR) return Status::OK();
    return Errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    uint64_t tag = events_[i].data.u64;
    int fd = static_cast<int>(tag & 0xffffffffu);
    uint64_t generation = tag >> 32;
    if (fd == wake_fd_) {
      DrainWakeup();
      continue;
    }
    auto it = handlers_.find(fd);
    // Skip events for fds removed (or re-added: generation differs) by
    // an earlier callback in this same batch.
    if (it == handlers_.end() || it->second.generation != generation) {
      continue;
    }
    it->second.callback(events_[i].events);
  }
  RunDueTimers();
  return Status::OK();
}

Status EventLoop::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    DEEPCRAWL_RETURN_IF_ERROR(RunOnce(-1));
  }
  return Status::OK();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  // write(2) is async-signal-safe; failure (full counter) still leaves
  // a readable eventfd, so the loop wakes either way.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

}  // namespace deepcrawl
