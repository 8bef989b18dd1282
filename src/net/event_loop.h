// EventLoop: a single-threaded non-blocking epoll reactor.
//
// One loop drives every socket of a WebDbTcpServer (and bench_net's
// client fleets): file descriptors register a callback for a set of
// epoll events, the loop dispatches ready callbacks one epoll_wait at a
// time, and one-shot timers ride the epoll timeout. The design stays
// deliberately minimal — no cross-thread task queue, no fairness
// machinery — because every structure the loop touches is owned by the
// loop thread.
//
// The ONLY cross-thread (and async-signal-safe) entry point is Stop():
// it sets an atomic flag and writes an eventfd the loop always polls,
// so a signal handler (deepcrawl_serve's SIGTERM handler) or another
// thread can wake a parked epoll_wait without locks. Everything else —
// Add/Modify/Remove/ScheduleAt/Run — must be called on the loop thread
// (or before Run starts).
//
// fd lifetime: Remove() an fd before close()ing it. Events already
// harvested by the current epoll_wait batch for a removed fd are
// discarded by a generation check, so a callback that closes OTHER
// connections (e.g. shedding) cannot cause a stale dispatch to a
// recycled descriptor.

#ifndef DEEPCRAWL_NET_EVENT_LOOP_H_
#define DEEPCRAWL_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/util/status.h"

namespace deepcrawl {

class EventLoop {
 public:
  // The callback receives the ready epoll event mask (EPOLLIN,
  // EPOLLOUT, EPOLLHUP, ... as delivered by epoll_wait).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // OK when the epoll and wakeup descriptors came up; a failed loop
  // refuses Add/Run.
  Status Init();

  // Registers `fd` (must be non-blocking) for `events`; replaces any
  // existing registration's callback and mask.
  Status Add(int fd, uint32_t events, FdCallback callback);
  // Changes the interest mask of a registered fd.
  Status Modify(int fd, uint32_t events);
  // Deregisters; call BEFORE close(fd). Unknown fds are ignored.
  void Remove(int fd);

  // Runs `fn` once `deadline_us` (NowMicros clock) has passed. Timers
  // fire between epoll batches, in deadline order; equal deadlines fire
  // in schedule order.
  void ScheduleAt(uint64_t deadline_us, std::function<void()> fn);

  // Monotonic clock, microseconds (CLOCK_MONOTONIC).
  static uint64_t NowMicros();

  // Dispatches until Stop(), then returns OK. A failed RunOnce (a loop
  // that was never Init()ed, or an epoll_wait error) ends the loop and
  // returns that Status instead. Must not be re-entered.
  Status Run();

  // One epoll_wait batch plus due timers; `timeout_ms` < 0 blocks until
  // an event (tests drive the loop step by step with this).
  Status RunOnce(int timeout_ms);

  // Thread- and async-signal-safe: wakes the loop and makes Run return
  // after the current batch.
  void Stop();

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  // Number of registered fds (the wakeup eventfd excluded).
  size_t watched_fds() const { return handlers_.size(); }

 private:
  struct Handler {
    uint64_t generation = 0;
    FdCallback callback;
  };

  void DrainWakeup();
  void RunDueTimers();
  // epoll timeout honoring both `timeout_ms` and the nearest timer.
  int EffectiveTimeoutMs(int timeout_ms) const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  uint64_t next_generation_ = 1;
  std::unordered_map<int, Handler> handlers_;
  std::multimap<uint64_t, std::function<void()>> timers_;
  // epoll_wait's output buffer, reused across batches.
  std::vector<epoll_event> events_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_NET_EVENT_LOOP_H_
