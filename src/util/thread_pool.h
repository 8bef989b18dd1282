// ThreadPool: a fixed-size worker pool with a single FIFO task queue.
//
// The crawl engine (src/crawler/crawl_engine.h) at threads > 1 issues its
// page fetches in waves: every wave submits up to `batch` independent
// fetch tasks and blocks until all of them finished, then commits the
// results sequentially. That access pattern needs nothing fancier than a
// mutex-guarded queue — no work stealing, no futures, no task graph —
// so that is all this pool provides, keeping the concurrency substrate
// small enough to audit (and to run under ThreadSanitizer in CI, see
// tools/check.sh).
//
// Determinism note: the pool never reorders results — callers index
// their output slots by task rank, so which worker ran a task (and in
// what order tasks completed) is invisible to the caller. This is the
// foundation of the engine's thread-count-invariance contract
// (DESIGN.md §8).

#ifndef DEEPCRAWL_UTIL_THREAD_POOL_H_
#define DEEPCRAWL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deepcrawl {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (must be >= 1).
  explicit ThreadPool(unsigned num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue (pending tasks still run), then joins the workers.
  ~ThreadPool();

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueues one task. Tasks must not throw (the library is
  // exception-free) and must not submit into the same pool recursively.
  void Submit(std::function<void()> task);

  // Runs every task on the pool and blocks until all of them finished.
  // Tasks may run in any order and on any worker; callers that care
  // about order must write results into rank-indexed slots.
  void RunAndWait(std::vector<std::function<void()>>& tasks);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_workers_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_THREAD_POOL_H_
