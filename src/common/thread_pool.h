#ifndef LSHAP_COMMON_THREAD_POOL_H_
#define LSHAP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/status.h"

namespace lshap {

// Fixed-size worker pool. Used for embarrassingly parallel phases (Shapley
// ground-truth computation over output tuples, batched model evaluation).
class ThreadPool {
 public:
  // num_threads == 0 means hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules fn; fn must not throw. Fails with kFailedPrecondition after
  // Shutdown() — tasks are never silently enqueued into a dead pool.
  Status Schedule(std::function<void()> fn);

  // Blocks until every scheduled task has finished.
  void Wait();

  // Drains already-scheduled work, joins all workers, and rejects further
  // Schedule calls. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

// Runs fn(i) for i in [0, n) across the pool, blocking until all complete.
void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn);

// Cancellation-propagating variant: runs fn(i) for i in [0, n), but the
// first non-OK return (or an externally cancelled token) stops the wave —
// workers poll `cancel` between items, so remaining iterations are skipped
// rather than executed, and Wait() cannot wedge on a poisoned wave. Returns
// the first error in iteration order-of-occurrence (kCancelled if the token
// was tripped externally), OK otherwise. `fn` must tolerate never being
// called for skipped indices. `meanwhile`, when set, runs exactly once on
// the calling thread while the workers run the wave.
Status ParallelFor(ThreadPool& pool, size_t n, CancelToken& cancel,
                   const std::function<Status(size_t)>& fn,
                   const std::function<void()>& meanwhile = nullptr);

// Splits [0, n) into contiguous ranges of at most `grain` items and runs
// fn(range_index, begin, end) for each across the pool, blocking until all
// complete. Range r covers [r*grain, min(n, (r+1)*grain)), so range indexes
// enumerate the input in order — callers that write one output slot per
// range and merge slots in range order get exactly the serial result. The
// morsel-driven evaluator is the primary user.
void ParallelForRanges(ThreadPool& pool, size_t n, size_t grain,
                       const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace lshap

#endif  // LSHAP_COMMON_THREAD_POOL_H_
