#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace lshap {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

Status ThreadPool::Schedule(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition(
          "ThreadPool::Schedule after Shutdown");
    }
    queue_.push(std::move(fn));
    ++in_flight_;
  }
  work_cv_.notify_one();
  return Status::Ok();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t num_workers = std::min(n, pool.num_threads());
  std::atomic<size_t> next{0};
  size_t scheduled = 0;
  for (size_t w = 0; w < num_workers; ++w) {
    const Status s = pool.Schedule([&next, n, &fn] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(i);
      }
    });
    if (s.ok()) ++scheduled;
  }
  // Scheduling into a shut-down pool is a caller bug for the infallible
  // variant; fail fast rather than spin on work that will never run.
  LSHAP_CHECK_MSG(scheduled > 0, "ParallelFor on a shut-down ThreadPool");
  pool.Wait();
}

void ParallelForRanges(ThreadPool& pool, size_t n, size_t grain,
                       const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  const size_t num_ranges = (n + grain - 1) / grain;
  ParallelFor(pool, num_ranges, [&](size_t r) {
    const size_t begin = r * grain;
    fn(r, begin, std::min(n, begin + grain));
  });
}

Status ParallelFor(ThreadPool& pool, size_t n, CancelToken& cancel,
                   const std::function<Status(size_t)>& fn,
                   const std::function<void()>& meanwhile) {
  if (n == 0) {
    if (meanwhile) meanwhile();
    return Status::Ok();
  }
  const size_t num_workers = std::min(n, pool.num_threads());
  std::atomic<size_t> next{0};
  std::mutex err_mu;
  Status first_error;
  for (size_t w = 0; w < num_workers; ++w) {
    const Status s = pool.Schedule([&] {
      for (;;) {
        if (cancel.cancelled()) return;
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        const Status item = fn(i);
        if (!item.ok()) {
          {
            std::unique_lock<std::mutex> lock(err_mu);
            if (first_error.ok()) first_error = item;
          }
          cancel.RequestCancel();
          return;
        }
      }
    });
    if (!s.ok()) {
      // Workers already scheduled capture this frame's locals; drain them
      // before unwinding.
      cancel.RequestCancel();
      pool.Wait();
      if (meanwhile) meanwhile();
      return s;
    }
  }
  if (meanwhile) meanwhile();
  pool.Wait();
  {
    std::unique_lock<std::mutex> lock(err_mu);
    if (!first_error.ok()) return first_error;
  }
  if (cancel.cancelled()) {
    return Status::Cancelled("ParallelFor wave cancelled");
  }
  return Status::Ok();
}

}  // namespace lshap
