// Fixed-size thread pool with a parallel-for helper.
//
// The REED client parallelizes chunk encryption/decryption across threads
// (paper §V-B "Parallelization"; the prototype used 2 threads on a 4-core
// box). ParallelFor partitions the index space statically — chunk work items
// are uniform enough that static partitioning beats a work queue here.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/fault_inject.h"
#include "util/thread_annotations.h"

namespace reed {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  // Enqueues a task; the returned future rethrows any task exception.
  // Dropping the future silently swallows that exception, hence nodiscard.
  template <typename F>
  [[nodiscard]] std::future<void> Submit(F&& f) {
    REED_FAULT_POINT("util.thread_pool.submit");
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<F>(f));
    std::future<void> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.NotifyOne();
    return fut;
  }

  // Runs body(i) for i in [0, count) across the pool, blocking until done.
  // The first exception thrown by any partition is rethrown to the caller.
  template <typename F>
  void ParallelFor(std::size_t count, F&& body) {
    ParallelForRanges(count, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  // Runs body(begin, end) once per partition of [0, count), so a partition
  // can batch its items into one call (Sha256::HashMany hashes a whole
  // partition's chunks at lane width). Same blocking and exceptions as
  // ParallelFor.
  template <typename F>
  void ParallelForRanges(std::size_t count, F&& body) {
    if (count == 0) return;
    std::size_t parts = std::min(count, num_threads());
    if (parts <= 1) {
      body(std::size_t{0}, count);
      return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(parts);
    std::size_t chunk = (count + parts - 1) / parts;
    try {
      for (std::size_t p = 0; p < parts; ++p) {
        std::size_t begin = p * chunk;
        std::size_t end = std::min(count, begin + chunk);
        if (begin >= end) break;
        futures.push_back(Submit([&body, begin, end] { body(begin, end); }));
      }
    } catch (...) {
      // A mid-loop Submit failure must not leave queued tasks holding a
      // reference to `body` past this frame: join what was enqueued (their
      // results are moot — the whole ParallelFor fails), then rethrow the
      // submit error.
      std::exception_ptr submit_error = std::current_exception();
      for (auto& f : futures) {
        try {
          f.get();
        } catch (...) {
          DiscardResult(std::current_exception());
        }
      }
      std::rethrow_exception(submit_error);
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        cv_.Wait(mu_, [this]() REED_REQUIRES(mu_) {
          return stopping_ || !queue_.empty();
        });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  Mutex mu_{LockRank::kThreadPool};
  CondVar cv_;
  bool stopping_ REED_GUARDED_BY(mu_) = false;
  std::queue<std::function<void()>> queue_ REED_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace reed
