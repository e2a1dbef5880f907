#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "util/log.hpp"
#include "util/spec.hpp"

namespace netadv::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  const std::size_t worker_count = threads > 0 ? threads - 1 : 0;
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{mutex_};
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  bool inline_only = workers_.empty() || n == 1;
  if (!inline_only) {
    std::unique_lock lock{mutex_};
    if (in_batch_) {
      // Reentrant call from inside a task: run inline rather than deadlock.
      inline_only = true;
    } else {
      in_batch_ = true;
      body_ = &body;
      batch_size_ = n;
      next_index_.store(0, std::memory_order_relaxed);
      workers_active_ = workers_.size();
      ++generation_;
    }
  }
  if (inline_only) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  work_ready_.notify_all();
  drain_batch();  // the caller is one of the execution lanes

  std::unique_lock lock{mutex_};
  batch_done_.wait(lock, [this] { return workers_active_ == 0; });
  body_ = nullptr;
  in_batch_ = false;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::drain_batch() noexcept {
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch_size_) return;
    try {
      (*body_)(i);
    } catch (...) {
      std::lock_guard lock{mutex_};
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock lock{mutex_};
      work_ready_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    drain_batch();
    {
      std::lock_guard lock{mutex_};
      if (--workers_active_ == 0) batch_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{default_thread_count()};
  return pool;
}

std::size_t ThreadPool::default_thread_count() noexcept {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const char* env = std::getenv("NETADV_THREADS");
  if (env == nullptr) return hw;
  const std::optional<std::uint64_t> parsed = parse_unsigned(env);
  if (parsed && *parsed > kMaxThreads) {
    log_warn("NETADV_THREADS=%s exceeds the %zu-lane limit; using %zu", env,
             kMaxThreads, kMaxThreads);
    return kMaxThreads;
  }
  if (!parsed || *parsed == 0) {
    log_warn(
        "NETADV_THREADS='%s' is not a positive integer; using the hardware "
        "count %zu",
        env, hw);
    return hw;
  }
  return static_cast<std::size_t>(*parsed);
}

}  // namespace netadv::util
