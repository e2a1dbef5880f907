// Deterministic fork/join parallelism for experiment hot paths.
//
// A ThreadPool owns a fixed set of persistent worker threads and exposes
// parallel_for/parallel_map over an index range. Tasks pull indices from a
// shared atomic counter (dynamic scheduling), but every result is written to
// the slot of its own task index, so reductions happen in task-index order
// and the output of a parallel region is bit-identical regardless of thread
// count or OS scheduling. Combined with per-task RNG streams forked *before*
// dispatch (see fork_streams in util/rng.hpp), this keeps every experiment
// reproducible from a single seed while using all cores.
//
// The calling thread participates in the batch, so ThreadPool{1} (or a pool
// on a single-core machine) degrades to plain sequential execution with no
// synchronization beyond one atomic per index.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace netadv::util {

class ThreadPool {
 public:
  /// `threads` is the total number of execution lanes (workers + the calling
  /// thread); 0 picks default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, including the caller of parallel_for.
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Run body(i) for every i in [0, n); blocks until all complete. The first
  /// exception thrown by any task is rethrown on the calling thread after
  /// the whole batch has drained. Reentrant calls (a task calling
  /// parallel_for on the same pool) run the nested batch inline on the
  /// worker — sequentially, with no extra threads.
  ///
  /// Determinism contract: indices are handed out dynamically, so `body`
  /// must confine its writes to state owned by index i (its own output
  /// slot, its own pre-forked RNG stream, its own workspace). Under that
  /// rule the outcome of a batch is a pure function of the inputs —
  /// bit-identical at 1, 2, or N threads and across OS schedules.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// parallel_for that collects fn(i) into a vector indexed by i — the
  /// ordered reduction used by every deterministic fan-out in netadv. The
  /// result type must be default-constructible (slots are built up front);
  /// fan-outs of non-default-constructible values (e.g. trained PpoAgents)
  /// use parallel_for over a vector of std::optional slots instead.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Process-wide pool sized by the NETADV_THREADS environment variable
  /// (default: hardware concurrency). Benches and the fig pipelines share it
  /// so one knob controls every experiment.
  static ThreadPool& global();

  /// Upper bound on the NETADV_THREADS lane count; larger values are capped.
  static constexpr std::size_t kMaxThreads = 256;

  /// NETADV_THREADS if set to an integer in [1, kMaxThreads], else
  /// std::thread::hardware_concurrency (at least 1). A set but unusable
  /// value logs a warning naming what is used instead: larger counts are
  /// capped at kMaxThreads, anything else falls back to the hardware count.
  static std::size_t default_thread_count() noexcept;

 private:
  void worker_loop();
  void drain_batch() noexcept;

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t batch_size_ = 0;
  std::atomic<std::size_t> next_index_{0};
  std::size_t workers_active_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool in_batch_ = false;
  bool stop_ = false;
};

/// ThreadPool::parallel_for on `pool`, or the same index loop inline on the
/// caller when `pool` is null — the one spelling of "parallel if given a
/// pool" every fan-out uses. Same contract either way: body(i) writes only
/// state owned by index i, so the outcome is identical with or without a
/// pool.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, const Fn& body) {
  if (pool != nullptr) return pool->parallel_for(n, body);
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// ThreadPool::parallel_map over the same null-pool fallback.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace netadv::util
