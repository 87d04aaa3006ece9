// A small shared-counter work pool for deterministic parallel loops.
//
// Design constraints (see DESIGN.md "Threading & RNG streams"):
//   - Work items must produce bit-identical results for ANY thread count,
//     including 1. The pool therefore never decides *what* a work item
//     computes — callers key all randomness and write disjoint outputs;
//     the pool only decides *who* runs each item.
//   - parallel_for must be safely nestable (a worker executing an item
//     may itself call parallel_for): the claiming thread always helps
//     drain its own job, so an inner loop completes even when every
//     other worker is busy.
//   - With zero workers (the default) parallel_for degrades to a plain
//     sequential loop with no synchronization, so single-threaded runs
//     pay nothing and stay on the exact same code path.
//   - Fork/join is spin-then-park: an idle worker spins on the posted-job
//     counter for kSpinWindow before it parks on the condition variable,
//     and the caller spins on its job's done count before it waits, so
//     the back-to-back loops of a decode step hand off without a futex
//     round trip. A notify is sent only when a thread is parked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nora::util {

class ThreadPool {
 public:
  /// threads counts the calling thread too: ThreadPool(4) spawns 3
  /// workers and expects the caller to participate in parallel_for.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width, including the calling thread (>= 1).
  int threads() const { return n_threads_.load(std::memory_order_relaxed); }

  /// Set the execution width exactly (joins or spawns workers). Must not
  /// be called concurrently with an in-flight parallel_for. Out-of-range
  /// requests clamp deterministically (see clamp_width) instead of
  /// throwing or oversubscribing.
  void resize(int threads);
  /// Grow to at least `clamp_width(threads)`; never shrinks.
  void ensure(int threads);

  /// The width resize(threads) would actually install: requests < 1
  /// clamp to 1; requests above hardware_concurrency() clamp to it
  /// (when the host reports one). Pure function of (threads, host).
  static int clamp_width(int threads);

  /// Run fn(0) .. fn(n-1), distributing indices over the pool in chunks
  /// of `grain`. Blocks until every index has completed. The first
  /// exception thrown by any item is rethrown here (remaining items are
  /// skipped, already-claimed ones still finish). fn must write only
  /// per-index-disjoint state; execution order is unspecified.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                    std::int64_t grain = 1);

  /// The process-wide pool. Starts at width 1 (purely sequential);
  /// benches and deployment plumbing size it via resize()/ensure().
  static ThreadPool& global();

 private:
  struct Job {
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t n = 0;
    std::int64_t grain = 1;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once by the failed CAS winner
  };

  /// How long an idle worker (or a caller waiting for its job) spins
  /// before it parks: long enough to bridge the gaps between the
  /// parallel loops of one decode step, short enough that an idle pool
  /// gives its cores back within a millisecond.
  static constexpr std::chrono::microseconds kSpinWindow{1000};

  void worker_loop();
  /// Claim and run chunks of `job` until none are left.
  void assist(Job& job);
  void remove_job(const std::shared_ptr<Job>& job);

  mutable std::mutex m_;
  std::condition_variable cv_work_;  // workers: new job available / stop
  std::condition_variable cv_done_;  // callers: a job finished
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Job>> jobs_;  // active jobs, newest assisted first
  std::atomic<int> n_threads_{1};
  // Bumped (under m_) on every job post and on stop: spinning workers
  // watch it instead of the lock-guarded job list.
  std::atomic<std::uint64_t> posted_{0};
  int parked_workers_ = 0;   // workers blocked on cv_work_ (guarded by m_)
  int parked_callers_ = 0;   // callers blocked on cv_done_ (guarded by m_)
  bool stop_ = false;
};

}  // namespace nora::util
