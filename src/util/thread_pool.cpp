#include "util/thread_pool.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace nora::util {

namespace {

using Clock = std::chrono::steady_clock;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Threads spinning right now, across every pool in the process. A spin
// only pays while the spinner has a core to itself, so a thread that
// would push the count past the host's width minus one (the core left
// for the thread doing the serial work) parks at once instead: many
// chip pools on a small host degrade to park-only pools rather than to
// pools' worth of busy-waiting that competes with the working threads.
std::atomic<int> g_spinners{0};

int spin_budget() {
  static const int budget = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? static_cast<int>(hc) - 1 : 0;
  }();
  return budget;
}

/// Spin until ready() holds or `window` has passed; returns ready().
/// The window is checked on the clock every 64 pauses, and each check
/// yields, so an oversubscribed core still reaches its runnable threads.
template <class Ready>
bool spin_until(const Ready& ready, std::chrono::microseconds window) {
  if (g_spinners.fetch_add(1, std::memory_order_relaxed) >= spin_budget()) {
    g_spinners.fetch_sub(1, std::memory_order_relaxed);
    return ready();
  }
  const Clock::time_point deadline = Clock::now() + window;
  bool ok = false;
  for (;;) {
    for (int i = 0; i < 64 && !(ok = ready()); ++i) cpu_relax();
    if (ok || Clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  g_spinners.fetch_sub(1, std::memory_order_relaxed);
  return ok || ready();
}

}  // namespace

ThreadPool::ThreadPool(int threads) { resize(threads); }

ThreadPool::~ThreadPool() { resize(1); }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(1);
  return pool;
}

int ThreadPool::clamp_width(int threads) {
  // Deterministic clamp instead of throwing: per-chip pool domains size
  // themselves from config knobs (chips x threads_per_chip) that may ask
  // for 0 or for more than the host offers. 0 / negative degrade to the
  // sequential width; requests beyond hardware_concurrency() clamp to it
  // so N chip pools never oversubscribe the host N-fold. When the host
  // cannot report its width (hardware_concurrency() == 0) the requested
  // width is honored as-is — there is nothing to clamp against.
  if (threads < 1) return 1;
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0 && threads > static_cast<int>(hc)) return static_cast<int>(hc);
  return threads;
}

void ThreadPool::resize(int threads) {
  threads = clamp_width(threads);
  const std::size_t want_workers = static_cast<std::size_t>(threads - 1);
  if (want_workers == workers_.size()) {
    n_threads_.store(threads, std::memory_order_relaxed);
    return;
  }
  // Quiesce the current crew. Callers guarantee no parallel_for is in
  // flight, so jobs_ is empty and workers are spinning or parked.
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
    posted_.fetch_add(1, std::memory_order_release);  // ends every spin
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = false;
  }
  workers_.reserve(want_workers);
  for (std::size_t i = 0; i < want_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  n_threads_.store(threads, std::memory_order_relaxed);
}

void ThreadPool::ensure(int threads) {
  if (threads > this->threads()) resize(threads);
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Read the post counter before looking at the list: a job posted
    // after this read changes the counter, one posted before it is in
    // the list, so the spin below cannot miss it.
    const std::uint64_t seen = posted_.load(std::memory_order_acquire);
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stop_) return;
      // Newest first: unblocks nested loops fastest.
      if (!jobs_.empty()) job = jobs_.back();
    }
    if (job) {
      assist(*job);
      remove_job(job);
      continue;
    }
    const auto posted = [&] {
      return posted_.load(std::memory_order_acquire) != seen;
    };
    if (spin_until(posted, kSpinWindow)) continue;
    std::unique_lock<std::mutex> lk(m_);
    ++parked_workers_;
    cv_work_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
    --parked_workers_;
  }
}

void ThreadPool::assist(Job& job) {
  for (;;) {
    const std::int64_t begin =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::int64_t end = std::min(job.n, begin + job.grain);
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        for (std::int64_t i = begin; i < end; ++i) (*job.fn)(i);
      } catch (...) {
        bool expected = false;
        if (job.failed.compare_exchange_strong(expected, true)) {
          job.error = std::current_exception();
        }
      }
    }
    if (job.done.fetch_add(end - begin, std::memory_order_acq_rel) +
            (end - begin) ==
        job.n) {
      std::lock_guard<std::mutex> lk(m_);
      if (parked_callers_ > 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::remove_job(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lk(m_);
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn,
                              std::int64_t grain) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n == 1 || threads() <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = grain;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    jobs_.push_back(job);
    posted_.fetch_add(1, std::memory_order_release);
    wake = parked_workers_ > 0;  // spinning workers see posted_ change
  }
  if (wake) cv_work_.notify_all();
  assist(*job);  // the caller always helps drain its own job
  const auto finished = [&] {
    return job->done.load(std::memory_order_acquire) >= job->n;
  };
  if (!spin_until(finished, kSpinWindow)) {
    std::unique_lock<std::mutex> lk(m_);
    ++parked_callers_;
    cv_done_.wait(lk, finished);
    --parked_callers_;
  }
  remove_job(job);
  if (job->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(job->error);
  }
}

}  // namespace nora::util
