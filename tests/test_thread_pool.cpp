// Tests for the deterministic work pool: full index coverage, disjoint
// writes, nesting, exception propagation, resize semantics, and the
// spin-then-park hand-off (workers spin about 1 ms after a loop, then
// park on the condition variable).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace nora::util {
namespace {

TEST(ThreadPool, SequentialWidthRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));  // no races at width 1
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::int64_t n : {1, 2, 3, 7, 100, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPool, GrainChunksStillCoverEverything) {
  ThreadPool pool(3);
  const std::int64_t n = 997;  // prime: never divides evenly into chunks
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(
      n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      /*grain=*/64);
  std::int64_t total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, n);
}

TEST(ThreadPool, DisjointWritesProduceExactResult) {
  ThreadPool pool(4);
  const std::int64_t n = 5000;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  pool.parallel_for(n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = i * i;
  });
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(4);
  const std::int64_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(outer * inner));
  pool.parallel_for(outer, [&](std::int64_t i) {
    pool.parallel_for(inner, [&](std::int64_t j) {
      hits[static_cast<std::size_t>(i * inner + j)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t i) {
                          if (i == 37) throw std::runtime_error("item 37");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ResizeAndEnsure) {
  // Widths above hardware_concurrency() clamp (a 1-core CI host installs
  // width 1 everywhere), so assert against the clamp, not the request.
  ThreadPool pool(1);
  pool.ensure(3);
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(3));
  pool.ensure(2);  // never shrinks
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(3));
  pool.resize(2);
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(2));
  pool.resize(0);  // clamps to 1 instead of throwing
  EXPECT_EQ(pool.threads(), 1);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, WidthClampsDeterministically) {
  // Non-positive widths clamp to 1 (sequential), both at construction
  // and on resize — a config of "0 threads" must never throw mid-serve.
  ThreadPool zero(0);
  EXPECT_EQ(zero.threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
  // Absurd widths clamp to hardware_concurrency() instead of spawning
  // thousands of OS threads. When hc is unknown (0) the request stands,
  // so only assert the clamp when hc is reported.
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0) {
    ThreadPool huge(1 << 20);
    EXPECT_EQ(huge.threads(), static_cast<int>(hc));
    EXPECT_EQ(ThreadPool::clamp_width(1 << 20), static_cast<int>(hc));
  }
  EXPECT_EQ(ThreadPool::clamp_width(0), 1);
  EXPECT_EQ(ThreadPool::clamp_width(-7), 1);
  EXPECT_EQ(ThreadPool::clamp_width(1), 1);
}

TEST(ThreadPool, CrossPoolNestingDoesNotDeadlock) {
  // A chip pool draining work inside a job running on another pool is
  // exactly the sharded-execution shape: the outer pool's worker blocks
  // in the inner parallel_for but assists the inner job, so no thread
  // ever waits on a queue it alone could serve.
  ThreadPool outer(2);
  ThreadPool chip_a(2);
  ThreadPool chip_b(2);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(2 * 64));
  outer.parallel_for(2, [&](std::int64_t c) {
    ThreadPool& chip = (c == 0) ? chip_a : chip_b;
    chip.parallel_for(64, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(c * 64 + i)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Nested construction inside a running job must also complete.
  outer.parallel_for(2, [&](std::int64_t c) {
    ThreadPool inner(2);
    std::atomic<std::int64_t> sum{0};
    inner.parallel_for(16, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 120) << "chip " << c;
  });
}

// Longer than the pool's spin window, so idle workers are parked (not
// spinning) when the next loop is posted.
constexpr std::chrono::milliseconds kPastSpinWindow{5};

/// Runs one parallel_for and checks every index ran exactly once.
void expect_full_cover(ThreadPool& pool, std::int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, BurstsSeparatedBySleepsParkAndWake) {
  // Each burst is back-to-back loops (the spinning hand-off); the sleep
  // between bursts outlasts the spin window, so every burst's first loop
  // has to wake parked workers.
  ThreadPool pool(4);
  std::atomic<int> on_workers{0};
  const auto caller = std::this_thread::get_id();
  for (int burst = 0; burst < 6; ++burst) {
    for (int loop = 0; loop < 25; ++loop) expect_full_cover(pool, 64);
    // Items that take a while let parked workers wake and claim some.
    pool.parallel_for(8, [&](std::int64_t) {
      if (std::this_thread::get_id() != caller) on_workers.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    std::this_thread::sleep_for(kPastSpinWindow);
  }
  if (ThreadPool::clamp_width(4) > 1) {
    EXPECT_GT(on_workers.load(), 0) << "woken workers should share the work";
  }
}

TEST(ThreadPool, ResizeAndDestroyWhileWorkersSpin) {
  // Resizing or destroying a pool right after a loop catches its workers
  // mid-spin; both must end the spin and join without hanging.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    expect_full_cover(pool, 32);
    pool.resize(2 + round % 3);
    expect_full_cover(pool, 32);
  }
  pool.resize(1);
  expect_full_cover(pool, 8);
  for (int round = 0; round < 20; ++round) {
    auto spinning = std::make_unique<ThreadPool>(3);
    expect_full_cover(*spinning, 16);
    spinning.reset();  // workers are still inside their spin window
  }
  // And after they have parked.
  auto parked = std::make_unique<ThreadPool>(3);
  expect_full_cover(*parked, 16);
  std::this_thread::sleep_for(kPastSpinWindow);
  parked.reset();
}

TEST(ThreadPool, CrossPoolNestingWhileEveryChipPoolSpins) {
  // The sharded-execution shape with every chip pool hot: each round
  // first runs a loop on every chip pool (so their workers are spinning),
  // then fans out from the outer pool into all chips at once. Far more
  // threads than cores end up spinning; progress must not depend on any
  // of them getting a core.
  ThreadPool outer(2);
  std::vector<std::unique_ptr<ThreadPool>> chips;
  for (int c = 0; c < 4; ++c) chips.push_back(std::make_unique<ThreadPool>(3));
  const std::int64_t n_chips = static_cast<std::int64_t>(chips.size());
  const std::int64_t per_chip = 48;
  for (int round = 0; round < 30; ++round) {
    for (auto& chip : chips) expect_full_cover(*chip, 8);
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(n_chips * per_chip));
    outer.parallel_for(n_chips, [&](std::int64_t c) {
      chips[static_cast<std::size_t>(c)]->parallel_for(
          per_chip, [&](std::int64_t i) {
            hits[static_cast<std::size_t>(c * per_chip + i)].fetch_add(1);
          });
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
    if (round % 10 == 9) std::this_thread::sleep_for(kPastSpinWindow);
  }
}

TEST(ThreadPool, ExceptionsPropagateThroughNestingAndParking) {
  ThreadPool pool(4);
  // From an inner loop, through the outer loop, to the outer caller.
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::int64_t o) {
                                   pool.parallel_for(16, [&](std::int64_t i) {
                                     if (o == 2 && i == 11) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
  expect_full_cover(pool, 100);
  // From a loop posted to parked workers, every item throwing.
  std::this_thread::sleep_for(kPastSpinWindow);
  EXPECT_THROW(pool.parallel_for(
                   64, [&](std::int64_t) { throw std::logic_error("all"); }),
               std::logic_error);
  // The first error wins; the pool stays usable either way.
  std::this_thread::sleep_for(kPastSpinWindow);
  expect_full_cover(pool, 100);
}

TEST(ThreadPool, GlobalSingletonStartsSequential) {
  EXPECT_GE(ThreadPool::global().threads(), 1);
}

TEST(ThreadPool, EmptyLoopIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace nora::util
