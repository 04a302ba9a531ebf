// ForkJoinPool: every index of every batch runs exactly once, pools of 0
// or 1 threads run inline on the caller, and a throwing index is rethrown
// after the batch while the pool stays usable.
#include "util/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ides {
namespace {

TEST(ForkJoinPool, EveryIndexRunsExactlyOnceAcrossRepeatedBatches) {
  ForkJoinPool pool(4);
  ASSERT_EQ(pool.threads(), 4);
  for (int batch = 0; batch < 1000; ++batch) {
    const auto count = static_cast<std::size_t>(batch % 17);  // 0 included
    const auto hits = std::make_unique<std::atomic<int>[]>(count);
    std::atomic<int> badWorker{0};
    pool.run(count, [&](std::size_t i, int worker) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (worker < 0 || worker >= 4) badWorker.fetch_add(1);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
    }
    ASSERT_EQ(badWorker.load(), 0) << "batch " << batch;
  }
}

TEST(ForkJoinPool, ZeroOrOneThreadRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {0, 1, -2}) {
    ForkJoinPool pool(threads);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t i, int worker) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ForkJoinPool, WorkerExceptionIsRethrownAfterTheBatch) {
  ForkJoinPool pool(4);
  constexpr std::size_t kCount = 64;
  const auto hits = std::make_unique<std::atomic<int>[]>(kCount);
  const auto batch = [&](std::size_t i, int) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i == 5 || i == 40) throw std::runtime_error(std::to_string(i));
  };
  try {
    pool.run(kCount, batch);
    FAIL() << "the batch's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");  // the lowest throwing index wins
  }
  // The throw cut nothing short: every index ran, the throwing ones too.
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);

  // The pool survives the failed batch.
  std::atomic<int> ran{0};
  pool.run(kCount, [&](std::size_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), static_cast<int>(kCount));
}

TEST(ForkJoinPool, DestructorJoinsIdleAndNeverUsedPools) {
  // Neither a pool that never ran a batch nor one idling after one may
  // hang or leak a thread on destruction.
  { ForkJoinPool unused(3); }
  {
    ForkJoinPool used(3);
    std::atomic<int> ran{0};
    used.run(9, [&](std::size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 9);
  }
}

}  // namespace
}  // namespace ides
