// The persistent work-stealing executor (docs/executor.md): lazy
// start, task handles, helping joins, parallel_for coverage (lanes,
// stop after a failure, lowest-index error), telemetry accounting, and an 8-thread steal storm for the
// TSan lane. Fresh Executor instances throughout -- the global() pool
// is shared process-wide and other suites may have warmed it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "jfm/support/executor.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::support::executor {
namespace {

namespace telemetry = support::telemetry;

std::uint64_t counter_value(const char* name) {
  auto snapshot = telemetry::Registry::global().snapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ExecutorTest, StartsLazilyOnFirstSubmit) {
  Executor exec(2);
  EXPECT_EQ(exec.workers(), 2u);
  EXPECT_FALSE(exec.started());  // construction spawns nothing
  std::atomic<bool> ran{false};
  auto h = exec.submit([&]() { ran.store(true); });
  EXPECT_TRUE(exec.started());
  exec.help_until(h);
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(h.done());
}

TEST(ExecutorTest, DefaultHandleIsInvalid) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
}

TEST(ExecutorTest, GlobalIsASingleton) {
  EXPECT_EQ(&Executor::global(), &Executor::global());
  EXPECT_GE(Executor::global().workers(), 1u);
}

TEST(ExecutorTest, DefaultWorkerCountHonorsEnvOverride) {
  ::setenv("JFM_WORKERS", "3", 1);
  EXPECT_EQ(Executor::default_worker_count(), 3u);
  ::setenv("JFM_WORKERS", "0", 1);  // out of range -> ignored
  EXPECT_GE(Executor::default_worker_count(), 8u);
  ::setenv("JFM_WORKERS", "9999", 1);  // clamped down
  EXPECT_EQ(Executor::default_worker_count(), 64u);
  ::unsetenv("JFM_WORKERS");
  EXPECT_GE(Executor::default_worker_count(), 8u);
}

TEST(ExecutorTest, WaitBlocksUntilDone) {
  Executor exec(2);
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(exec.submit([&]() { ran.fetch_add(1); }));
  }
  for (auto& h : handles) h.wait();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ExecutorTest, HelpUntilDrainsOwnSubmissionsOnASaturatedPool) {
  // One worker, and its only queued task blocks until the MAIN thread
  // has finished helping a second task through: if help_until merely
  // slept, this would deadlock.
  Executor exec(1);
  std::atomic<bool> helped{false};
  auto gate = exec.submit([&]() {
    while (!helped.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  auto h = exec.submit([&]() { helped.store(true, std::memory_order_release); });
  exec.help_until(h);  // must execute the task itself
  EXPECT_TRUE(h.done());
  exec.help_until(gate);
  EXPECT_TRUE(gate.done());
}

TEST(ExecutorTest, ParallelForInlineInIndexOrderWhenSingleLane) {
  Executor exec(4);
  std::vector<std::size_t> order;
  ASSERT_TRUE(exec.parallel_for(5, 1, [&](std::size_t i) -> Status {
                    order.push_back(i);
                    return {};
                  }).ok());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(exec.started());  // one lane never touches the pool
}

TEST(ExecutorTest, ParallelForSubmitsOneTaskPerExtraLane) {
  Executor exec(4);
  const std::uint64_t before = counter_value("executor.task.submitted.count");
  std::set<std::thread::id> tids;
  std::mutex mu;
  ASSERT_TRUE(exec.parallel_for(64, 6, [&](std::size_t) -> Status {
                    std::lock_guard<std::mutex> lock(mu);
                    tids.insert(std::this_thread::get_id());
                    return {};
                  }).ok());
  EXPECT_EQ(counter_value("executor.task.submitted.count") - before, 5u);
  // the calling thread ran one of the lanes itself
  EXPECT_TRUE(tids.count(std::this_thread::get_id()) == 1);
}

TEST(ExecutorTest, SingleLaneStopsAtTheFirstFailure) {
  Executor exec(4);
  std::vector<std::size_t> ran;
  auto st = exec.parallel_for(10, 1, [&](std::size_t i) -> Status {
    ran.push_back(i);
    if (i == 3 || i == 6) return fail(Errc::io_error, "item " + std::to_string(i));
    return {};
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().message, "item 3");
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ExecutorTest, LanesStopPullingAfterAFailureAndReportTheLowestIndex) {
  Executor exec(4);
  constexpr std::size_t kN = 4000;
  std::atomic<std::size_t> ran{0};
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  auto st = exec.parallel_for(kN, 4, [&](std::size_t i) -> Status {
    ran.fetch_add(1);
    hits[i].fetch_add(1);
    if (i == 7 || i == 9) return fail(Errc::io_error, "item " + std::to_string(i));
    return {};
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().message, "item 7");
  // Every index below the failure ran exactly once; once index 7
  // failed, each lane pulls at most the one index it was already on.
  for (std::size_t i = 0; i <= 7; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_LT(ran.load(), kN);
}

TEST(ExecutorTest, ParallelForCoversEveryIndexExactlyOnce) {
  Executor exec(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ASSERT_TRUE(exec.parallel_for(kN, 8, [&](std::size_t i) -> Status {
                    hits[i].fetch_add(1);
                    return {};
                  }).ok());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, ParallelForZeroAndOneItemEdgeCases) {
  Executor exec(2);
  int calls = 0;
  EXPECT_TRUE(exec.parallel_for(0, 8, [&](std::size_t) -> Status {
                    ++calls;
                    return {};
                  }).ok());
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(exec.parallel_for(1, 8, [&](std::size_t i) -> Status {
                    EXPECT_EQ(i, 0u);
                    ++calls;
                    return {};
                  }).ok());
  EXPECT_EQ(calls, 1);
}

TEST(ExecutorTest, TelemetryCountsSubmittedEqualsCompleted) {
  const std::uint64_t submitted_before = counter_value("executor.task.submitted.count");
  const std::uint64_t completed_before = counter_value("executor.task.completed.count");
  {
    Executor exec(3);
    std::atomic<int> ran{0};
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 40; ++i) handles.push_back(exec.submit([&]() { ran.fetch_add(1); }));
    for (auto& h : handles) exec.help_until(h);
    EXPECT_EQ(ran.load(), 40);
  }  // destructor drains; nothing may be lost
  const std::uint64_t submitted = counter_value("executor.task.submitted.count");
  const std::uint64_t completed = counter_value("executor.task.completed.count");
  EXPECT_GE(submitted - submitted_before, 40u);
  EXPECT_EQ(submitted - submitted_before, completed - completed_before);
}

TEST(ExecutorTest, DestructorRunsEveryTaskSubmittedBeforeStop) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    Executor exec(4);
    for (int i = 0; i < kTasks; ++i) (void)exec.submit([&]() { ran.fetch_add(1); });
  }  // ~Executor joins workers and drains leftovers on this thread
  EXPECT_EQ(ran.load(), kTasks);
}

// The TSan centerpiece: 8 external threads hammer one 8-worker pool
// with interleaved submits, helping joins and nested parallel_fors,
// forcing cross-lane steals the whole way.
TEST(ExecutorTest, StealStormIsRaceFreeAndLosesNothing) {
  Executor exec(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  constexpr int kTasksPerRound = 16;
  std::atomic<std::uint64_t> sum{0};

  auto storm = [&](int id) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<TaskHandle> handles;
      for (int t = 0; t < kTasksPerRound; ++t) {
        const std::uint64_t value =
            static_cast<std::uint64_t>(id) * 1000003u + static_cast<std::uint64_t>(t);
        handles.push_back(exec.submit([&sum, value]() {
          sum.fetch_add(value, std::memory_order_relaxed);
        }));
      }
      // odd rounds help (stealing whatever is queued), even rounds
      // sleep-wait: both join paths must be clean under contention
      for (auto& h : handles) {
        if (round % 2 == 1) {
          exec.help_until(h);
        } else {
          h.wait();
        }
      }
      (void)exec.parallel_for(8, 4, [&](std::size_t i) -> Status {
        sum.fetch_add(i, std::memory_order_relaxed);
        return {};
      });
    }
  };

  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) threads.emplace_back(storm, id);
  for (auto& t : threads) t.join();

  std::uint64_t expected = 0;
  for (int id = 0; id < kThreads; ++id) {
    for (int round = 0; round < kRounds; ++round) {
      for (int t = 0; t < kTasksPerRound; ++t) {
        expected += static_cast<std::uint64_t>(id) * 1000003u + static_cast<std::uint64_t>(t);
      }
      expected += 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace jfm::support::executor
