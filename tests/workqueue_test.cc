// Tests for the lock-free shard scheduling layer and the shard executor
// built on it: exactly-once delivery under concurrent stealing, plan-order
// owner pops, seeded steal-order reproducibility, the contended-steal
// counter, and execute()'s contracts (every index once at any jobs value,
// calling-thread hooks, cache skips, rethrow after the join).  The torture
// tests run real threads so the tsan preset exercises the deque protocol
// directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sched.h"
#include "core/workqueue.h"

namespace ballista::core {
namespace {

TEST(ShardDeque, OwnerPopsAloneDrainEverything) {
  const std::size_t shards = 7;
  ShardDeque dq(shards);
  for (std::size_t i = shards; i-- > 0;) dq.seed(i);
  // Reverse-seeded, bottom-end pops: out comes plan order.
  for (std::size_t i = 0; i < shards; ++i) {
    const auto s = dq.pop();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, i);
  }
  EXPECT_EQ(dq.pop(), std::nullopt);
  EXPECT_EQ(dq.pop(), std::nullopt);  // stays empty
}

TEST(ShardDeque, ThievesAloneDrainEverything) {
  const std::size_t shards = 5;
  ShardDeque dq(shards);
  for (std::size_t i = 0; i < shards; ++i) dq.seed(i);
  bool contended = false;
  // Steals come from the top end: seeding order.
  for (std::size_t i = 0; i < shards; ++i) {
    const auto s = dq.steal(contended);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, i);
  }
  EXPECT_EQ(dq.steal(contended), std::nullopt);
  EXPECT_FALSE(contended);  // empty is not contention
}

TEST(ShardQueue, SingleWorkerSeesExactPlanOrder) {
  const std::size_t shards = 23;
  ShardQueue queue(shards, 1);
  for (std::size_t i = 0; i < shards; ++i) {
    const auto s = queue.next(0);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, i);
  }
  EXPECT_EQ(queue.next(0), std::nullopt);
}

TEST(ShardQueue, OwnerDrainsItsOwnDealInPlanOrderBeforeStealing) {
  ShardQueue queue(12, 3);
  // Worker 1 owns shards 1, 4, 7, 10 and must surface them first, in order.
  for (std::size_t expect : {1u, 4u, 7u, 10u}) {
    const auto s = queue.next(1);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, expect);
  }
  // After that it steals the other workers' shards until the plan is dry.
  std::set<std::size_t> stolen;
  while (const auto s = queue.next(1)) stolen.insert(*s);
  EXPECT_EQ(stolen.size(), 8u);
}

TEST(ShardQueue, StealOrderIsReproducibleForTheSameSeed) {
  const auto drain_as = [](std::size_t shards, unsigned worker,
                           std::uint64_t seed) {
    ShardQueue queue(shards, 4, seed);
    std::vector<std::size_t> order;
    while (const auto s = queue.next(worker)) order.push_back(*s);
    return order;
  };
  const auto a = drain_as(41, 2, 123);
  const auto b = drain_as(41, 2, 123);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 41u);
}

TEST(ShardQueue, TortureEveryShardClaimedExactlyOnce) {
  // N workers hammer one queue; every shard must be claimed by exactly one
  // worker.  Repeated across shapes (fewer shards than workers, uneven
  // deals, large plans) and rounds to shake out interleavings.
  for (const auto& [workers, shards] :
       std::vector<std::pair<unsigned, std::size_t>>{
           {2, 1}, {4, 3}, {4, 64}, {8, 1000}}) {
    for (int round = 0; round < 8; ++round) {
      ShardQueue queue(shards, workers,
                       /*steal_seed=*/0xfeed + round);
      std::vector<std::vector<std::size_t>> claimed(workers);
      std::vector<std::thread> threads;
      std::atomic<unsigned> gate{0};
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          gate.fetch_add(1);
          while (gate.load() < workers) {
          }  // start together: maximize contention
          while (const auto s = queue.next(w)) claimed[w].push_back(*s);
        });
      }
      for (auto& t : threads) t.join();
      std::set<std::size_t> all;
      std::size_t total = 0;
      for (const auto& c : claimed) {
        total += c.size();
        for (std::size_t i : c)
          EXPECT_TRUE(all.insert(i).second)
              << "shard " << i << " claimed twice (workers=" << workers
              << " shards=" << shards << " round=" << round << ")";
      }
      EXPECT_EQ(total, shards);
      EXPECT_EQ(all.size(), shards);
      // Drained queues stay drained for every caller.
      for (unsigned w = 0; w < workers; ++w)
        EXPECT_EQ(queue.next(w), std::nullopt);
    }
  }
}

TEST(ShardQueue, ContendedStealsCountOnlyLostRaces) {
  // Single-threaded drains can never lose a race.
  ShardQueue queue(30, 4);
  while (queue.next(0)) {
  }
  EXPECT_EQ(queue.contended_steals(), 0u);
}

// --- the shard executor ------------------------------------------------------

TEST(ShardExecutor, EveryIndexRunsExactlyOnceAtAnyJobs) {
  for (unsigned jobs = 1; jobs <= 8; ++jobs) {
    for (const std::size_t n : {0u, 1u, 3u, 7u, 100u}) {
      std::vector<std::atomic<int>> runs(n);
      std::atomic<unsigned> max_worker{0};
      ShardTasks tasks;
      tasks.run = [&](unsigned worker, std::size_t i) {
        runs[i].fetch_add(1);
        unsigned seen = max_worker.load();
        while (worker > seen &&
               !max_worker.compare_exchange_weak(seen, worker)) {
        }
      };
      const ExecuteStats stats = execute(n, jobs, tasks);
      EXPECT_EQ(stats.jobs,
                std::max<std::size_t>(1, std::min<std::size_t>(jobs, n)));
      EXPECT_LT(max_worker.load(), stats.jobs);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " jobs=" << jobs << " n=" << n;
    }
  }
}

TEST(ShardExecutor, HooksRunSeriallyOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned jobs : {1u, 4u}) {
    const std::size_t n = 40;
    std::vector<std::atomic<bool>> ran(n);
    std::vector<std::size_t> order;
    bool off_thread = false;
    bool before_run = false;
    ShardTasks tasks;
    tasks.run = [&](unsigned, std::size_t i) {
      // Long enough that every worker gets shards before the caller's own
      // worker could drain the whole queue.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran[i].store(true);
    };
    tasks.done = [&](std::size_t i) {
      if (std::this_thread::get_id() != caller) off_thread = true;
      if (!ran[i].load()) before_run = true;
      order.push_back(i);
    };
    execute(n, jobs, tasks);
    EXPECT_FALSE(off_thread) << "jobs=" << jobs;
    EXPECT_FALSE(before_run) << "jobs=" << jobs;
    ASSERT_EQ(order.size(), n) << "jobs=" << jobs;
    if (jobs == 1) {
      // One deque pops in plan order, and its ring preserves that order.
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
    } else {
      EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), n);
    }
  }
}

TEST(ShardExecutor, CacheHitsSkipBothTheRunAndTheHook) {
  for (const unsigned jobs : {1u, 3u}) {
    const std::size_t n = 20;
    std::vector<std::atomic<int>> runs(n);
    std::vector<int> hooks(n, 0);
    ShardTasks tasks;
    tasks.cached = [](std::size_t i) { return i % 3 == 0; };
    tasks.run = [&](unsigned, std::size_t i) { runs[i].fetch_add(1); };
    tasks.done = [&](std::size_t i) { ++hooks[i]; };
    execute(n, jobs, tasks);
    for (std::size_t i = 0; i < n; ++i) {
      const int want = i % 3 == 0 ? 0 : 1;
      EXPECT_EQ(runs[i].load(), want) << "index " << i << " jobs=" << jobs;
      EXPECT_EQ(hooks[i], want) << "index " << i << " jobs=" << jobs;
    }
  }
}

TEST(ShardExecutor, ThrowingRunIsRethrownAfterTheJoin) {
  for (const unsigned jobs : {1u, 4u}) {
    const std::size_t n = 200;
    std::atomic<int> in_flight{0};
    std::atomic<std::size_t> runs{0};
    ShardTasks tasks;
    tasks.run = [&](unsigned, std::size_t i) {
      in_flight.fetch_add(1);
      runs.fetch_add(1);
      if (i == 5) {
        in_flight.fetch_sub(1);
        throw std::runtime_error("shard 5 failed");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      in_flight.fetch_sub(1);
    };
    tasks.done = [](std::size_t) {};
    EXPECT_THROW(execute(n, jobs, tasks), std::runtime_error)
        << "jobs=" << jobs;
    // Rethrown only after every worker returned: nothing is still running.
    EXPECT_EQ(in_flight.load(), 0) << "jobs=" << jobs;
    // The throw stopped the queue instead of letting the rest run.
    EXPECT_LT(runs.load(), n) << "jobs=" << jobs;
  }
}

TEST(ShardExecutor, ThrowingHookStopsTheQueueAndIsRethrown) {
  for (const unsigned jobs : {1u, 4u}) {
    const std::size_t n = 200;
    std::atomic<int> in_flight{0};
    std::atomic<std::size_t> runs{0};
    int hooks = 0;
    ShardTasks tasks;
    tasks.run = [&](unsigned, std::size_t) {
      in_flight.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      runs.fetch_add(1);
      in_flight.fetch_sub(1);
    };
    tasks.done = [&](std::size_t) {
      ++hooks;
      throw std::runtime_error("log append failed");
    };
    EXPECT_THROW(execute(n, jobs, tasks), std::runtime_error)
        << "jobs=" << jobs;
    EXPECT_EQ(in_flight.load(), 0) << "jobs=" << jobs;
    EXPECT_EQ(hooks, 1) << "no hook call may follow the throwing one";
    EXPECT_LT(runs.load(), n) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace ballista::core
