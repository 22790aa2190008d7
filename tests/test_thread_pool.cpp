#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace mvs::util {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForEachCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(64, 0);
  pool.parallel_for_each(hits.size(),
                         [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PartitionedStateIsRaceFree) {
  // Each index owns its slot; sums must be exact (no lost updates).
  ThreadPool pool;
  std::vector<long> slots(200, 0);
  for (int round = 0; round < 10; ++round)
    pool.parallel_for_each(slots.size(), [&](std::size_t i) {
      for (int k = 0; k < 1000; ++k) slots[i] += 1;
    });
  const long total = std::accumulate(slots.begin(), slots.end(), 0L);
  EXPECT_EQ(total, 200L * 10L * 1000L);
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for_each(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for_each(20, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, ZeroSizesFromUsableCpus) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.thread_count(), usable_cpu_count());
}

#ifdef __linux__
TEST(ThreadPool, ZeroSizesFromAffinityMaskWhenPinned) {
  // Pin this thread to one of its CPUs (as taskset would pin a process):
  // the default pool must size to that one CPU, not to the machine.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(usable_cpu_count(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t pinned = usable_cpu_count();
  const std::size_t pinned_pool = ThreadPool(0).thread_count();
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(pinned_pool, 1u);
}
#endif

TEST(ThreadPool, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++counter; });
    pool.wait_idle();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesFromParallelForEach) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_each(16,
                                      [&](std::size_t i) {
                                        ++ran;
                                        if (i == 5)
                                          throw std::runtime_error("task 5");
                                      }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // remaining tasks still ran
  // The pool stays usable and the error does not resurface.
  std::atomic<int> counter{0};
  pool.parallel_for_each(8, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ExceptionPropagatesFromSubmitViaWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  pool.wait_idle();  // cleared after the first rethrow
}

TEST(ThreadPool, RunTilesCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(97, 0);
  pool.run_tiles(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunTilesNestedInsideWorkersDoesNotDeadlock) {
  // Outer per-camera fan-out with inner per-row tiling: every worker may be
  // busy with an outer task, so inner progress must come from the callers.
  ThreadPool pool(4);
  std::vector<std::vector<int>> hits(6, std::vector<int>(32, 0));
  pool.parallel_for_each(hits.size(), [&](std::size_t outer) {
    pool.run_tiles(hits[outer].size(),
                   [&, outer](std::size_t inner) { hits[outer][inner] += 1; });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunTilesNestedWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for_each(3, [&](std::size_t) {
    pool.run_tiles(16, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 3 * 16);
}

TEST(ThreadPool, SharedAcrossConcurrentSessions) {
  // The fleet runtime drives many sessions over ONE pool: each session
  // issues its own parallel_for_each / run_tiles calls concurrently. Every
  // call must cover exactly its own indices with no lost updates.
  ThreadPool pool(4);
  constexpr int kSessions = 6;
  constexpr int kRounds = 25;
  constexpr std::size_t kIndices = 64;
  std::vector<std::vector<long>> slots(
      kSessions, std::vector<long>(kIndices, 0));
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&pool, &slots, s] {
      for (int round = 0; round < kRounds; ++round) {
        if (s % 2 == 0) {
          pool.parallel_for_each(kIndices, [&slots, s](std::size_t i) {
            slots[static_cast<std::size_t>(s)][i] += 1;
          });
        } else {
          pool.run_tiles(kIndices, [&slots, s](std::size_t i) {
            slots[static_cast<std::size_t>(s)][i] += 1;
          });
        }
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  for (const auto& session : slots)
    for (long v : session) EXPECT_EQ(v, kRounds);
}

TEST(ThreadPool, ConcurrentCallersDoNotObserveEachOthersExceptions) {
  // Per-call completion groups: a throwing session must not leak its error
  // into an innocent session's parallel_for_each, nor hang either of them.
  ThreadPool pool(3);
  std::atomic<int> clean_runs{0};
  std::atomic<int> faulty_throws{0};
  std::thread faulty([&] {
    for (int round = 0; round < 50; ++round) {
      try {
        pool.parallel_for_each(16, [](std::size_t i) {
          if (i == 3) throw std::runtime_error("faulty session");
        });
      } catch (const std::runtime_error&) {
        ++faulty_throws;
      }
    }
  });
  std::thread clean([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for_each(16, [&](std::size_t) { ++clean_runs; });
    }
  });
  faulty.join();
  clean.join();
  EXPECT_EQ(faulty_throws.load(), 50);
  EXPECT_EQ(clean_runs.load(), 50 * 16);
}

TEST(ThreadPool, ParallelForEachNestedInsidePoolTasks) {
  // Sessions themselves run as pool tasks in the fleet; their inner
  // per-camera parallel_for_each must make progress even when every worker
  // is occupied by an outer session task (caller participation).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.run_tiles(4, [&](std::size_t) {
    pool.parallel_for_each(8, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPool, RunTilesPropagatesException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_tiles(24,
                              [&](std::size_t i) {
                                ++ran;
                                if (i == 7) throw std::runtime_error("tile 7");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 24);  // all tiles were still claimed and ran
  pool.wait_idle();           // tile errors never leak into the pool state
}

// ------------------------------------------------------- helping joins --
// A run_tiles() caller that runs out of its own tiles runs queued helpers of
// groups at its own nesting level or deeper until its group completes
// (DESIGN.md §11).

/// Spin until `flag` is set or five seconds pass; true when it was set. The
/// deadline turns a join that stopped helping into a failed expectation
/// instead of a hung test.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolHelping, WaitingCallerRunsAnotherGroupsQueuedHelper) {
  // One worker W. Group A (caller: this thread) has one tile on W, held
  // until group B's second tile has run. Group B's caller X holds its first
  // tile until then too, so B's second tile can only run through B's queued
  // helper, and W is busy: the one thread free to run it is this one,
  // waiting in A's join.
  ThreadPool pool(1);
  const std::thread::id main_id = std::this_thread::get_id();
  std::vector<std::thread::id> ran_a(2), ran_b(2);
  std::atomic<bool> a_on_worker{false}, b_on_caller{false}, b1_ran{false};
  std::atomic<bool> main_waited{false}, b1_waited{false};

  std::thread x;
  pool.run_tiles(2, [&](std::size_t i) {
    ran_a[i] = std::this_thread::get_id();
    if (ran_a[i] == main_id) {
      // Leave this tile only when A's other tile is held on W and B's
      // helper is queued (X is inside B's first tile).
      main_waited = await_flag(a_on_worker);
      x = std::thread([&] {
        pool.run_tiles(2, [&](std::size_t j) {
          ran_b[j] = std::this_thread::get_id();
          if (j == 0) {
            b_on_caller.store(true, std::memory_order_release);
            b1_waited = await_flag(b1_ran);
          } else {
            b1_ran.store(true, std::memory_order_release);
          }
        });
      });
      await_flag(b_on_caller);
    } else {
      a_on_worker.store(true, std::memory_order_release);
      await_flag(b1_ran);
    }
  });
  x.join();

  EXPECT_TRUE(main_waited);
  EXPECT_TRUE(b1_waited);
  EXPECT_NE(ran_a[0], ran_a[1]);
  EXPECT_NE(ran_b[0], main_id);
  EXPECT_EQ(ran_b[1], main_id);  // B's helper ran in A's caller's join
}

TEST(ThreadPoolHelping, InnerWaiterLeavesOuterLevelHelpersQueued) {
  // Two workers. This thread's outer group O (level 1) holds its other
  // tile on one worker; inside its own O tile it waits on an inner group I
  // (level 2) whose other tile sleeps on the second worker. Meanwhile
  // caller X queues the helper of its level-1 group Q. The inner waiter
  // must leave that helper queued, since an outer-level task could keep
  // it busy long after I completes; Q's second tile may run only once this
  // thread is back at O's join, or on a worker.
  ThreadPool pool(2);
  const std::thread::id main_id = std::this_thread::get_id();
  std::atomic<bool> o_on_worker{false}, i_on_worker{false}, x_in_q{false};
  std::atomic<bool> q1_ran{false}, inner_done{false};
  std::atomic<bool> q1_ran_in_inner_wait{false};

  std::thread x;
  pool.run_tiles(2, [&](std::size_t) {
    if (std::this_thread::get_id() != main_id) {
      o_on_worker.store(true, std::memory_order_release);
      await_flag(q1_ran);
      return;
    }
    await_flag(o_on_worker);
    pool.run_tiles(2, [&](std::size_t) {
      if (std::this_thread::get_id() != main_id) {
        i_on_worker.store(true, std::memory_order_release);
        await_flag(x_in_q);
        // The window in which this thread's caller waits on I with Q's
        // helper queued.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return;
      }
      await_flag(i_on_worker);
      x = std::thread([&] {
        pool.run_tiles(2, [&](std::size_t j) {
          if (j == 0) {
            x_in_q.store(true, std::memory_order_release);
            await_flag(q1_ran);
          } else {
            if (std::this_thread::get_id() == main_id &&
                !inner_done.load(std::memory_order_acquire))
              q1_ran_in_inner_wait.store(true, std::memory_order_relaxed);
            q1_ran.store(true, std::memory_order_release);
          }
        });
      });
      await_flag(x_in_q);
    });
    inner_done.store(true, std::memory_order_release);
  });
  x.join();

  EXPECT_TRUE(q1_ran.load());
  EXPECT_FALSE(q1_ran_in_inner_wait.load());
}

TEST(ThreadPoolHelping, NestedGroupsKeepTheirOwnExceptionsOnOneWorker) {
  // Two callers share a one-worker pool; every outer tile runs an inner
  // group, some of which throw. Waiters help each other's groups, yet each
  // inner error reaches only the outer tile that started its group, and
  // each outer error only its own caller.
  ThreadPool pool(1);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 12;
  constexpr int kRounds = 20;
  auto drive = [&pool](int caller, std::vector<std::string>& caught,
                       std::atomic<long>& inner_ran) {
    pool.run_tiles(kOuter, [&, caller](std::size_t outer) {
      const std::string tag =
          std::to_string(caller) + "/" + std::to_string(outer);
      try {
        pool.run_tiles(kInner, [&, outer](std::size_t inner) {
          inner_ran.fetch_add(1, std::memory_order_relaxed);
          if (outer % 3 == 0 && inner == outer % kInner)
            throw std::runtime_error(tag);
        });
      } catch (const std::runtime_error& e) {
        caught[outer] = e.what();
      }
      if (outer == kOuter - 1)
        throw std::logic_error("outer " + std::to_string(caller));
    });
  };
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<std::string>> caught(
        2, std::vector<std::string>(kOuter));
    std::vector<std::string> outer_error(2);
    std::atomic<long> inner_ran{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c)
      callers.emplace_back([&, c] {
        try {
          drive(c, caught[static_cast<std::size_t>(c)], inner_ran);
        } catch (const std::logic_error& e) {
          outer_error[static_cast<std::size_t>(c)] = e.what();
        }
      });
    for (std::thread& t : callers) t.join();

    EXPECT_EQ(inner_ran.load(), long{2 * kOuter * kInner});
    for (int c = 0; c < 2; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      EXPECT_EQ(outer_error[cu], "outer " + std::to_string(c));
      for (std::size_t o = 0; o < kOuter; ++o) {
        const std::string want =
            o % 3 == 0 ? std::to_string(c) + "/" + std::to_string(o) : "";
        EXPECT_EQ(caught[cu][o], want) << "round " << round;
      }
    }
  }
  pool.wait_idle();  // group errors never reach the pool-wide error slot
}

// ------------------------------------------------- contention stress tests --
// These hammer the bounded MPMC ring well past its capacity (1024 slots)
// from more producers than consumers, so the full-queue backpressure path
// (spin + eventcount park) and the CAS retry loops all execute. They are
// part of the regular suite and also the payload of the tsan_spotcheck
// target (see tests/CMakeLists.txt).

TEST(ThreadPoolStress, MoreProducersThanConsumersLoseNoTasks) {
  ThreadPool pool(2);  // 2 consumers
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;  // 40k tasks >> 1024-slot ring
  std::atomic<long> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
    });
  for (std::thread& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), long{kProducers} * kPerProducer);
}

TEST(ThreadPoolStress, QueueFullBackpressureBlocksWithoutDropping) {
  // One worker, parked on a gate, while a producer pushes 4x the ring
  // capacity: submit() must apply backpressure (block, not drop or throw)
  // until the gate opens and the worker drains the ring.
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<long> counter{0};
  pool.submit([&gate] {
    while (!gate.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  std::thread producer([&] {
    for (int i = 0; i < 4096; ++i)
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
  });
  // Give the producer time to wedge against the full ring, then open up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.store(true, std::memory_order_release);
  producer.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 4096);
}

TEST(ThreadPoolStress, NestedRunTilesFromEveryWorkerUnderSaturation) {
  // Outer tile count is a multiple of the worker count, so every worker
  // (and the caller) is simultaneously inside run_tiles issuing a nested
  // run_tiles — the deadlock-prone shape for completion-group schemes.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.run_tiles(kOuter, [&](std::size_t outer) {
    pool.run_tiles(kInner,
                   [&hits, outer](std::size_t i) { hits[outer][i] += 1; });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolStress, FleetShapedNestingKeepsPerIndexChecksums) {
  // The fleet's four fan-out levels on one pool: shards, sessions per
  // shard, cameras per session, flow rows per camera. Every waiter at
  // every level helps, so any tile may run on any thread at any depth.
  ThreadPool pool(3);
  constexpr std::size_t kShards = 2, kSessions = 6, kCameras = 4, kRows = 22;
  constexpr std::size_t kSlots = kShards * kSessions * kCameras * kRows;
  constexpr int kRounds = 100;
  std::vector<std::uint64_t> sums(kSlots, 0);
  for (int round = 1; round <= kRounds; ++round) {
    pool.run_tiles(kShards, [&](std::size_t shard) {
      pool.run_tiles(kSessions, [&, shard](std::size_t session) {
        pool.parallel_for_each(kCameras, [&, shard, session](std::size_t cam) {
          pool.run_tiles(kRows, [&, shard, session, cam](std::size_t row) {
            const std::size_t slot =
                ((shard * kSessions + session) * kCameras + cam) * kRows + row;
            sums[slot] += slot * static_cast<std::uint64_t>(round) + 1;
          });
        });
      });
    });
  }
  constexpr std::uint64_t kRoundSum = kRounds * (kRounds + 1) / 2;
  for (std::size_t slot = 0; slot < kSlots; ++slot)
    EXPECT_EQ(sums[slot], slot * kRoundSum + kRounds) << "slot " << slot;
}

TEST(ThreadPoolStress, TaskThrowsDuringSaturationKeepsPoolUsable) {
  // An exception in the middle of a saturated burst must not lose sibling
  // tasks, corrupt ring state, or poison later batches.
  ThreadPool pool(4);
  std::atomic<long> ran{0};
  for (int i = 0; i < 3000; ++i) {
    const bool thrower = (i == 1500);
    pool.submit([&ran, thrower] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (thrower) throw std::runtime_error("mid-burst");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 3000);

  // Pool remains fully functional after the rethrow.
  std::atomic<long> after{0};
  pool.run_tiles(256, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 256);
}

/// Test-side view of one live run_tiles() call: of its n tiles, how many
/// have been claimed (started) and how many have finished. n == 0 marks a
/// slot with no live group.
struct GroupProbe {
  std::atomic<std::size_t> n{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
};

/// A tile of a few microseconds whose length varies with (round, slot), so
/// joins finish in shifting orders; returns a checksum of its work.
std::uint64_t busy_tile(std::uint64_t round, std::uint64_t slot) {
  std::uint64_t x = round * 0x9E3779B97F4A7C15ULL + slot + 1;
  const int spins = 200 + static_cast<int>((x >> 7) % 1200);
  for (int i = 0; i < spins; ++i) x = x * 6364136223846793005ULL + 1;
  return x;
}

TEST(ThreadPoolStress, PipelineShapedJoinsNeverStall) {
  // One S1 frame's shape on the pool: 5 camera tiles, each running its
  // flow rows as three groups of 5, 11 and 22 tiles (pyramid levels,
  // coarse to fine) of a few microseconds each. Every 10th round is a key
  // frame: a 6-tile group whose tile 0 (the plan) fans out again beside
  // the 5 cameras. Every join helps and may sleep, at three nesting
  // levels. A stalled join never returns, so a watchdog ends the process
  // after 10 s without a finished tile, naming the stuck round and every
  // live group's claimed, completed and total tiles.
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 150;  // CI also repeats this suite 20 times
#else
  constexpr int kRounds = 8000;
#endif
  constexpr std::size_t kCameras = 5, kKeyFrameTiles = 6, kPlanFanout = 8;
  constexpr std::array<std::size_t, 3> kLevelRows = {5, 11, 22};
  constexpr std::size_t kRowSlots =
      kLevelRows[0] + kLevelRows[1] + kLevelRows[2];
  // Probe slots: the frame group, each camera's current row group, and
  // the plan's fan-out.
  constexpr std::size_t kPlanProbe = 1 + kCameras;
  const char* const kProbeNames[] = {"frame", "camera 0 rows",
                                     "camera 1 rows", "camera 2 rows",
                                     "camera 3 rows", "camera 4 rows",
                                     "plan fan-out"};

  for (const std::size_t width : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    std::array<GroupProbe, kPlanProbe + 1> probes;
    std::atomic<int> round_now{0};
    std::atomic<std::uint64_t> progress{0};
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::thread watchdog([&] {
      std::unique_lock lock(mu);
      std::uint64_t seen = progress.load();
      auto last = std::chrono::steady_clock::now();
      while (!cv.wait_for(lock, std::chrono::milliseconds(50),
                          [&] { return finished; })) {
        const auto now = std::chrono::steady_clock::now();
        if (const std::uint64_t p = progress.load(); p != seen) {
          seen = p;
          last = now;
          continue;
        }
        if (now - last < std::chrono::seconds(10)) continue;
        std::fprintf(stderr,
                     "PipelineShapedJoinsNeverStall: no tile finished for "
                     "10 s at width %zu, round %d\n",
                     width, round_now.load());
        for (std::size_t i = 0; i < probes.size(); ++i)
          if (const std::size_t n = probes[i].n.load(); n != 0)
            std::fprintf(stderr, "  %s: next %zu, completed %zu, n %zu\n",
                         kProbeNames[i], probes[i].next.load(),
                         probes[i].completed.load(), n);
        std::fflush(stderr);
        std::_Exit(1);
      }
    });

    // Runs fn(i) for i in [0, n) as one group watched through probe.
    ThreadPool pool(width);
    auto watched_tiles = [&](GroupProbe& probe, std::size_t n, auto&& fn) {
      probe.next.store(0);
      probe.completed.store(0);
      probe.n.store(n);
      pool.run_tiles(n, [&](std::size_t i) {
        probe.next.fetch_add(1);
        fn(i);
        probe.completed.fetch_add(1);
        progress.fetch_add(1, std::memory_order_relaxed);
      });
      probe.n.store(0);
    };

    std::vector<std::uint64_t> rows(kCameras * kRowSlots, 0);
    std::vector<std::uint64_t> plan(kPlanFanout, 0);
    std::vector<std::uint64_t> expect_rows(rows.size(), 0);
    std::vector<std::uint64_t> expect_plan(plan.size(), 0);
    auto camera = [&](int round, std::size_t cam) {
      std::size_t base = cam * kRowSlots;
      for (const std::size_t n : kLevelRows) {
        watched_tiles(probes[1 + cam], n, [&, base](std::size_t r) {
          rows[base + r] += busy_tile(static_cast<std::uint64_t>(round),
                                      base + r);
        });
        base += n;
      }
    };
    for (int round = 0; round < kRounds; ++round) {
      round_now.store(round);
      if (round % 10 == 0) {
        watched_tiles(probes[0], kKeyFrameTiles, [&](std::size_t t) {
          if (t != 0) return camera(round, t - 1);
          watched_tiles(probes[kPlanProbe], kPlanFanout, [&](std::size_t i) {
            plan[i] += busy_tile(static_cast<std::uint64_t>(round),
                                 rows.size() + i);
          });
        });
        for (std::size_t i = 0; i < plan.size(); ++i)
          expect_plan[i] +=
              busy_tile(static_cast<std::uint64_t>(round), rows.size() + i);
      } else {
        watched_tiles(probes[0], kCameras,
                      [&](std::size_t cam) { camera(round, cam); });
      }
      for (std::size_t slot = 0; slot < rows.size(); ++slot)
        expect_rows[slot] += busy_tile(static_cast<std::uint64_t>(round), slot);
    }
    {
      std::lock_guard lock(mu);
      finished = true;
    }
    cv.notify_one();
    watchdog.join();
    EXPECT_EQ(rows, expect_rows);
    EXPECT_EQ(plan, expect_plan);
  }
}

}  // namespace
}  // namespace mvs::util
