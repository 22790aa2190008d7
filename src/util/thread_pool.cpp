#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace mvs::util {

std::size_t usable_cpu_count() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {
/// Nesting level of the tile this thread is running; 0 outside any tile.
thread_local std::uint32_t t_depth = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cpu_count();
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::submit(std::function<void()> task) {
  // Cold path by contract (see header): box the callable once.
  auto* holder = new std::function<void()>(std::move(task));
  // Relaxed: the queue push below publishes; this counter only needs to be
  // incremented before the matching finish_task() decrement can run, which
  // the push ordering guarantees.
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  push_task(Task{&run_submitted, holder});
}

void ThreadPool::run_submitted(void* arg) {
  std::unique_ptr<std::function<void()>> fn(
      static_cast<std::function<void()>*>(arg));
  (*fn)();  // may throw: run_task captures into first_error_
}

void ThreadPool::wait_idle() {
  for (;;) {
    // Acquire: pairs with finish_task()'s release decrement, making every
    // completed task's writes visible to the waiter.
    const std::size_t in_flight = in_flight_.load(std::memory_order_acquire);
    if (in_flight == 0) break;
    in_flight_.wait(in_flight, std::memory_order_acquire);
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(error_mu_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

/// Shared state of one run_tiles() call. Recycled through tile_groups_; a
/// reference count (caller + every successfully enqueued helper) keeps the
/// group out of the free list until the last late-dequeued helper — which
/// then finds no tiles left and exits without touching `fn` — has let go.
struct ThreadPool::TileGroup {
  std::atomic<std::size_t> next{0};       ///< tile claim ticket
  std::atomic<std::size_t> completed{0};  ///< tiles fully finished
  std::atomic<std::uint32_t> done{0};     ///< caller's atomic-wait target
  std::atomic<std::uint32_t> refs{0};     ///< recycle gate
  std::size_t n = 0;
  std::uint32_t depth = 0;  ///< nesting level: the caller's t_depth + 1
  void (*invoke)(void*, std::size_t) = nullptr;
  void* fn = nullptr;
  ThreadPool* pool = nullptr;

  std::mutex error_mu;        ///< cold: taken only when a tile throws
  std::exception_ptr error;   ///< guarded by error_mu

  void work() noexcept {
    for (;;) {
      // Relaxed: the ticket only partitions indices; fn(i) touches state
      // owned by i, and completion ordering goes through `completed`.
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const std::uint32_t outer = std::exchange(t_depth, depth);
      try {
        invoke(fn, i);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!error) error = std::current_exception();
      }
      t_depth = outer;
      // Acq_rel: release publishes fn(i)'s writes to whichever thread
      // observes this tile as completed; acquire makes the final increment
      // see every earlier tile's writes before flipping `done`.
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Seq_cst RMW, not a plain release store: notify_all() skips the
        // futex wake when its seq_cst load of the library's waiter count
        // reads 0, and on x86 a plain store may be reordered after that
        // load, so a caller entering its wait in between could miss both
        // the flag and the wake. The RMW is a full barrier on x86 (the same
        // reasoning as sleepers_, DESIGN.md §11). Its release half pairs
        // with the caller's acquire load/wait on `done`.
        done.exchange(1, std::memory_order_seq_cst);
        done.notify_all();
      }
    }
  }
};

// Defined after TileGroup so Pool<TileGroup>'s `delete` sees a complete type.
ThreadPool::~ThreadPool() {
  // Release: pairs with the workers' acquire loads of stopping_; everything
  // pushed before this point is drained before any worker exits.
  stopping_.store(true, std::memory_order_release);
  // Release: a worker whose epoch snapshot or wait observes this bump also
  // sees stopping_. Unlike wake_one() this needs no Dekker pairing, because
  // the bump is unconditional: whichever side of it a worker's snapshot
  // falls, that worker either sees stopping_ or returns from its wait.
  wake_epoch_.fetch_add(1, std::memory_order_release);
  wake_epoch_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::release_group(TileGroup* group) {
  // Acq_rel: the final decrement must observe every other participant's use
  // of the group before the slot is handed back for reuse.
  if (group->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    tile_groups_.release(group);
}

void ThreadPool::run_helper(void* arg) {
  auto* group = static_cast<TileGroup*>(arg);
  group->work();  // late arrival past the group's end: claims nothing, returns
  group->pool->release_group(group);
}

void ThreadPool::run_tiles_erased(std::size_t n,
                                  void (*invoke)(void*, std::size_t),
                                  void* fn) {
  if (n == 0) return;
  TileGroup* group = tile_groups_.acquire();
  // Relaxed init: the ring push below release-publishes the whole group to
  // helpers (their pop acquire-loads the cell), and the caller reads its own
  // writes; no other thread can hold this group (refs reached 0).
  group->next.store(0, std::memory_order_relaxed);
  group->completed.store(0, std::memory_order_relaxed);
  group->done.store(0, std::memory_order_relaxed);
  group->n = n;
  group->depth = t_depth + 1;
  group->invoke = invoke;
  group->fn = fn;
  group->pool = this;
  group->error = nullptr;
  group->refs.store(1, std::memory_order_relaxed);  // caller's reference

  // One helper per worker (bounded by the tile count the caller won't take
  // alone anyway); helpers that arrive late exit immediately. On a full
  // ring the helper is simply skipped — the caller and the already-enqueued
  // helpers cover every tile, so this only sheds parallelism, not work.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    group->refs.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (!queue_.try_push(Task{&run_helper, group, group->depth})) {
      group->refs.fetch_sub(1, std::memory_order_relaxed);
      finish_task();
      break;
    }
    wake_one();
  }

  group->work();
  // The caller ran out of tiles, but helpers may still be finishing theirs.
  // Rather than park, it runs queued helpers of groups at its own nesting
  // level or deeper through the workers' task body. A task from an outer
  // level (a whole session while this waits on one camera's rows) could
  // hold the caller long after its group is done, so it goes back on the
  // queue for a worker. Only a queue with nothing to help, after a brief
  // spin, sends the caller to sleep on `done`.
  int idle_spins = 0;
  Task task;
  // Acquire pairs with the finisher's release store of done.
  while (group->done.load(std::memory_order_acquire) == 0) {
    const bool popped = queue_.try_pop(task);
    if (popped && (task.depth >= group->depth || !queue_.try_push(task))) {
      run_task(task);  // also when the ring refilled and it cannot go back
      idle_spins = 0;
      continue;
    }
    if (popped) wake_one();  // handed back: a parked worker may take it
    if (++idle_spins < 64)
      cpu_relax();
    else
      group->done.wait(0, std::memory_order_acquire);
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(group->error_mu);
    error = std::exchange(group->error, nullptr);
  }
  release_group(group);  // after this the group may be recycled — no access
  if (error) std::rethrow_exception(error);
}

void ThreadPool::push_task(const Task& task) {
  // Backpressure: the ring is bounded; spin briefly, then yield, until a
  // slot frees up. Only submit() reaches this (helpers use try_push).
  int spins = 0;
  while (!queue_.try_push(task)) {
    if (++spins < 64)
      cpu_relax();
    else
      std::this_thread::yield();
  }
  wake_one();
}

bool ThreadPool::pop_task(Task& out) {
  for (;;) {
    // Fast path: spin briefly before committing to sleep.
    for (int spin = 0; spin < 64; ++spin) {
      if (queue_.try_pop(out)) return true;
      cpu_relax();
    }
    // Acquire: pairs with the destructor's release store.
    if (stopping_.load(std::memory_order_acquire)) {
      if (queue_.try_pop(out)) return true;  // drain before exiting
      // Acquire: pairs with finish_task's release decrement. in_flight_ > 0
      // means a task is mid-push or mid-run; keep draining so no queued
      // work is abandoned (matches the old mutex queue's semantics).
      if (in_flight_.load(std::memory_order_acquire) == 0) return false;
      std::this_thread::yield();
      continue;
    }
    // ---- eventcount sleep (see header + DESIGN.md §11) ----
    // Snapshot the epoch BEFORE announcing sleep: any wake issued after the
    // announcement bumps the epoch and the wait below returns immediately.
    const std::uint32_t epoch = wake_epoch_.load(std::memory_order_acquire);
    // Seq_cst RMW: the sleeper's half of the Dekker pairing in wake_one().
    // Either our re-poll below sees the producer's push, or the producer's
    // sleeper probe sees our announcement — never neither.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (queue_.try_pop(out)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // re-enter the drain path above
    }
    // Futex slow path: returns when wake_epoch_ != epoch (or spuriously;
    // the outer loop re-polls either way).
    wake_epoch_.wait(epoch, std::memory_order_acquire);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::wake_one() {
  // The producer's half of the Dekker pairing: a seq_cst RMW (a probe that
  // adds 0) after the push, against the sleeper's seq_cst fetch_add(1) in
  // pop_task(). Both are read-modify-writes on sleepers_, which
  // ThreadSanitizer models (it does not model a standalone fence). Every
  // write to sleepers_ is an RMW, so each one continues the release
  // sequence of every earlier one, and whichever of the two comes first in
  // sleepers_'s modification order synchronizes with the other:
  //  - probe first: the push happens before the sleeper's announcement, and
  //    so before its re-poll, which finds the task (unless another worker
  //    already took it);
  //  - announcement first: the probe reads a count that includes this
  //    sleeper (unless it has already left its wait), so it bumps the epoch
  //    and notifies; the sleeper's epoch snapshot happens before the probe,
  //    so it holds the old epoch and its wait returns.
  if (sleepers_.fetch_add(0, std::memory_order_seq_cst) != 0) {
    // Release: the woken worker's acquire epoch load orders its re-poll
    // after the push.
    wake_epoch_.fetch_add(1, std::memory_order_release);
    wake_epoch_.notify_one();
  }
}

void ThreadPool::finish_task() {
  // Acq_rel: release publishes the finished task's writes to wait_idle()'s
  // acquire load; acquire orders the notify against prior decrements.
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    in_flight_.notify_all();
}

void ThreadPool::run_task(const Task& task) {
  try {
    task.fn(task.arg);
  } catch (...) {
    // Only submit() tasks can throw (tile helpers capture per-group).
    std::lock_guard lock(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  finish_task();
}

void ThreadPool::worker_loop() {
  Task task;
  while (pop_task(task)) run_task(task);
}

}  // namespace mvs::util
