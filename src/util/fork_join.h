// ForkJoinPool: a fixed set of worker threads that, together with the
// calling thread, run indexed batches.
//
// run(count, fn) calls fn(index, worker) exactly once for every index in
// [0, count) and returns when every call has finished. Indices are claimed
// from one atomic counter, so which thread runs which index is unspecified;
// `worker` names the thread running the call (0 = the caller, 1..threads()-1
// = the pool's own threads), so a caller can keep per-thread scratch — one
// EvalContext per worker, say — indexed by it without locking. Callers that
// need a deterministic result write each index's output to its own slot
// and combine the slots in index order after run() returns.
//
// Between batches the workers spin briefly, then sleep on a C++20
// atomic::wait, so back-to-back batches start without a syscall while an
// idle pool does not burn an oversubscribed host.
//
// An exception thrown by fn does not cut the batch short: every index still
// runs, and run() rethrows the exception of the lowest throwing index after
// the join. The destructor wakes and joins every worker, so no thread
// outlives the pool on any exit path. One pool serves one calling thread at
// a time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ides {

class ForkJoinPool {
 public:
  /// `threads` counts the caller: threads - 1 workers are started. 0 or 1
  /// start none, and every batch then runs inline on the calling thread.
  explicit ForkJoinPool(int threads);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Threads that run batches, the caller included (>= 1).
  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Calls fn(index, worker) once for every index in [0, count); see the
  /// file comment for the threading and exception contract.
  template <class Fn>
  void run(std::size_t count, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    runErased(
        count,
        [](void* f, std::size_t index, int worker) {
          (*static_cast<F*>(f))(index, worker);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  using Thunk = void (*)(void*, std::size_t, int);

  void runErased(std::size_t count, Thunk thunk, void* fn);
  /// Claims and runs indices of the current batch until none is left.
  void work(int worker);
  void workerLoop(int worker);
  /// Wakes every worker with the stop flag set and joins it.
  void stopWorkers();

  std::vector<std::thread> workers_;

  // The current batch. Written by the caller before it publishes the batch
  // (release increment of generation_), read by workers after they observe
  // the new generation (acquire).
  std::size_t count_ = 0;
  Thunk thunk_ = nullptr;
  void* fn_ = nullptr;
  std::atomic<std::size_t> next_{0};
  /// Bumped once per batch, and once more to stop the workers.
  std::atomic<std::uint32_t> generation_{0};
  /// Workers that have not yet finished the current batch.
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> stopping_{false};

  std::mutex errorMutex_;
  std::exception_ptr error_;
  std::size_t errorIndex_ = 0;
};

}  // namespace ides
