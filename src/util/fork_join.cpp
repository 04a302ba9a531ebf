#include "util/fork_join.h"

namespace ides {

namespace {

// Spin iterations before a waiting thread falls back to atomic::wait: about
// 0.1 ms of pause instructions on a current x86 core, the order of one
// candidate batch of tabu search at the paper's largest preset, so
// back-to-back batches rarely pay a futex wake-up while an idle pool still
// goes to sleep quickly.
constexpr int kSpinIterations = 4096;

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Blocks until `value` no longer holds `old`; returns the new value.
template <class T>
T awaitChange(const std::atomic<T>& value, T old) {
  T now = value.load(std::memory_order_acquire);
  for (int spin = 0; now == old && spin < kSpinIterations; ++spin) {
    cpuRelax();
    now = value.load(std::memory_order_acquire);
  }
  while (now == old) {
    value.wait(old, std::memory_order_acquire);
    now = value.load(std::memory_order_acquire);
  }
  return now;
}

}  // namespace

ForkJoinPool::ForkJoinPool(int threads) {
  if (threads <= 1) return;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int w = 1; w < threads; ++w) {
      workers_.emplace_back([this, w] { workerLoop(w); });
    }
  } catch (...) {
    stopWorkers();  // the destructor does not run for a throwing constructor
    throw;
  }
}

ForkJoinPool::~ForkJoinPool() { stopWorkers(); }

void ForkJoinPool::stopWorkers() {
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ForkJoinPool::runErased(std::size_t count, Thunk thunk, void* fn) {
  if (count == 0) return;
  count_ = count;
  thunk_ = thunk;
  fn_ = fn;
  error_ = nullptr;
  next_.store(0, std::memory_order_relaxed);
  const bool fork = !workers_.empty() && count > 1;
  if (fork) {
    pending_.store(static_cast<std::uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  work(0);
  if (fork) {
    // Join: every worker checks in once per batch, after its last claim.
    for (std::uint32_t left = pending_.load(std::memory_order_acquire);
         left != 0;) {
      left = awaitChange(pending_, left);
    }
  }
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ForkJoinPool::work(int worker) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < count_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      thunk_(fn_, i, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(errorMutex_);
      if (!error_ || i < errorIndex_) {
        error_ = std::current_exception();
        errorIndex_ = i;
      }
    }
  }
}

void ForkJoinPool::workerLoop(int worker) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = awaitChange(generation_, seen);
    if (stopping_.load(std::memory_order_relaxed)) return;
    work(worker);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace ides
