#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace turb {

namespace {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("TURBFNO_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Explicit width requested via set_global_threads (0 = not requested) and
// whether the global pool has been materialised (after which a request is a
// caller error — the workers are already running).
std::atomic<std::size_t> g_requested_threads{0};
std::atomic<bool> g_global_created{false};

// Innermost Scope override on this thread (nullptr = use the global pool).
thread_local ThreadPool* t_scope_pool = nullptr;

// Depth of parallel_for bodies executing on this thread. Non-zero means a
// nested parallel_for must run serially (single-task pool → deadlock) and,
// by design, always does — so a kernel's numeric result never depends on
// whether it was reached from inside another parallel region.
thread_local int t_parallel_depth = 0;

struct ParallelRegionGuard {
  ParallelRegionGuard() noexcept { ++t_parallel_depth; }
  ~ParallelRegionGuard() { --t_parallel_depth; }
};

// Pool this thread is a worker of (a thread belongs to at most one pool)
// and its 1-based slot inside it; external threads stay at {nullptr, 0}.
thread_local const ThreadPool* t_worker_pool = nullptr;
thread_local std::size_t t_worker_slot = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  // The calling thread participates in every parallel_for, so spawn one
  // fewer worker than the requested parallel width.
  const std::size_t workers = num_threads > 0 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task(Task& task) {
  ParallelRegionGuard region;
  while (true) {
    const index_t i = task.next.fetch_add(task.chunk, std::memory_order_relaxed);
    if (i >= task.end) break;
    const index_t chunk_end = std::min<index_t>(i + task.chunk, task.end);
    try {
      task.invoke(task.ctx, i, chunk_end);
    } catch (...) {
      std::lock_guard lock(task.error_mutex);
      if (!task.error) task.error = std::current_exception();
    }
    task.remaining.fetch_sub(chunk_end - i, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop(std::size_t slot) {
  t_worker_pool = this;
  t_worker_slot = slot;
  std::size_t seen_generation = 0;
  while (true) {
    Task* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      task = current_;
      ++active_;
    }
    run_task(*task);
    {
      std::lock_guard lock(mutex_);
      --active_;
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::parallel_for_chunked(
    index_t begin, index_t end,
    const std::function<void(index_t, index_t)>& body) {
  parallel_for_chunked(
      begin, end,
      [](void* ctx, index_t b, index_t e) {
        (*static_cast<const std::function<void(index_t, index_t)>*>(ctx))(b,
                                                                          e);
      },
      const_cast<void*>(static_cast<const void*>(&body)));
}

void ThreadPool::parallel_for_chunked(index_t begin, index_t end,
                                      void (*fn)(void*, index_t, index_t),
                                      void* ctx) {
  if (begin >= end) return;
  const index_t n = end - begin;
  if (workers_.empty() || n == 1 || t_parallel_depth > 0) {
    // Serial path: no workers, a single index, or a nested region. Mark the
    // region anyway so nesting depth behaves identically at every width.
    ParallelRegionGuard region;
    fn(ctx, begin, end);
    return;
  }

  Task task;
  task.invoke = fn;
  task.ctx = ctx;
  task.begin = begin;
  task.end = end;
  // ~4 chunks per thread for load balance without excessive contention.
  const index_t target_chunks = static_cast<index_t>(size()) * 4;
  task.chunk = std::max<index_t>(1, n / target_chunks);
  task.next.store(begin, std::memory_order_relaxed);
  task.remaining.store(n, std::memory_order_relaxed);

  {
    std::lock_guard lock(mutex_);
    current_ = &task;
    ++generation_;
  }
  cv_work_.notify_all();
  run_task(task);

  {
    // Wait until every index is processed AND no worker still holds a
    // reference to the stack-allocated task.
    std::unique_lock lock(mutex_);
    current_ = nullptr;
    cv_done_.wait(lock, [&] {
      return active_ == 0 &&
             task.remaining.load(std::memory_order_acquire) <= 0;
    });
  }
  if (task.error) std::rethrow_exception(task.error);
}

void ThreadPool::parallel_for(index_t begin, index_t end,
                              const std::function<void(index_t)>& body) {
  const std::function<void(index_t, index_t)> chunked =
      [&body](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) body(i);
      };
  parallel_for_chunked(begin, end, chunked);
}

std::size_t ThreadPool::scratch_slot() const {
  return t_worker_pool == this ? t_worker_slot : 0;
}

ThreadPool& ThreadPool::global() {
  g_global_created.store(true, std::memory_order_release);
  static ThreadPool pool(g_requested_threads.load(std::memory_order_acquire));
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_scope_pool != nullptr ? *t_scope_pool : global();
}

bool ThreadPool::in_parallel_region() noexcept { return t_parallel_depth > 0; }

ThreadPool::Scope::Scope(std::size_t num_threads)
    : owned_(std::make_unique<ThreadPool>(num_threads)),
      previous_(t_scope_pool) {
  t_scope_pool = owned_.get();
}

ThreadPool::Scope::Scope(ThreadPool& pool) : previous_(t_scope_pool) {
  t_scope_pool = &pool;
}

ThreadPool::Scope::~Scope() { t_scope_pool = previous_; }

void set_global_threads(std::size_t num_threads) {
  TURB_CHECK_MSG(num_threads >= 1, "set_global_threads: need >= 1 thread");
  TURB_CHECK_MSG(!g_global_created.load(std::memory_order_acquire),
                 "set_global_threads must run before the global pool is "
                 "first used (its workers cannot be resized)");
  g_requested_threads.store(num_threads, std::memory_order_release);
}

void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t)>& body) {
  ThreadPool::current().parallel_for(begin, end, body);
}

index_t slab_count(index_t begin, index_t end, index_t slots) {
  if (end <= begin) return 0;
  return std::min<index_t>(slots, end - begin);
}

void parallel_for_slabs(
    index_t begin, index_t end, index_t slots,
    const std::function<void(index_t, index_t, index_t)>& body) {
  const index_t slabs = slab_count(begin, end, slots);
  if (slabs <= 0) return;
  const index_t n = end - begin;
  const index_t q = n / slabs;
  const index_t r = n % slabs;
  // Slab s covers q indices (q+1 for the first r slabs) — a function of
  // (n, slots) only, so the reduction tree built on top of it is identical
  // at every pool width.
  parallel_for(0, slabs, [&](index_t s) {
    const index_t b = begin + s * q + std::min<index_t>(s, r);
    const index_t e = b + q + (s < r ? 1 : 0);
    body(s, b, e);
  });
}

}  // namespace turb
