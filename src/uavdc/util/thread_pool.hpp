#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "uavdc/util/check.hpp"

namespace uavdc::util {

/// Fixed-size worker pool. The planners use it to score candidate hovering
/// locations in parallel and the bench harness uses it to evaluate the 15
/// replicate instances concurrently.
///
/// Tasks are arbitrary callables; `submit` returns a std::future. The pool
/// joins all workers on destruction after draining the queue.
class ThreadPool {
  public:
    /// Spawn `threads` workers (defaults to hardware concurrency, min 1).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

    /// Enqueue a task; the future resolves with its result (or exception).
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard lock(mu_);
            UAVDC_REQUIRE(!stopping_) << "ThreadPool: submit after shutdown";
            queue_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /// Block until the queue is empty and all workers are idle.
    void wait_idle();

    /// Deterministic shutdown: drain the queue, then join every worker.
    /// Idempotent (the destructor calls it); `submit` after shutdown raises
    /// a ContractViolation. Lets owners (the plan service, tests) sequence
    /// "no worker is running" against their own teardown instead of relying
    /// on destructor ordering.
    void shutdown();

    /// True when called from one of this pool's worker threads. Nested
    /// parallel constructs use this to fall back to inline execution
    /// instead of deadlocking on their own queue.
    [[nodiscard]] bool on_worker_thread() const;

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idle_cv_;
    std::size_t active_{0};
    bool stopping_{false};
};

/// Process-wide shared pool (lazily constructed).
ThreadPool& global_pool();

/// True when the calling thread's CPU affinity allows one CPU only. Read at
/// each call, so it follows the caller's current mask, not the one the
/// pool was built under.
[[nodiscard]] bool caller_has_one_cpu();

}  // namespace uavdc::util
