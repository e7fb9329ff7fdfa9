#include "uavdc/util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace uavdc::util {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w.joinable()) w.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
        }
    }
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::on_worker_thread() const {
    const auto me = std::this_thread::get_id();
    for (const auto& w : workers_) {
        if (w.get_id() == me) return true;
    }
    return false;
}

ThreadPool& global_pool() {
    static ThreadPool pool;
    return pool;
}

bool caller_has_one_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
    return CPU_COUNT(&set) == 1;
}

}  // namespace uavdc::util
