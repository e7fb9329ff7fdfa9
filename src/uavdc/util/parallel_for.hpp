#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "uavdc/util/thread_pool.hpp"

namespace uavdc::util {

/// Static-chunked parallel loop over [begin, end): f(i) is invoked once per
/// index, partitioned into contiguous chunks across the pool. Exceptions from
/// workers are rethrown on the calling thread (first one wins).
///
/// Deterministic partitioning: output-side determinism is the caller's job
/// (write to disjoint slots, don't accumulate shared state).
template <typename F>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, F&& f,
                  std::size_t min_chunk = 1) {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    const std::size_t max_chunks = pool.num_threads() * 4;
    const std::size_t chunk =
        std::max({min_chunk, std::size_t{1}, (n + max_chunks - 1) / max_chunks});
    // Nested use from a worker thread would deadlock (all workers blocked
    // on futures only they could run) — execute inline instead.
    if (n <= chunk || pool.on_worker_thread()) {
        for (std::size_t i = begin; i < end; ++i) f(i);
        return;
    }
    std::vector<std::future<void>> futs;
    futs.reserve((n + chunk - 1) / chunk);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
        const std::size_t hi = std::min(end, lo + chunk);
        futs.push_back(pool.submit([lo, hi, &f] {
            for (std::size_t i = lo; i < hi; ++i) f(i);
        }));
    }
    std::exception_ptr first_error;
    for (auto& fut : futs) {
        try {
            fut.get();
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

/// Overload using the process-global pool. It runs inline when the caller
/// may run on one CPU only (a shard pinned to a core, say): the pool's
/// threads would share that CPU, so fanning out would only add hand-offs.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f,
                  std::size_t min_chunk = 1) {
    if (caller_has_one_cpu()) {
        for (std::size_t i = begin; i < end; ++i) f(i);
        return;
    }
    parallel_for(global_pool(), begin, end, std::forward<F>(f), min_chunk);
}

/// Run f over [begin, end) on the global pool when `parallel`, inline
/// otherwise. Lets callers thread one "are we over the parallel threshold"
/// decision through scoring/rebuild helpers without duplicating both loops.
template <typename F>
void maybe_parallel_for(bool parallel, std::size_t begin, std::size_t end,
                        F&& f, std::size_t min_chunk = 1) {
    if (parallel) {
        parallel_for(begin, end, std::forward<F>(f), min_chunk);
        return;
    }
    for (std::size_t i = begin; i < end; ++i) f(i);
}

/// Parallel map: out[i] = f(i) for i in [0, n).
template <typename T, typename F>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, F&& f) {
    std::vector<T> out(n);
    parallel_for(pool, 0, n, [&](std::size_t i) { out[i] = f(i); });
    return out;
}

}  // namespace uavdc::util
