#include "uavdc/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "uavdc/util/parallel_for.hpp"

namespace uavdc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    auto f = pool.submit([] { return 21 * 2; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 500; ++i) {
        futs.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futs) f.get();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i) {
        (void)pool.submit([&done] { ++done; });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
    ThreadPool pool;
    EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelFor, CoversExactRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeNoop) {
    ThreadPool pool(2);
    int calls = 0;
    parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
    parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsInline) {
    ThreadPool pool(4);
    std::vector<int> out(3, 0);
    parallel_for(pool, 0, 3, [&](std::size_t i) { out[i] = 1; }, 100);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);
}

TEST(ParallelFor, RethrowsWorkerException) {
    ThreadPool pool(4);
    EXPECT_THROW(
        parallel_for(pool, 0, 100,
                     [](std::size_t i) {
                         if (i == 57) throw std::logic_error("bad index");
                     }),
        std::logic_error);
}

TEST(ParallelFor, SumMatchesSerial) {
    ThreadPool pool(8);
    const std::size_t n = 10000;
    std::vector<double> vals(n);
    parallel_for(pool, 0, n, [&](std::size_t i) {
        vals[i] = static_cast<double>(i) * 0.5;
    });
    double s = 0.0;
    for (double v : vals) s += v;
    EXPECT_DOUBLE_EQ(s, 0.5 * static_cast<double>(n) *
                            static_cast<double>(n - 1) / 2.0);
}

TEST(ParallelMap, ProducesOrderedResults) {
    ThreadPool pool(4);
    const auto out = parallel_map<int>(pool, 100, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
}

TEST(GlobalPool, IsUsable) {
    auto f = global_pool().submit([] { return 1; });
    EXPECT_EQ(f.get(), 1);
}

// A caller pinned to one CPU gets no fan-out from the global pool: every
// index runs on the calling thread. Unpinned, the same loop reaches the
// pool wherever the machine has more than one CPU to offer.
TEST(GlobalPool, PinnedCallerRunsInline) {
    cpu_set_t all;
    CPU_ZERO(&all);
    ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
    int first = 0;
    while (!CPU_ISSET(first, &all)) ++first;

    constexpr std::size_t n = 4096;
    auto worker_share = [&] {
        const auto me = std::this_thread::get_id();
        std::vector<std::thread::id> ran(n);
        util::maybe_parallel_for(
            true, 0, n,
            [&](std::size_t i) { ran[i] = std::this_thread::get_id(); }, 1);
        std::size_t elsewhere = 0;
        for (const auto& id : ran) elsewhere += id != me ? 1 : 0;
        return elsewhere;
    };
    // On a thread of its own, so the test runner's mask is left alone.
    std::thread pinned([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(first, &one);
        ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
        EXPECT_TRUE(util::caller_has_one_cpu());
        EXPECT_EQ(worker_share(), 0u);
    });
    pinned.join();

    if (CPU_COUNT(&all) > 1 && util::global_pool().num_threads() > 1) {
        EXPECT_FALSE(util::caller_has_one_cpu());
        EXPECT_GT(worker_share(), 0u);
    }
}

TEST(ThreadPool, ShutdownDrainsThenJoins) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 128; ++i) {
        (void)pool.submit([&done] { ++done; });
    }
    pool.shutdown();
    // Every queued task ran before the workers were joined.
    EXPECT_EQ(done.load(), 128);
}

TEST(ThreadPool, ShutdownIsIdempotentAndRejectsNewWork) {
    ThreadPool pool(2);
    pool.shutdown();
    pool.shutdown();  // second call is a no-op, not a crash
    EXPECT_THROW((void)pool.submit([] { return 0; }),
                 uavdc::util::ContractViolation);
}

}  // namespace
}  // namespace uavdc::util
