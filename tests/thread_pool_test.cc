/**
 * @file
 * Unit tests for the common ThreadPool's parallelFor path: inline
 * (0-worker) execution, many workers, coverage, chunking, exception
 * propagation and concurrent callers, plus the worker-count helpers.
 */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

namespace {

using mech::ThreadPool;

TEST(ThreadPool, ZeroWorkersRunsInlineOnSubmittingThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);

    // Inline execution: the whole range runs on this very thread
    // before parallelFor returns, even when it spans many chunks.
    std::thread::id ran_on;
    int calls = 0;
    pool.parallelFor(64, 1, [&](std::size_t, std::size_t) {
        ran_on = std::this_thread::get_id();
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ZeroWorkersPreservesSubmissionOrder)
{
    ThreadPool pool(0);
    std::vector<std::size_t> order;
    pool.parallelFor(8, 1, [&order](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ManyWorkersRunEveryTaskExactlyOnce)
{
    ThreadPool pool(8);
    EXPECT_EQ(pool.workerCount(), 8u);

    // One slot per task with a per-slot result, the shape coarse
    // callers (one benchmark per slot) use.
    constexpr std::size_t kTasks = 500;
    std::atomic<int> runs{0};
    std::vector<std::size_t> results(kTasks, 0);
    pool.parallelFor(kTasks, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            runs.fetch_add(1, std::memory_order_relaxed);
            results[i] = i * i;
        }
    });
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(results[i], i * i);
    EXPECT_EQ(runs.load(), static_cast<int>(kTasks));
}

TEST(ThreadPool, ParallelForCoversTheRangeExactlyOnce)
{
    for (unsigned workers : {0u, 1u, 4u}) {
        ThreadPool pool(workers);
        constexpr std::size_t kN = 10000;
        std::vector<int> hits(kN, 0);
        // Chunks partition the range, so distinct slots never race.
        pool.parallelFor(kN, 7, [&hits](std::size_t begin,
                                        std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                ++hits[i];
        });
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " with "
                                  << workers << " workers";
    }
}

TEST(ThreadPool, ParallelForEmptyRangeNeverInvokes)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 4, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInlineAsOneChunk)
{
    // n <= chunk short-circuits to a single inline call on the
    // calling thread, even with workers available.
    ThreadPool pool(4);
    std::thread::id ran_on;
    int calls = 0;
    pool.parallelFor(10, 100, [&](std::size_t begin, std::size_t end) {
        ran_on = std::this_thread::get_id();
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForPropagatesTheFirstChunkException)
{
    for (unsigned workers : {0u, 2u}) {
        ThreadPool pool(workers);
        std::atomic<int> processed{0};
        EXPECT_THROW(
            pool.parallelFor(
                64, 1,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        if (i == 32)
                            throw std::runtime_error("chunk");
                        ++processed;
                    }
                }),
            std::runtime_error);
        // Inline: one [0, 64) chunk aborts at index 32.  Pooled: only
        // the throwing single-index chunk is lost — the rest of the
        // range still retires, and the error surfaces at the end.
        EXPECT_EQ(processed.load(), workers == 0 ? 32 : 63);
        // The pool survives for the next bulk job.
        std::atomic<int> after{0};
        pool.parallelFor(8, 1,
                         [&](std::size_t begin, std::size_t end) {
                             after += static_cast<int>(end - begin);
                         });
        EXPECT_EQ(after.load(), 8);
    }
}

TEST(ThreadPool, ParallelForManyConcurrentCallers)
{
    // Several threads publish bulk jobs into one pool at once; each
    // caller participates in its own job and must see exactly its
    // range processed.
    ThreadPool pool(4);
    constexpr int kCallers = 6;
    constexpr std::size_t kN = 4096;
    std::vector<std::thread> callers;
    std::atomic<long long> total{0};
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &total] {
            std::atomic<long long> mine{0};
            pool.parallelFor(kN, 16,
                             [&mine](std::size_t begin,
                                     std::size_t end) {
                                 mine += static_cast<long long>(
                                     end - begin);
                             });
            EXPECT_EQ(mine.load(),
                      static_cast<long long>(kN));
            total += mine.load();
        });
    }
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(total.load(), static_cast<long long>(kCallers) * kN);
}

TEST(ThreadPool, BulkChunkIsPositiveAndWholeRangeWhenInline)
{
    ThreadPool inline_pool(0);
    EXPECT_EQ(inline_pool.bulkChunk(0), 1u);
    EXPECT_EQ(inline_pool.bulkChunk(192), 192u);

    ThreadPool pool(3);
    EXPECT_EQ(pool.bulkChunk(0), 1u);
    EXPECT_GE(pool.bulkChunk(5), 1u);
    // ~8 chunks per participant (3 workers + the caller).
    EXPECT_EQ(pool.bulkChunk(3200), 100u);
}

TEST(ThreadPool, DefaultWorkerCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

TEST(ThreadPool, SanitizeTreatsZeroAndNegativeAsWholeMachine)
{
    // The tools' shared `--threads 0` (or omitted) convention:
    // "use every hardware thread".
    EXPECT_EQ(ThreadPool::sanitizeWorkerCount(0),
              ThreadPool::defaultWorkerCount());
    EXPECT_EQ(ThreadPool::sanitizeWorkerCount(-5),
              ThreadPool::defaultWorkerCount());
    EXPECT_EQ(ThreadPool::sanitizeWorkerCount(3), 3u);
    EXPECT_EQ(ThreadPool::sanitizeWorkerCount(1 << 20),
              ThreadPool::kMaxWorkers);
}

} // namespace
