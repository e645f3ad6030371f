/**
 * @file
 * Concurrency stress tests for the scaling-critical pieces the CI
 * TSan job hammers: multi-producer bulk submission into one
 * ThreadPool (fine-grained sweeps interleaved with one-slot-per-task
 * jobs) and the
 * lock-striped EvalCache probed concurrently with inserts, and one
 * DseStudy whose L2-geometry memo fills while it is evaluated.  The
 * assertions are deliberately simple — counts, pointer stability,
 * value integrity — because the interesting verdict is TSan's.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "dse/design_space.hh"
#include "search/eval_cache.hh"
#include "test_util.hh"

namespace {

using namespace mech;

TEST(ParallelStress, MultiProducerBulkAndSubmitTraffic)
{
    // Several producers publish fine-grained parallelFor sweeps into
    // one shared pool while others submit small one-slot-per-task
    // jobs with per-slot results (the shape of one-benchmark-per-slot
    // profiling): every job shares the mutex, the condition variables
    // and the workers, so this is the densest interleaving the DSE
    // layer can produce (bulk sweeps while studies build).
    ThreadPool pool(4);
    constexpr int kBulkProducers = 4;
    constexpr int kSubmitProducers = 2;
    constexpr int kRounds = 20;
    constexpr std::size_t kN = 2048;

    std::atomic<long long> bulkTotal{0};
    std::atomic<long long> submitTotal{0};
    std::vector<std::thread> producers;

    for (int p = 0; p < kBulkProducers; ++p) {
        producers.emplace_back([&pool, &bulkTotal] {
            for (int round = 0; round < kRounds; ++round) {
                std::atomic<long long> mine{0};
                pool.parallelFor(
                    kN, 8,
                    [&mine](std::size_t begin, std::size_t end) {
                        mine += static_cast<long long>(end - begin);
                    });
                ASSERT_EQ(mine.load(), static_cast<long long>(kN));
                bulkTotal += mine.load();
            }
        });
    }
    for (int p = 0; p < kSubmitProducers; ++p) {
        producers.emplace_back([&pool, &submitTotal] {
            for (int round = 0; round < kRounds; ++round) {
                std::vector<int> slots(32, 0);
                pool.parallelFor(
                    slots.size(), 1,
                    [&slots](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                            slots[i] = static_cast<int>(i);
                    });
                long long sum = 0;
                for (int v : slots)
                    sum += v;
                submitTotal += sum;
            }
        });
    }
    for (auto &t : producers)
        t.join();

    EXPECT_EQ(bulkTotal.load(),
              static_cast<long long>(kBulkProducers) * kRounds * kN);
    EXPECT_EQ(submitTotal.load(),
              static_cast<long long>(kSubmitProducers) * kRounds *
                  (31 * 32 / 2));
}

TEST(ParallelStress, ShardedCacheProbesDuringInserts)
{
    // One writer populates the cache in enumeration order (the
    // coordinator role) while reader threads hammer find() across the
    // whole space: entries must appear atomically (null or fully
    // formed, never torn) and pointers must stay stable.
    EvalCache cache;
    const auto grid = table2Space();
    constexpr int kReaders = 4;

    std::atomic<bool> done{false};
    std::atomic<long long> hits{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                for (const DesignPoint &p : grid) {
                    const SearchEval *hit = cache.find(p);
                    if (!hit)
                        continue;
                    // A visible entry is fully formed.
                    ASSERT_TRUE(hit->point == p);
                    ASSERT_EQ(hit->aggregate.size(), 1u);
                    ++hits;
                }
            }
        });
    }

    std::vector<const SearchEval *> inserted;
    inserted.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SearchEval eval;
        eval.point = grid[i];
        eval.aggregate = {static_cast<double>(i)};
        const SearchEval &stored = cache.insert(std::move(eval));
        EXPECT_EQ(stored.firstIndex, i);
        inserted.push_back(&stored);
    }
    done.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    // Deterministic coordinator-order indices and stable pointers.
    EXPECT_EQ(cache.size(), grid.size());
    auto entries = cache.entries();
    ASSERT_EQ(entries.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(entries[i], inserted[i]);
        EXPECT_EQ(cache.find(grid[i]), inserted[i]);
        EXPECT_EQ(entries[i]->aggregate[0], static_cast<double>(i));
    }
    EXPECT_GE(hits.load(), 0);
}

TEST(ParallelStress, ConcurrentOoOSimulationsAreIndependent)
{
    // The out-of-order pipeline keeps all mutable state per instance;
    // many simulations of one shared (read-only) trace must neither
    // race nor diverge.  TSan checks the former, the exact-match
    // assertion the latter.
    DseStudy study(profileByName("sha"), 8000);
    const OoOSimConfig cfg = oooSimConfigFor(defaultDesignPoint());
    const OoOSimResult reference =
        simulateOutOfOrder(study.trace(), cfg);

    constexpr int kThreads = 6;
    std::vector<OoOSimResult> results(kThreads);
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            results[w] = simulateOutOfOrder(study.trace(), cfg);
        });
    }
    for (auto &t : workers)
        t.join();

    for (const OoOSimResult &r : results) {
        EXPECT_EQ(r.cycles, reference.cycles);
        EXPECT_EQ(r.retired, reference.retired);
        EXPECT_EQ(r.mispredicts, reference.mispredicts);
        EXPECT_EQ(r.fuStallEvents, reference.fuStallEvents);
        EXPECT_EQ(r.busStallEvents, reference.busStallEvents);
        EXPECT_EQ(r.maxRobOccupancy, reference.maxRobOccupancy);
        EXPECT_EQ(r.maxIqOccupancy, reference.maxIqOccupancy);
    }
}

TEST(ParallelStress, OoOSimBatchIsThreadCountInvariant)
{
    // evaluateBatch with the cycle-accurate out-of-order backend must
    // produce bit-identical aggregates no matter how the pool carves
    // up the batch.
    SpaceSpec spec =
        SpaceSpec::parse("width=1,2,4; rob=64,128; buses=4,8");
    std::vector<DesignPoint> points;
    for (std::uint64_t i = 0; i < spec.size(); ++i)
        points.push_back(spec.at(i));

    std::vector<std::vector<double>> reference;
    for (std::size_t threads : {std::size_t(0), std::size_t(4)}) {
        ThreadPool pool(threads);
        SearchEvaluator eval({profileByName("sha")}, 5000,
                             parseObjectives("delay"),
                             backendSet("oosim"));
        eval.prepare(spec, pool);
        EvalCache cache;
        SearchStats stats;
        auto evals = eval.evaluateBatch(points, cache, pool, stats);
        ASSERT_EQ(evals.size(), points.size());
        std::vector<std::vector<double>> aggregates;
        for (const SearchEval *e : evals)
            aggregates.push_back(e->aggregate);
        if (reference.empty())
            reference = std::move(aggregates);
        else
            EXPECT_EQ(aggregates, reference);
    }
}

TEST(ParallelStress, StudyMemoFillsDuringEvaluation)
{
    // Threads prepare() fresh L2 geometries while others evaluate the
    // same study, many on geometries nobody has computed yet: every
    // geometry must be computed once and every thread must see the
    // numbers a serial, fresh study produces.
    std::vector<DesignPoint> points;
    for (std::uint64_t kb : {64, 128, 256, 512, 1024, 2048}) {
        for (std::uint32_t assoc : {2u, 4u, 8u, 16u}) {
            DesignPoint p;
            p.l2KB = kb;
            p.l2Assoc = assoc;
            p.width = 1 + static_cast<std::uint32_t>(points.size() % 4);
            p.predictor = points.size() % 3 ? PredictorKind::Gshare1K
                                            : PredictorKind::Hybrid3K5;
            points.push_back(p);
        }
    }
    const BackendSet backends = backendSet("model,ooo");
    const BenchmarkProfile &bench = profileByName("sha");

    std::vector<PointEvaluation> reference;
    {
        const DseStudy serial(bench, 8000);
        for (const DesignPoint &p : points)
            reference.push_back(serial.evaluate(p, backends));
    }

    const DseStudy study(bench, 8000);
    constexpr int kPreparers = 3;
    constexpr int kEvaluators = 4;
    std::atomic<int> ready{0};
    std::vector<std::vector<PointEvaluation>> seen(kEvaluators);
    std::vector<std::thread> threads;
    auto startTogether = [&ready] {
        ++ready;
        while (ready.load() < kPreparers + kEvaluators)
            std::this_thread::yield();
    };
    for (int t = 0; t < kPreparers; ++t) {
        threads.emplace_back([&, t] {
            // Each preparer walks the geometries from its own offset,
            // backwards, so preparers and evaluators collide.
            std::vector<DesignPoint> mine;
            for (std::size_t i = 0; i < points.size(); ++i) {
                mine.push_back(
                    points[(points.size() - 1 - i + 7 * t) %
                           points.size()]);
            }
            startTogether();
            study.prepare(mine);
        });
    }
    for (int t = 0; t < kEvaluators; ++t) {
        threads.emplace_back([&, t] {
            std::vector<PointEvaluation> &out = seen[t];
            out.resize(points.size());
            startTogether();
            PointEvaluation scratch;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const std::size_t j = (i + 5 * t) % points.size();
                if (t % 2) {
                    study.evaluateInto(scratch, points[j], backends);
                    out[j] = scratch;
                } else {
                    out[j] = study.evaluate(points[j], backends);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (const auto &out : seen) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            ASSERT_EQ(out[i].results.size(), backends.size());
            for (std::size_t be = 0; be < backends.size(); ++be) {
                const EvalResult &got = out[i].results[be];
                const EvalResult &want = reference[i].results[be];
                EXPECT_EQ(got.cycles, want.cycles) << points[i].toKey();
                EXPECT_EQ(got.edp, want.edp) << points[i].toKey();
                EXPECT_EQ(got.instructions, want.instructions);
            }
        }
    }
}

} // namespace
