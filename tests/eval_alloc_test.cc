/**
 * @file
 * Heap-allocation budget of model-speed evaluation: a model-only
 * DseStudy::evaluate() and a model-only sweep slot (evaluateInto a
 * fresh PointEvaluation) make no heap allocation, the second backend
 * of a set spills exactly once, and an EvalResult stays small.
 *
 * This file replaces the global operator new/delete with counting
 * versions, so it is its own test executable.
 */

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "workload/suites.hh"

namespace {

std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mech;

constexpr InstCount kLen = 15000;

const DseStudy &
sharedStudy()
{
    static const DseStudy study(profileByName("sha"), kLen);
    return study;
}

/** Heap allocations made by @p fn on any thread. */
template <typename F>
std::size_t
allocationsOf(F &&fn)
{
    const std::size_t before = g_allocations.load();
    fn();
    return g_allocations.load() - before;
}

TEST(EvalAlloc, EvalResultFitsItsBudget)
{
    EXPECT_LE(sizeof(EvalResult), 300u);
}

TEST(EvalAlloc, ModelOnlyEvaluateMakesNoHeapAllocation)
{
    const DseStudy &study = sharedStudy();
    const DesignPoint point = defaultDesignPoint();
    // The first call registers the backend's instruments.
    double cycles = study.evaluate(point).model().cycles;
    const std::size_t n = allocationsOf([&] {
        for (int i = 0; i < 100; ++i)
            cycles += study.evaluate(point).model().cycles;
    });
    EXPECT_EQ(n, 0u);
    EXPECT_GT(cycles, 0.0);
}

TEST(EvalAlloc, ModelOnlySweepSlotMakesNoHeapAllocation)
{
    const DseStudy &study = sharedStudy();
    auto space = table2Space();
    std::vector<DesignPoint> points;
    for (const DesignPoint &p : space) {
        if (p.l2KB == 512 && p.l2Assoc == 8) // the profiled geometry
            points.push_back(p);
    }
    ASSERT_FALSE(points.empty());
    study.evaluate(points[0]);

    // Fresh slots, as a sweep's result vector holds them.
    std::vector<PointEvaluation> slots(points.size());
    const std::size_t n = allocationsOf([&] {
        for (std::size_t i = 0; i < points.size(); ++i)
            study.evaluateInto(slots[i], points[i]);
    });
    EXPECT_EQ(n, 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(slots[i].results.size(), 1u);
        EXPECT_EQ(slots[i].model().cycles,
                  study.evaluate(points[i]).model().cycles);
    }
}

TEST(EvalAlloc, SecondBackendSpillsOnceThenReusesItsStorage)
{
    const DseStudy &study = sharedStudy();
    const DesignPoint point = defaultDesignPoint();
    const BackendSet both = backendSet("model,ooo");
    study.evaluate(point, both);

    PointEvaluation slot;
    EXPECT_EQ(allocationsOf([&] { study.evaluateInto(slot, point, both); }),
              1u);
    EXPECT_EQ(allocationsOf([&] { study.evaluateInto(slot, point, both); }),
              0u);
    ASSERT_EQ(slot.results.size(), 2u);
    EXPECT_EQ(slot.results[0].backend, kModelBackend);
    EXPECT_EQ(slot.results[1].backend, kOooBackend);
}

} // namespace
