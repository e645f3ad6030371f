/**
 * @file
 * Tests for the unified evaluation-backend API: registry lookups and
 * set parsing, adapter equivalence with the underlying engines (the
 * backends are adapters, not re-implementations), request validation,
 * per-backend instrumentation, and extensibility with custom backends.
 */

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/backend.hh"
#include "eval/registry.hh"
#include "model/inorder_model.hh"
#include "obs/registry.hh"
#include "ooo/ooo_model.hh"
#include "sim/inorder_sim.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;

constexpr InstCount kLen = 15000;

const DseStudy &
sharedStudy()
{
    static const DseStudy study(profileByName("tiffdither"), kLen);
    return study;
}

/** A request against the shared study at the default design point. */
EvalRequest
defaultRequest()
{
    const DseStudy &study = sharedStudy();
    EvalRequest req;
    req.program = &study.profile().program;
    req.memory = &study.profile().memory;
    req.branch = &study.profile().branchProfileFor(
        defaultDesignPoint().predictor);
    req.trace = &study.trace();
    req.point = defaultDesignPoint();
    return req;
}

// ---- registry --------------------------------------------------------------------

TEST(BackendRegistry, GlobalHasBuiltins)
{
    BackendRegistry &reg = BackendRegistry::global();
    ASSERT_NE(reg.find(kModelBackend), nullptr);
    ASSERT_NE(reg.find(kSimBackend), nullptr);
    ASSERT_NE(reg.find(kOooBackend), nullptr);
    EXPECT_EQ(reg.find("model")->name(), "model");
    EXPECT_FALSE(reg.find("model")->isDetailed());
    EXPECT_TRUE(reg.find("sim")->isDetailed());
    EXPECT_TRUE(reg.find("sim")->needsTrace());
    EXPECT_FALSE(reg.find("no-such-backend"));
}

TEST(BackendRegistry, ParseSetPreservesOrderAndTrimsSpaces)
{
    BackendSet set = backendSet(" sim , model ");
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set[0]->name(), "sim");
    EXPECT_EQ(set[1]->name(), "model");
}

TEST(BackendRegistry, DefaultSetIsModelOnly)
{
    const BackendSet &set = defaultBackends();
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0]->name(), kModelBackend);
}

TEST(BackendRegistry, CustomBackendsPlugIn)
{
    /** A trivial fixed-CPI backend, as an external user would add. */
    class ConstantBackend : public EvalBackend
    {
      public:
        std::string_view name() const override { return "constant"; }
        std::string_view
        description() const override
        {
            return "fixed CPI of 1";
        }
        EvalResult
        evaluate(const EvalRequest &req) const override
        {
            EvalResult res;
            res.backend = std::string(name());
            res.instructions = req.program->n;
            res.cycles = static_cast<double>(req.program->n);
            return res;
        }
    };

    BackendRegistry local;
    local.registerBackend(std::make_unique<ConstantBackend>());
    BackendSet set = local.parseSet("constant");
    ASSERT_EQ(set.size(), 1u);

    EvalResult res = set[0]->evaluate(defaultRequest());
    EXPECT_DOUBLE_EQ(res.cpi(), 1.0);
}

// ---- adapter equivalence ----------------------------------------------------------

TEST(EvalBackend, ModelBackendMatchesEvaluateInOrder)
{
    EvalRequest req = defaultRequest();
    EvalResult res =
        BackendRegistry::global().at(kModelBackend).evaluate(req);

    ModelResult direct =
        evaluateInOrder(*req.program, *req.memory, *req.branch,
                        machineFor(req.point));

    EXPECT_EQ(res.cycles, direct.cycles);
    EXPECT_EQ(res.instructions, direct.instructions);
    EXPECT_TRUE(res.hasStack);
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(res.stack[comp], direct.stack[comp])
            << cpiComponentName(comp);
    }
    EXPECT_FALSE(res.detail.has_value());
    EXPECT_GT(res.edp, 0.0);
    EXPECT_GT(res.energy.totalJ(), 0.0);
    EXPECT_GT(res.activity.instructions, 0.0);
}

TEST(EvalBackend, SimBackendMatchesSimulateInOrder)
{
    EvalRequest req = defaultRequest();
    EvalResult res =
        BackendRegistry::global().at(kSimBackend).evaluate(req);

    SimResult direct =
        simulateInOrder(sharedStudy().trace(), simConfigFor(req.point));

    ASSERT_TRUE(res.detail.has_value());
    EXPECT_EQ(res.cycles, static_cast<double>(direct.cycles));
    EXPECT_EQ(res.detail->cycles, direct.cycles);
    EXPECT_EQ(res.detail->mispredicts, direct.mispredicts);
    EXPECT_EQ(res.instructions, direct.retired);
    EXPECT_FALSE(res.hasStack);
    EXPECT_GT(res.edp, 0.0);
}

TEST(EvalBackend, OooBackendMatchesEvaluateOutOfOrder)
{
    EvalRequest req = defaultRequest();
    req.point.ooo.robSize = 64;
    EvalResult res =
        BackendRegistry::global().at(kOooBackend).evaluate(req);

    OooParams ooo;
    ooo.robSize = 64;
    ModelResult direct =
        evaluateOutOfOrder(*req.program, *req.memory, *req.branch,
                           machineFor(req.point), ooo);

    EXPECT_EQ(res.cycles, direct.cycles);
    EXPECT_TRUE(res.hasStack);
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(res.stack[comp], direct.stack[comp])
            << cpiComponentName(comp);
    }
}

TEST(EvalBackend, BackendsShareTheActivityModel)
{
    // Same cycles in => same energy out, whatever backend produced
    // them: the EDP ordering of backends must reflect cycles only.
    EvalRequest req = defaultRequest();
    EvalResult model =
        BackendRegistry::global().at(kModelBackend).evaluate(req);
    EvalResult ooo =
        BackendRegistry::global().at(kOooBackend).evaluate(req);
    EXPECT_EQ(model.activity.instructions, ooo.activity.instructions);
    EXPECT_EQ(model.activity.l2Accesses, ooo.activity.l2Accesses);
    EXPECT_EQ(model.activity.branches, ooo.activity.branches);
}

// ---- PointEvaluation accessors ----------------------------------------------------

TEST(PointEvaluation, AccessorsReflectBackendSet)
{
    DseStudy study(profileByName("sha"), kLen);
    PointEvaluation ev =
        study.evaluate(defaultDesignPoint(), backendSet("ooo,model"));
    ASSERT_EQ(ev.results.size(), 2u);
    EXPECT_EQ(ev.results[0].backend, kOooBackend);
    EXPECT_EQ(ev.results[1].backend, kModelBackend);
    EXPECT_TRUE(ev.has(kOooBackend));
    EXPECT_FALSE(ev.has(kSimBackend));
    EXPECT_EQ(ev.sim(), nullptr);
    EXPECT_EQ(&ev.model(), &ev.results[1]);
    EXPECT_FALSE(ev.cpiError().has_value());
}

// ---- instrumentation -------------------------------------------------------------

/** True when the global registry holds an instrument named @p name. */
bool
registered(const std::string &name)
{
    for (const auto &sample : obs::MetricsRegistry::global().collect()) {
        if (sample.name == name)
            return true;
    }
    return false;
}

TEST(EvalBackend, ClosedFormBackendsCountWithoutTiming)
{
    constexpr std::uint64_t kCalls = 25;
    const EvalRequest req = defaultRequest();
    for (std::string_view name : {kModelBackend, kOooBackend}) {
        const std::string prefix = "eval.backend." + std::string(name);
        const EvalBackend &backend = BackendRegistry::global().at(name);
        backend.evaluate(req); // registers the backend's instruments
        obs::Counter &evals =
            obs::MetricsRegistry::global().counter(prefix + ".evals");
        const std::uint64_t before = evals.value();
        for (std::uint64_t i = 0; i < kCalls; ++i)
            backend.evaluate(req);
        EXPECT_EQ(evals.value() - before, kCalls) << name;
        EXPECT_FALSE(registered(prefix + ".us")) << name;
    }
}

TEST(EvalBackend, DetailedBackendsTimeEveryCall)
{
    constexpr std::uint64_t kCalls = 3;
    const EvalRequest req = defaultRequest();
    const EvalBackend &sim = BackendRegistry::global().at(kSimBackend);
    sim.evaluate(req); // registers the backend's instruments
    auto &reg = obs::MetricsRegistry::global();
    obs::Counter &evals = reg.counter("eval.backend.sim.evals");
    obs::LatencyHistogram &us = reg.histogram("eval.backend.sim.us");
    const std::uint64_t evals_before = evals.value();
    const obs::HistogramSnapshot before = us.snapshot();
    for (std::uint64_t i = 0; i < kCalls; ++i)
        sim.evaluate(req);
    const obs::HistogramSnapshot after = us.snapshot();
    EXPECT_EQ(evals.value() - evals_before, kCalls);
    EXPECT_EQ(after.count() - before.count(), kCalls);
    // A trace replay takes far longer than a microsecond.
    EXPECT_GT(after.sum, before.sum);
}

// ---- request validation -----------------------------------------------------------

TEST(EvalBackendDeathTest, SimWithoutTraceIsAFatalUserError)
{
    EvalRequest req = defaultRequest();
    req.trace = nullptr;
    // fatal(), not panic(): a trace-less artifact is a user-input
    // condition and must exit cleanly rather than abort.
    EXPECT_EXIT(
        BackendRegistry::global().at(kSimBackend).evaluate(req),
        ::testing::ExitedWithCode(1), "replays the trace");
}

TEST(EvalBackendDeathTest, MissingProfileViewPanics)
{
    EvalRequest req = defaultRequest();
    req.memory = nullptr;
    EXPECT_DEATH(
        BackendRegistry::global().at(kModelBackend).evaluate(req),
        "profile view");
}

} // namespace
