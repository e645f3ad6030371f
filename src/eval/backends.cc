/**
 * @file
 * Built-in evaluation backends and the backend registry.
 *
 * Three adapters bridge the existing evaluation engines onto the
 * unified EvalBackend contract:
 *
 *  - ModelBackend ("model"): the paper's analytical in-order model
 *    (evaluateInOrder) — microseconds per design point;
 *  - InOrderSimBackend ("sim"): the cycle-accurate reference pipeline
 *    (simulateInOrder) — replays the whole trace per point;
 *  - OoOModelBackend ("ooo"): the out-of-order interval model
 *    (evaluateOutOfOrder) used by the paper's §6.1 comparison;
 *  - OoOSimBackend ("oosim"): the cycle-accurate out-of-order
 *    pipeline (simulateOutOfOrder) that validates the interval model
 *    the way "sim" validates "model".
 *
 * All backends finish their result identically: activity counts
 * derived from the profile, energy and EDP from the shared power
 * model — so results from different backends are directly comparable.
 * Each evaluation derives its MachineParams and its energy once.
 */

#include "eval/registry.hh"

#include <chrono>

#include "common/cli.hh"
#include "common/logging.hh"
#include "model/inorder_model.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "ooo/ooo_model.hh"
#include "oosim/oosim.hh"
#include "sim/inorder_sim.hh"

namespace mech {

namespace {

/**
 * Per-backend evaluation instruments, registered on first use.  Only
 * detailed backends get a latency histogram (see BackendEvalScope).
 */
struct BackendEvalObs
{
    obs::Counter &evals;
    obs::LatencyHistogram *us; ///< null for closed-form backends

    static BackendEvalObs
    make(const EvalBackend &backend)
    {
        const std::string name(backend.name());
        auto &reg = obs::MetricsRegistry::global();
        obs::LatencyHistogram *us = nullptr;
        if (backend.isDetailed()) {
            us = &reg.histogram("eval.backend." + name + ".us",
                                "Per-point evaluation latency of the '" +
                                    name + "' backend, microseconds");
        }
        return BackendEvalObs{
            reg.counter("eval.backend." + name + ".evals",
                        "Design-point evaluations through the '" +
                            name + "' backend"),
            us,
        };
    }
};

/**
 * Counts one evaluation and traces it as a span; times it only for
 * detailed backends.  A detailed evaluation replays the trace for
 * milliseconds, which a microsecond histogram resolves.  A
 * closed-form one takes well under a microsecond: its samples would
 * all land in bucket 0, while the two clock reads would cost more
 * than the model itself.  So closed-form backends pay one striped
 * counter increment plus the span's inactive-recorder check.
 */
class BackendEvalScope
{
  public:
    BackendEvalScope(BackendEvalObs &obs, const char *span_name)
        : obs(obs), span(span_name, "eval")
    {
        obs.evals.inc();
        if (obs.us)
            start = std::chrono::steady_clock::now();
    }

    ~BackendEvalScope()
    {
        if (!obs.us)
            return;
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        obs.us->record(static_cast<std::uint64_t>(us));
    }

  private:
    BackendEvalObs &obs;
    obs::TraceSpan span;
    std::chrono::steady_clock::time_point start;
};

/** Activity counts for a run of @p cycles over the profiled workload. */
ActivityCounts
activityFor(const EvalRequest &req, double cycles)
{
    const ProgramStats &program = *req.program;
    const MemoryStats &mem = *req.memory;

    ActivityCounts a;
    a.cycles = cycles;
    a.instructions = static_cast<double>(program.n);
    a.l1iAccesses = a.instructions;
    a.l1dAccesses = static_cast<double>(program.mix.of(OpClass::Load) +
                                        program.mix.of(OpClass::Store));
    a.l2Accesses = static_cast<double>(
        mem.iFetchL2Hits + mem.iFetchMemory + mem.loadL2Hits +
        mem.loadMemory + mem.storeL1Misses);
    a.memAccesses =
        static_cast<double>(mem.iFetchMemory + mem.loadMemory);
    a.branches = static_cast<double>(program.branches);
    return a;
}

/**
 * Fill the activity/energy/EDP tail every backend shares; @p machine
 * is the point's MachineParams the backend already built.
 */
void
finishResult(EvalResult &res, const EvalRequest &req,
             const MachineParams &machine)
{
    PowerModel power(machine, hierarchyFor(req.point),
                     req.point.predictor);
    res.activity = activityFor(req, res.cycles);
    res.energy = power.energy(res.activity);
    res.edp = power.edp(res.energy, res.cycles);
}

/** Common request validation. */
void
checkRequest(const EvalRequest &req, const EvalBackend &backend)
{
    MECH_ASSERT(req.program && req.memory && req.branch,
                "EvalRequest must carry a profile view (backend ",
                backend.name(), ")");
    // A missing trace is a user-input condition (typically a profile
    // artifact written with --no-trace), not a library bug: report
    // it through the fatal() path.
    if (backend.needsTrace() && !req.trace) {
        fatal("backend '", backend.name(),
              "' replays the trace but the request carries none "
              "(profile artifact saved without its trace?)");
    }
}

/** The analytical superscalar in-order model (paper §3). */
class ModelBackend : public EvalBackend
{
  public:
    std::string_view name() const override { return kModelBackend; }

    std::string_view
    description() const override
    {
        return "analytical in-order model (microseconds per point)";
    }

    EvalResult
    evaluate(const EvalRequest &req) const override
    {
        checkRequest(req, *this);
        static BackendEvalObs obs = BackendEvalObs::make(*this);
        BackendEvalScope scope(obs, "backend.model");
        const MachineParams machine = machineFor(req.point);
        ModelResult m = evaluateInOrder(*req.program, *req.memory,
                                        *req.branch, machine);
        EvalResult res;
        res.backend = std::string(name());
        res.cycles = m.cycles;
        res.stack = m.stack;
        res.hasStack = true;
        res.instructions = m.instructions;
        finishResult(res, req, machine);
        return res;
    }
};

/** The cycle-accurate in-order reference pipeline. */
class InOrderSimBackend : public EvalBackend
{
  public:
    std::string_view name() const override { return kSimBackend; }

    std::string_view
    description() const override
    {
        return "cycle-accurate in-order pipeline (trace replay)";
    }

    bool isDetailed() const override { return true; }
    bool needsTrace() const override { return true; }

    EvalResult
    evaluate(const EvalRequest &req) const override
    {
        checkRequest(req, *this);
        static BackendEvalObs obs = BackendEvalObs::make(*this);
        BackendEvalScope scope(obs, "backend.sim");
        const SimConfig cfg = simConfigFor(req.point);
        SimResult sim = simulateInOrder(*req.trace, cfg);
        EvalResult res;
        res.backend = std::string(name());
        res.cycles = static_cast<double>(sim.cycles);
        res.instructions = sim.retired;
        res.detail = sim;
        finishResult(res, req, cfg.machine);
        return res;
    }
};

/** The out-of-order interval model (paper §6.1 comparator). */
class OoOModelBackend : public EvalBackend
{
  public:
    std::string_view name() const override { return kOooBackend; }

    std::string_view
    description() const override
    {
        return "out-of-order interval model (MLP-aware)";
    }

    bool usesOoo() const override { return true; }

    EvalResult
    evaluate(const EvalRequest &req) const override
    {
        checkRequest(req, *this);
        static BackendEvalObs obs = BackendEvalObs::make(*this);
        BackendEvalScope scope(obs, "backend.ooo");
        const MachineParams machine = machineFor(req.point);
        ModelResult m = evaluateOutOfOrder(*req.program, *req.memory,
                                           *req.branch, machine,
                                           req.point.ooo);
        EvalResult res;
        res.backend = std::string(name());
        res.cycles = m.cycles;
        res.stack = m.stack;
        res.hasStack = true;
        res.instructions = m.instructions;
        finishResult(res, req, machine);
        return res;
    }
};

/** The cycle-accurate out-of-order pipeline. */
class OoOSimBackend : public EvalBackend
{
  public:
    std::string_view name() const override { return kOoOSimBackend; }

    std::string_view
    description() const override
    {
        return "cycle-accurate out-of-order pipeline (trace replay)";
    }

    bool isDetailed() const override { return true; }
    bool needsTrace() const override { return true; }
    bool usesOoo() const override { return true; }

    EvalResult
    evaluate(const EvalRequest &req) const override
    {
        checkRequest(req, *this);
        static BackendEvalObs obs = BackendEvalObs::make(*this);
        BackendEvalScope scope(obs, "backend.oosim");
        const OoOSimConfig cfg = oooSimConfigFor(req.point);
        OoOSimResult sim = simulateOutOfOrder(*req.trace, cfg);
        EvalResult res;
        res.backend = std::string(name());
        res.cycles = static_cast<double>(sim.cycles);
        res.instructions = sim.retired;
        res.oooDetail = sim;
        finishResult(res, req, cfg.core.machine);
        return res;
    }
};

} // namespace

BackendRegistry &
BackendRegistry::global()
{
    static BackendRegistry *registry = [] {
        auto *r = new BackendRegistry;
        r->registerBackend(std::make_unique<ModelBackend>());
        r->registerBackend(std::make_unique<InOrderSimBackend>());
        r->registerBackend(std::make_unique<OoOModelBackend>());
        r->registerBackend(std::make_unique<OoOSimBackend>());
        return r;
    }();
    return *registry;
}

void
BackendRegistry::registerBackend(std::unique_ptr<EvalBackend> backend)
{
    MECH_ASSERT(backend, "null backend");
    if (find(backend->name()))
        fatal("backend '", backend->name(), "' registered twice");
    backends.push_back(std::move(backend));
}

const EvalBackend *
BackendRegistry::find(std::string_view name) const
{
    for (const auto &b : backends) {
        if (b->name() == name)
            return b.get();
    }
    return nullptr;
}

const EvalBackend &
BackendRegistry::at(std::string_view name) const
{
    if (const EvalBackend *b = find(name))
        return *b;
    std::string known;
    for (const auto &b : backends) {
        if (!known.empty())
            known += ',';
        known += b->name();
    }
    fatal("unknown backend '", name, "' (known: ", known, ")");
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(backends.size());
    for (const auto &b : backends)
        out.emplace_back(b->name());
    return out;
}

BackendSet
BackendRegistry::parseSet(std::string_view csv) const
{
    std::string error;
    auto set = tryParseSet(csv, &error);
    if (!set)
        fatal(error);
    return *set;
}

std::optional<BackendSet>
BackendRegistry::tryParseSet(std::string_view csv,
                             std::string *error) const
{
    BackendSet set;
    for (const std::string &token : cli::splitCsv(std::string(csv))) {
        if (token.empty()) {
            *error = "empty backend name in set '" +
                     std::string(csv) + "'";
            return std::nullopt;
        }
        const EvalBackend *backend = find(token);
        if (!backend) {
            std::string known;
            for (const std::string &name : names())
                known += (known.empty() ? "" : ", ") + name;
            *error = "unknown backend '" + token + "' (known: " +
                     known + ")";
            return std::nullopt;
        }
        for (const EvalBackend *b : set) {
            if (b == backend) {
                *error = "backend '" + token + "' listed twice in '" +
                         std::string(csv) + "'";
                return std::nullopt;
            }
        }
        set.push_back(backend);
    }
    return set;
}

BackendSet
backendSet(std::string_view csv)
{
    return BackendRegistry::global().parseSet(csv);
}

const BackendSet &
defaultBackends()
{
    static const BackendSet set = backendSet(kModelBackend);
    return set;
}

} // namespace mech
