#include "dse/study.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "common/thread_pool.hh"
#include "workload/builder.hh"

namespace mech {

namespace {

/** Profiling configuration shared by all studies. */
ProfilerConfig
studyProfilerConfig()
{
    ProfilerConfig cfg;
    cfg.hierarchy = hierarchyFor(defaultDesignPoint());
    cfg.predictors = {PredictorKind::Gshare1K, PredictorKind::Hybrid3K5};
    cfg.captureL2Stream = true;
    return cfg;
}

} // namespace

/**
 * The per-L2-geometry MemoryStats memo, safe under any concurrency.
 *
 * A cold geometry is computed exactly once, behind its entry's
 * once-flag, by whichever thread asks first; threads asking for the
 * same geometry wait on the flag, different geometries compute in
 * parallel.  Entries live in a node-based map, so their addresses are
 * stable for the memo's lifetime.
 *
 * Warm lookups take no lock: computed entries are published in an
 * immutable sorted snapshot behind an atomic pointer, so a hit is one
 * acquire load plus a binary search.  Publishing copies the snapshot
 * under the mutex and swaps the pointer.  Superseded snapshots stay
 * alive with the memo, because a reader may still be searching one.
 * Their total is quadratic in the geometry count: a few KB for the
 * spaces the tools sweep, under 1 MB for all ~220 geometries
 * SpaceSpec::check() admits.
 */
class DseStudy::L2Memo
{
  public:
    using Key = std::pair<std::uint64_t, std::uint32_t>;

    L2Memo()
    {
        snapshots.push_back(std::make_unique<Snapshot>());
        published.store(snapshots.back().get());
    }

    /** The published stats of geometry @p key, or null.  Lock-free. */
    const MemoryStats *
    find(const Key &key) const
    {
        const Snapshot &snap = *published.load(std::memory_order_acquire);
        auto it = lowerBound(snap, key);
        return it != snap.end() && it->key == key ? it->stats : nullptr;
    }

    /** The stats of geometry @p key, computed by @p compute on first use. */
    template <typename Compute>
    const MemoryStats &
    get(const Key &key, Compute &&compute)
    {
        if (const MemoryStats *stats = find(key))
            return *stats;

        Entry *entry;
        {
            std::lock_guard<std::mutex> lock(mtx);
            entry = &entries.try_emplace(key).first->second;
        }
        std::call_once(entry->once, [&] { entry->stats = compute(); });
        publish(key, &entry->stats);
        return entry->stats;
    }

  private:
    struct Entry
    {
        std::once_flag once;
        MemoryStats stats;
    };

    struct Slot
    {
        Key key;
        const MemoryStats *stats;
    };

    using Snapshot = std::vector<Slot>;

    static Snapshot::const_iterator
    lowerBound(const Snapshot &snap, const Key &key)
    {
        return std::lower_bound(
            snap.begin(), snap.end(), key,
            [](const Slot &s, const Key &k) { return s.key < k; });
    }

    /** Add @p stats to the published snapshot unless already there. */
    void
    publish(const Key &key, const MemoryStats *stats)
    {
        std::lock_guard<std::mutex> lock(mtx);
        const Snapshot &cur = *snapshots.back();
        auto it = lowerBound(cur, key);
        if (it != cur.end() && it->key == key)
            return; // another thread published it first
        auto next = std::make_unique<Snapshot>(cur);
        next->insert(next->begin() + (it - cur.begin()), Slot{key, stats});
        published.store(next.get(), std::memory_order_release);
        snapshots.push_back(std::move(next));
    }

    /** Guards entries and snapshots (never held while computing). */
    std::mutex mtx;
    std::map<Key, Entry> entries;
    /** Every snapshot ever published; back() is the current one. */
    std::vector<std::unique_ptr<const Snapshot>> snapshots;
    std::atomic<const Snapshot *> published;
};

DseStudy::DseStudy(const BenchmarkProfile &bench, InstCount trace_len)
    : benchName(bench.name)
{
    dynTrace = generateTrace(bench, trace_len);
    prof = profileTrace(dynTrace, studyProfilerConfig());
    seedMemo();
}

DseStudy::DseStudy(const BenchmarkProfile &bench, InstCount trace_len,
                   const Program &program)
    : benchName(bench.name)
{
    TraceExecutor exec(program, bench.seed ^ 0xabcdef1234567890ull);
    dynTrace = exec.run(trace_len);
    prof = profileTrace(dynTrace, studyProfilerConfig());
    seedMemo();
}

DseStudy::DseStudy(ProfileArtifact artifact)
    : benchName(std::move(artifact.name)),
      dynTrace(std::move(artifact.trace)),
      prof(std::move(artifact.profile))
{
    seedMemo();
}

DseStudy::~DseStudy() = default;
DseStudy::DseStudy(DseStudy &&) noexcept = default;
DseStudy &DseStudy::operator=(DseStudy &&) noexcept = default;

ProfileArtifact
DseStudy::artifact(bool include_trace) const
{
    ProfileArtifact out;
    out.name = benchName;
    out.profile = prof;
    out.hasTrace = include_trace && !dynTrace.empty();
    if (out.hasTrace)
        out.trace = dynTrace;
    return out;
}

void
DseStudy::save(const std::string &path, bool include_trace) const
{
    saveProfileArtifact(artifact(include_trace), path);
}

DseStudy
DseStudy::load(const std::string &path)
{
    return DseStudy(loadProfileArtifact(path));
}

DseStudy
DseStudy::loadOrProfile(const std::string &dir,
                        const BenchmarkProfile &bench,
                        InstCount trace_len)
{
    if (!dir.empty()) {
        std::string path = profileArtifactPath(dir, bench.name);
        if (std::filesystem::exists(path)) {
            try {
                return load(path);
            } catch (const ProfileIoError &e) {
                // A damaged artifact is a user-input problem, not a
                // library bug: report it cleanly instead of letting
                // the exception escape (or terminate a worker).
                fatal("cannot load profile artifact '", path,
                      "': ", e.what());
            }
        }
    }
    return DseStudy(bench, trace_len);
}

std::vector<std::unique_ptr<DseStudy>>
DseStudy::loadOrProfileAll(const std::string &dir,
                           const std::vector<BenchmarkProfile> &benches,
                           InstCount trace_len, ThreadPool &pool)
{
    // Profiling is milliseconds-scale work: one chunk per benchmark.
    // parallelFor drains the whole range before rethrowing the first
    // error, so no task is still writing studies[] when it unwinds.
    std::vector<std::unique_ptr<DseStudy>> studies(benches.size());
    pool.parallelFor(benches.size(), 1,
                     [&](std::size_t begin, std::size_t end) {
                         for (std::size_t b = begin; b < end; ++b) {
                             studies[b] = std::make_unique<DseStudy>(
                                 loadOrProfile(dir, benches[b],
                                               trace_len));
                         }
                     });
    return studies;
}

void
DseStudy::seedMemo()
{
    // The profile was collected on the default hierarchy, so its own
    // MemoryStats are the default geometry's: no re-sweep needed.
    const DesignPoint def = defaultDesignPoint();
    l2Memo = std::make_unique<L2Memo>();
    l2Memo->get({def.l2KB, def.l2Assoc}, [this] { return prof.memory; });
}

const MemoryStats &
DseStudy::memoryFor(const DesignPoint &point) const
{
    return l2Memo->get({point.l2KB, point.l2Assoc}, [&] {
        return resweepL2(prof, hierarchyFor(point).l2);
    });
}

void
DseStudy::prepare(const std::vector<DesignPoint> &points) const
{
    // Cold geometries grouped by (set count, line size).  Within a
    // group the size grows with the associativity, so sorted keys end
    // at the widest.
    std::map<std::pair<std::uint64_t, std::uint32_t>,
             std::vector<L2Memo::Key>>
        groups;
    for (const auto &point : points) {
        const L2Memo::Key key{point.l2KB, point.l2Assoc};
        if (l2Memo->find(key))
            continue;
        const CacheConfig l2 = hierarchyFor(point).l2;
        l2.validate();
        std::vector<L2Memo::Key> &keys =
            groups[{l2.numSets(), l2.blockBytes}];
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }

    for (auto &[shape, keys] : groups) {
        std::sort(keys.begin(), keys.end());
        // One pass capped at the widest way count serves the group.
        const std::vector<std::uint32_t> depths = l2StackDepths(
            prof, shape.first, shape.second, keys.back().second);
        for (const L2Memo::Key &key : keys) {
            l2Memo->get(key, [&] {
                return resweepL2FromDepths(prof, depths, key.second);
            });
        }
    }
}

bool
DseStudy::profiles(PredictorKind kind) const
{
    return std::any_of(prof.branchProfiles.begin(),
                       prof.branchProfiles.end(),
                       [kind](const auto &bp) { return bp.kind == kind; });
}

PointEvaluation
DseStudy::evaluate(const DesignPoint &point,
                   const BackendSet &backends) const
{
    PointEvaluation ev;
    evaluateInto(ev, point, backends);
    return ev;
}

void
DseStudy::evaluateInto(PointEvaluation &out, const DesignPoint &point,
                       const BackendSet &backends) const
{
    out.point = point;
    // resize + assign rather than clear + push_back: the first result
    // is stored inline and a warm slot keeps its spill storage, and a
    // model-backend EvalResult holds no heap state (SSO name, flat
    // stack, null detail pointers), so a model-only evaluation
    // allocates nothing.
    out.results.resize(backends.size());

    EvalRequest req;
    req.program = &prof.program;
    req.memory = &memoryFor(point);
    req.branch = &prof.branchProfileFor(point.predictor);
    req.trace = dynTrace.empty() ? nullptr : &dynTrace;
    req.point = point;

    for (std::size_t i = 0; i < backends.size(); ++i) {
        MECH_ASSERT(backends[i], "null backend in set");
        out.results[i] = backends[i]->evaluate(req);
    }
}

} // namespace mech
