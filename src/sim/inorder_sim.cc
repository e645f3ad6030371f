#include "sim/inorder_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "sim/miss_latency.hh"

namespace mech {

namespace {

/** Sentinel "not known yet" cycle. */
constexpr Cycles kUnknown = std::numeric_limits<Cycles>::max();

/** An instruction in the execute or memory stage. */
struct StageEntry
{
    Cycles doneAt = 0;       ///< first cycle it may leave the stage
    bool serialized = false; ///< blocks its stage while in service
};

/**
 * Slots of the execute/memory ring: at least the 2W instructions the
 * two stages hold together at the largest supported width (16).
 */
constexpr std::uint64_t kStageRing = 32;

/**
 * Every counter a step can charge while moving nothing.  Skipped idle
 * cycles are charged through this list, so a new per-cycle counter
 * must join it.
 */
constexpr Cycles SimResult::*kStallCounters[] = {
    &SimResult::fetchMissStallCycles,
    &SimResult::takenBubbleCycles,
    &SimResult::mispredictStallCycles,
    &SimResult::dependencyStallCycles,
    &SimResult::backPressureStallCycles,
};

/**
 * The pipeline state machine.
 *
 * One instance simulates one trace; per-cycle processing moves
 * instructions downstream-first so a handoff takes effect on the next
 * stage in the same clock (simultaneous shift semantics), while each
 * instruction advances at most one stage per cycle.  Idle cycles are
 * skipped in bulk (see the file comment of inorder_sim.hh).
 *
 * The pipeline never reorders, so its contents are always the trace
 * range [retired, nextFetchIdx), cut into stages from oldest to
 * youngest: memory [retired, exHead), execute [exHead, feHead), then
 * the front end from the decode buffer back to the fetch output.
 * Moving instructions between stages moves only these boundaries.
 */
class Pipeline
{
  public:
    Pipeline(const Trace &trace, const SimConfig &config)
        : trace(trace), cfg(config), machine(config.machine),
          hier(config.hierarchy),
          predictor(makePredictor(config.predictor)),
          feCount(config.machine.frontendDepth, 0)
    {
        machine.validate();
        regReadyAt.fill(0);
    }

    SimResult run();

  private:
    /**
     * Process one full cycle @p t.
     * @return False when the cycle changed no state but the stall
     *         counters: nothing moved, no fetch stall started.
     */
    bool step(Cycles t);

    /** The stages; each returns how many instructions it moved. */
    std::uint32_t retireFromMem(Cycles t);
    std::uint32_t execToMem(Cycles t);
    std::uint32_t issue(Cycles t);
    std::uint32_t shiftFrontEnd();
    void fetch(Cycles t);

    /**
     * First cycle after @p t whose step can differ from the idle step
     * just run at @p t, capped at @p cap: the earliest stored time
     * the stages compare against that is still in the future.
     */
    Cycles nextEventAfter(Cycles t, Cycles cap) const;

    /** Execute/memory state of in-flight trace index @p idx. */
    StageEntry &entry(std::uint64_t idx) { return stage[idx % kStageRing]; }
    const StageEntry &
    entry(std::uint64_t idx) const
    {
        return stage[idx % kStageRing];
    }

    /** Instructions in the decode buffer (the oldest front-end stage). */
    std::uint32_t &decodeCount() { return feCount.back(); }

    /** True when every source of @p di is forwardable at cycle @p t. */
    bool
    operandsReady(const DynInstr &di, Cycles t) const
    {
        for (RegIndex src : {di.src1, di.src2}) {
            if (src != kNoReg && regReadyAt[src] > t)
                return false;
        }
        return true;
    }

    const Trace &trace;
    SimConfig cfg;
    MachineParams machine;
    CacheHierarchy hier;
    std::unique_ptr<BranchPredictor> predictor;

    /** regReadyAt[r]: first cycle a consumer entering EX may read r. */
    std::array<Cycles, kNumArchRegs> regReadyAt{};

    /**
     * Front-end stage occupancies (<= W each); [0] = fetch output,
     * [D-1] = decode buffer, which holds the oldest, from feHead on.
     */
    std::vector<std::uint32_t> feCount;

    /** Execute/memory entries, indexed by trace index. */
    std::array<StageEntry, kStageRing> stage{};

    std::uint64_t nextFetchIdx = 0; ///< next to fetch
    std::uint64_t feHead = 0;       ///< oldest in the front end
    std::uint64_t exHead = 0;       ///< oldest in execute
    std::uint64_t retired = 0;      ///< oldest in memory

    /** Last trace index probed against the instruction side. */
    std::uint64_t probedFetchIdx = kUnknown;

    /** Fetch stalled until this cycle (miss / taken bubble). */
    Cycles fetchReadyAt = 0;

    /** Trace index of an unresolved mispredicted branch, if any. */
    std::uint64_t pendingRedirectIdx = kUnknown;

    /** Diagnostics. */
    SimResult stats;

    /** Cause of the current fetch stall (diagnostics only). */
    enum class FetchStall : std::uint8_t { None, Miss, TakenBubble };
    FetchStall fetchStallCause = FetchStall::None;
};

std::uint32_t
Pipeline::retireFromMem(Cycles t)
{
    std::uint32_t moved = 0;
    while (retired < exHead && moved < machine.width) {
        if (entry(retired).doneAt > t)
            break; // in-order: younger entries cannot pass
        ++retired;
        ++moved;
    }
    return moved;
}

std::uint32_t
Pipeline::execToMem(Cycles t)
{
    // A missing load "blocks up the memory stage" (paper SS2.2): while
    // a serialized access is in service, nothing enters the stage.
    for (std::uint64_t i = retired; i < exHead; ++i) {
        if (entry(i).serialized && entry(i).doneAt > t)
            return 0;
    }

    std::uint32_t moved = 0;
    while (exHead < feHead && moved < machine.width &&
           exHead - retired < machine.width) {
        StageEntry &head = entry(exHead);
        if (head.doneAt > t)
            break; // oldest not finished: in-order block

        const DynInstr &di = trace[exHead];
        const DataService svc = dataService(hier, di, cfg);
        head.serialized = svc.serialized;
        head.doneAt = t + svc.cycles;

        // Loads produce their value when leaving the memory stage.
        if (di.op == OpClass::Load && di.hasDst())
            regReadyAt[di.dst] = head.doneAt;

        ++exHead;
        ++moved;

        // A serialized access admits nothing behind it this cycle.
        if (svc.serialized)
            break;
    }
    return moved;
}

std::uint32_t
Pipeline::issue(Cycles t)
{
    std::uint32_t moved = 0;
    bool stalled_on_deps = false;

    // A long-latency instruction in execute "blocks all subsequent
    // instructions" (paper SS2.2, in-order commit): no issue while one
    // is still executing.
    for (std::uint64_t i = exHead; i < feHead; ++i) {
        if (entry(i).serialized && entry(i).doneAt > t) {
            if (decodeCount() > 0)
                ++stats.backPressureStallCycles;
            return 0;
        }
    }

    while (decodeCount() > 0 && moved < machine.width &&
           feHead - exHead < machine.width) {
        const std::uint64_t idx = feHead;
        const DynInstr &di = trace[idx];

        if (!operandsReady(di, t)) {
            stalled_on_deps = true;
            break; // stall-on-use: this and all younger wait
        }

        Cycles lat = machine.execLatency(di.op);
        entry(idx) = {t + lat, lat > 1};

        if (di.hasDst()) {
            // Unit and long-latency results forward out of execute;
            // loads resolve later, at memory-stage entry.
            regReadyAt[di.dst] =
                di.op == OpClass::Load ? kUnknown : t + lat;
        }

        if (isBranch(di.op) && idx == pendingRedirectIdx) {
            // Misprediction resolves at the end of execute: the front
            // end restarts on the correct path next cycle.
            fetchReadyAt = t + lat;
            pendingRedirectIdx = kUnknown;
            fetchStallCause = FetchStall::None;
        }

        --decodeCount();
        ++feHead;
        ++moved;

        // A just-issued long-latency instruction immediately blocks
        // everything younger.
        if (lat > 1)
            break;
    }

    if (moved == 0 && decodeCount() > 0) {
        if (stalled_on_deps)
            ++stats.dependencyStallCycles;
        else
            ++stats.backPressureStallCycles;
    }
    return moved;
}

std::uint32_t
Pipeline::shiftFrontEnd()
{
    std::uint32_t moved = 0;
    for (std::size_t s = feCount.size() - 1; s >= 1; --s) {
        const std::uint32_t n =
            std::min(machine.width - feCount[s], feCount[s - 1]);
        feCount[s] += n;
        feCount[s - 1] -= n;
        moved += n;
    }
    return moved;
}

void
Pipeline::fetch(Cycles t)
{
    if (nextFetchIdx >= trace.size())
        return;

    if (pendingRedirectIdx != kUnknown) {
        ++stats.mispredictStallCycles;
        return;
    }
    if (fetchReadyAt > t) {
        if (fetchStallCause == FetchStall::Miss)
            ++stats.fetchMissStallCycles;
        else if (fetchStallCause == FetchStall::TakenBubble)
            ++stats.takenBubbleCycles;
        return;
    }
    fetchStallCause = FetchStall::None;

    std::uint32_t fetched = 0;
    while (fetched < machine.width && feCount[0] < machine.width &&
           nextFetchIdx < trace.size()) {
        const DynInstr &di = trace[nextFetchIdx];

        // Probe the instruction side exactly once per instruction (the
        // profiler sees the very same access stream).  On a miss the
        // instruction is NOT consumed: it waits for its line, while
        // anything fetched earlier this cycle proceeds down the pipe.
        if (nextFetchIdx != probedFetchIdx && !cfg.perfectICache) {
            const Cycles stall = fetchMissCycles(hier, di.pc, cfg);
            probedFetchIdx = nextFetchIdx;
            if (stall > 0) {
                fetchReadyAt = t + stall;
                fetchStallCause = FetchStall::Miss;
                break;
            }
        }

        ++feCount[0];
        ++nextFetchIdx;
        ++fetched;

        if (isBranch(di.op)) {
            bool predicted = predictor->predict(di.pc);
            predictor->update(di.pc, di.taken);
            if (predicted != di.taken) {
                ++stats.mispredicts;
                // Wrong path: nothing useful can be fetched until the
                // branch resolves in execute.
                pendingRedirectIdx = nextFetchIdx - 1;
                break;
            }
            if (predicted) {
                ++stats.predictedTakenCorrect;
                // Redirect is known one cycle after fetch: one bubble.
                fetchReadyAt = t + 2;
                fetchStallCause = FetchStall::TakenBubble;
                break;
            }
        }
    }
}

bool
Pipeline::step(Cycles t)
{
    const std::uint64_t fetched_before = nextFetchIdx;
    const Cycles ready_before = fetchReadyAt;
    std::uint32_t moved = retireFromMem(t);
    moved += execToMem(t);
    moved += issue(t);
    moved += shiftFrontEnd();
    fetch(t);
    return moved > 0 || nextFetchIdx != fetched_before ||
           fetchReadyAt != ready_before;
}

Cycles
Pipeline::nextEventAfter(Cycles t, Cycles cap) const
{
    // Every comparison an idle step makes has the form "stored time
    // > t"; its outcome first flips when t reaches that time.  Times
    // at or before t have flipped already, and kUnknown never flips.
    Cycles next = cap;
    const auto consider = [&](Cycles at) {
        if (at > t && at < next)
            next = at;
    };
    for (std::uint64_t i = retired; i < feHead; ++i)
        consider(entry(i).doneAt);
    consider(fetchReadyAt);
    if (feCount.back() > 0) {
        const DynInstr &head = trace[feHead];
        for (RegIndex src : {head.src1, head.src2}) {
            if (src != kNoReg)
                consider(regReadyAt[src]);
        }
    }
    return next;
}

SimResult
Pipeline::run()
{
    Cycles t = 0;
    const Cycles guard =
        trace.size() * (machine.l2HitCycles + machine.memCycles +
                        machine.tlbMissCycles + 64) +
        1000000;
    while (retired < trace.size()) {
        const SimResult before = stats;
        if (!step(t)) {
            // Cycles t+1 .. next-1 would repeat this idle step
            // exactly: charge them its stall deltas and jump.  The cap
            // lets a deadlock reach the guard panic unchanged.
            const Cycles next = nextEventAfter(t, guard + 1);
            const Cycles skipped = next - 1 - t;
            for (Cycles SimResult::*counter : kStallCounters)
                stats.*counter += (stats.*counter - before.*counter) *
                                  skipped;
            t = next - 1;
        }
        ++t;
        if (t > guard)
            panic("pipeline deadlock: retired ", retired, " of ",
                  trace.size(), " instructions after ", t, " cycles");
    }
    stats.cycles = t;
    stats.retired = retired;
    return stats;
}

} // namespace

SimResult
simulateInOrder(const Trace &trace, const SimConfig &config)
{
    if (trace.empty())
        return SimResult{};
    Pipeline pipe(trace, config);
    return pipe.run();
}

} // namespace mech
