#include "oosim/oosim.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "sim/miss_latency.hh"

namespace mech {

namespace {

/** Sentinel "not known yet" cycle. */
constexpr Cycles kUnknown = std::numeric_limits<Cycles>::max();

/** Sentinel "no pending producer" tag. */
constexpr std::uint64_t kNoTag = std::numeric_limits<std::uint64_t>::max();

/** Functional-unit classes the scheduler arbitrates over. */
enum class FuType : std::uint8_t { Alu, Mul, Mem, Br };

constexpr std::size_t kNumFuTypes = 4;

/** Map an op class onto its functional-unit class. */
FuType
fuTypeOf(OpClass oc)
{
    if (isMem(oc))
        return FuType::Mem;
    if (isBranch(oc))
        return FuType::Br;
    if (isLongLatencyClass(oc))
        return FuType::Mul;
    return FuType::Alu; // IntAlu, Nop
}

/** One centralized reservation-station (issue queue) entry. */
struct RsEntry
{
    FuType fu = FuType::Alu;
    Cycles lat = 1; ///< service latency once issued

    /** Pending producer tags; kNoTag == ready bit set. */
    std::uint64_t src1Tag = kNoTag;
    std::uint64_t src2Tag = kNoTag;

    bool ready() const { return src1Tag == kNoTag && src2Tag == kNoTag; }
};

/**
 * Per-instruction state from dispatch to retirement, in a ring
 * indexed by trace index (the result tag).  The ROB holds at most
 * robSize consecutive indices, so `idx & mask` over a power-of-two
 * ring of at least robSize slots never aliases two live entries.
 */
struct RobSlot
{
    /** Issue-queue entry; meaningful until the instruction issues. */
    RsEntry rs;

    /** Written back (result bus granted); may retire next cycle. */
    bool completed = false;

    /** Issue-queue entries waiting on this instruction's tag. */
    std::vector<std::uint64_t> consumers;
};

/**
 * The out-of-order pipeline state machine.
 *
 * One instance simulates one trace.  Per-cycle processing order is
 * retire -> writeback (result-bus grant + wakeup broadcast) -> select
 * -> dispatch -> fetch, which realizes the half-cycle contract: a
 * result written back in cycle t wakes and fires its consumers in the
 * same cycle (back-to-back dependent issue), while instructions
 * dispatched in cycle t cannot be selected before t+1 and completed
 * instructions retire no earlier than the cycle after writeback.
 *
 * Every stage touches only the instructions it acts on: completions
 * wait in a calendar of per-cycle buckets, a written-back tag wakes
 * only its registered consumers, and select walks only the entries
 * whose operands are ready.
 */
class OoOPipeline
{
  public:
    OoOPipeline(const Trace &trace, const OoOSimConfig &config)
        : trace(trace), cfg(config), machine(config.core.machine),
          ooo(config.ooo), hier(config.core.hierarchy),
          predictor(makePredictor(config.core.predictor)),
          feDelay(config.core.machine.frontendDepth - 1),
          feCapacity(static_cast<std::size_t>(
                         config.core.machine.frontendDepth) *
                     config.core.machine.width)
    {
        machine.validate();
        if (ooo.robSize < 1 || ooo.iqSize < 1)
            fatal("out-of-order core needs a ROB and an issue queue "
                  "(rob=", ooo.robSize, ", iq=", ooo.iqSize, ")");
        if (ooo.fuAlu < 1 || ooo.fuMul < 1 || ooo.fuMem < 1 ||
            ooo.fuBr < 1) {
            fatal("every functional-unit class needs at least one "
                  "unit (alu=", ooo.fuAlu, ", mul=", ooo.fuMul,
                  ", mem=", ooo.fuMem, ", br=", ooo.fuBr, ")");
        }
        if (ooo.resultBuses < 1)
            fatal("out-of-order core needs at least one result bus");
        fuCount = {ooo.fuAlu, ooo.fuMul, ooo.fuMem, ooo.fuBr};
        regTag.fill(kNoTag);

        feReadyAt.resize(std::bit_ceil(feCapacity));
        feMask = feReadyAt.size() - 1;

        rob.resize(std::bit_ceil(static_cast<std::size_t>(ooo.robSize)));
        robMask = rob.size() - 1;

        // A bucket is drained every cycle, so a ring longer than the
        // largest issue-to-completion latency never aliases two
        // pending completion cycles.
        Cycles max_lat = maxDataServiceCycles(machine);
        for (std::size_t oc = 0; oc < kNumOpClasses; ++oc) {
            max_lat = std::max(
                max_lat, machine.execLatency(static_cast<OpClass>(oc)));
        }
        calendar.resize(std::bit_ceil(static_cast<std::size_t>(max_lat) + 1));
        calendarMask = calendar.size() - 1;
        ready.reserve(ooo.iqSize);
    }

    OoOSimResult run();

  private:
    void step(Cycles t);

    void retire(Cycles t);
    void writeback(Cycles t);
    void select(Cycles t);
    void dispatch(Cycles t);
    void fetch(Cycles t);

    /** ROB slot of trace index @p idx. */
    RobSlot &slot(std::uint64_t idx) { return rob[idx & robMask]; }

    /** Add issue-queue entry @p idx to the age-sorted ready list. */
    void
    markReady(std::uint64_t idx)
    {
        ready.insert(std::lower_bound(ready.begin(), ready.end(), idx),
                     idx);
    }

    /** Write back @p idx: ROB completion, tag release, wakeup. */
    void complete(std::uint64_t idx, Cycles t);

    const Trace &trace;
    OoOSimConfig cfg;
    MachineParams machine;
    OooParams ooo;
    CacheHierarchy hier;
    std::unique_ptr<BranchPredictor> predictor;

    /** Fetch-to-dispatch pipeline delay (front end minus dispatch). */
    const Cycles feDelay;

    /** Front-end buffer capacity (D stages of W slots). */
    const std::size_t feCapacity;

    /** Units per FuType, indexed by static_cast<size_t>(FuType). */
    std::array<std::uint32_t, kNumFuTypes> fuCount{};

    /** regTag[r]: trace index of r's latest in-flight producer. */
    std::array<std::uint64_t, kNumArchRegs> regTag{};

    /**
     * Fetched instructions flowing toward dispatch are the trace range
     * [dispatched, nextFetchIdx); feReadyAt[idx & feMask] is the first
     * cycle dispatch may take idx.
     */
    std::vector<Cycles> feReadyAt;
    std::uint64_t feMask = 0;

    /**
     * Reorder buffer: slots for the contiguous trace-index range
     * [retired, dispatched).
     */
    std::vector<RobSlot> rob;
    std::uint64_t robMask = 0;

    /** Instructions in the issue queue (dispatched, not issued). */
    std::uint32_t rsCount = 0;

    /** Issue-queue entries with both operands ready, oldest first. */
    std::vector<std::uint64_t> ready;

    /**
     * Completion calendar: calendar[c & calendarMask] holds the
     * instructions whose execution finishes in cycle c.
     */
    std::vector<std::vector<std::uint64_t>> calendar;
    std::uint64_t calendarMask = 0;

    /** Finished instructions awaiting a result bus, oldest first. */
    std::vector<std::uint64_t> awaitingBus;

    std::uint64_t nextFetchIdx = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t retired = 0;

    /** Last trace index probed against the instruction side. */
    std::uint64_t probedFetchIdx = kUnknown;

    /** Fetch stalled until this cycle (miss / taken bubble). */
    Cycles fetchReadyAt = 0;

    /** Trace index of an unresolved mispredicted branch, if any. */
    std::uint64_t pendingRedirectIdx = kUnknown;

    /** Diagnostics. */
    OoOSimResult stats;

    /** Cause of the current fetch stall (diagnostics only). */
    enum class FetchStall : std::uint8_t { None, Miss, TakenBubble };
    FetchStall fetchStallCause = FetchStall::None;
};

void
OoOPipeline::retire(Cycles t)
{
    (void)t;
    std::uint32_t moved = 0;
    while (retired < dispatched && moved < machine.width &&
           slot(retired).completed) {
        ++retired;
        ++moved;
    }
}

void
OoOPipeline::writeback(Cycles t)
{
    // Instructions finishing execution this cycle join the ones still
    // waiting for a bus from earlier cycles.
    auto &bucket = calendar[t & calendarMask];
    for (std::uint64_t idx : bucket) {
        awaitingBus.insert(std::lower_bound(awaitingBus.begin(),
                                            awaitingBus.end(), idx),
                           idx);
    }
    bucket.clear();
    if (awaitingBus.empty())
        return;

    // Oldest-first result-bus arbitration.
    const std::size_t grants =
        std::min<std::size_t>(awaitingBus.size(), ooo.resultBuses);
    stats.busStallEvents += awaitingBus.size() - grants;
    for (std::size_t i = 0; i < grants; ++i)
        complete(awaitingBus[i], t);
    awaitingBus.erase(awaitingBus.begin(),
                      awaitingBus.begin() +
                          static_cast<std::ptrdiff_t>(grants));
}

void
OoOPipeline::complete(std::uint64_t idx, Cycles t)
{
    const DynInstr &di = trace[idx];
    RobSlot &producer = slot(idx);

    // Completion reaches the ROB; retirement happens next cycle.
    producer.completed = true;

    // Release the architectural tag if still the latest producer.
    if (di.hasDst() && regTag[di.dst] == idx)
        regTag[di.dst] = kNoTag;

    // Wakeup: set the ready bits of the entries waiting on this tag.
    for (std::uint64_t consumer : producer.consumers) {
        RsEntry &e = slot(consumer).rs;
        if (e.src1Tag == idx)
            e.src1Tag = kNoTag;
        if (e.src2Tag == idx)
            e.src2Tag = kNoTag;
        if (e.ready())
            markReady(consumer);
    }
    producer.consumers.clear();

    // Misprediction resolves at writeback: the front end restarts on
    // the correct path next cycle.
    if (idx == pendingRedirectIdx) {
        fetchReadyAt = t + 1;
        pendingRedirectIdx = kUnknown;
        fetchStallCause = FetchStall::None;
    }
}

void
OoOPipeline::select(Cycles t)
{
    std::array<std::uint32_t, kNumFuTypes> fired{};
    std::size_t kept = 0;
    for (std::uint64_t idx : ready) {
        const RsEntry &e = slot(idx).rs;
        const auto fu = static_cast<std::size_t>(e.fu);
        if (fired[fu] < fuCount[fu]) {
            ++fired[fu];
            --rsCount;
            // A zero-latency result still writes back no earlier than
            // the next cycle's writeback stage.
            const Cycles lat = std::max<Cycles>(e.lat, 1);
            MECH_ASSERT(lat <= calendarMask, "latency outruns calendar");
            calendar[(t + lat) & calendarMask].push_back(idx);
            continue;
        }
        ++stats.fuStallEvents;
        ready[kept++] = idx;
    }
    ready.resize(kept);
}

void
OoOPipeline::dispatch(Cycles t)
{
    std::uint32_t moved = 0;
    bool robBlocked = false;
    bool iqBlocked = false;
    while (dispatched < nextFetchIdx && moved < machine.width &&
           feReadyAt[dispatched & feMask] <= t) {
        if (dispatched - retired >= ooo.robSize) {
            robBlocked = true;
            break;
        }
        if (rsCount >= ooo.iqSize) {
            iqBlocked = true;
            break;
        }
        const std::uint64_t idx = dispatched;
        const DynInstr &di = trace[idx];

        RobSlot &entry = slot(idx);
        entry.completed = false;
        RsEntry &rs = entry.rs;
        rs = RsEntry{};
        rs.fu = fuTypeOf(di.op);
        rs.lat = rs.fu == FuType::Mem
                     ? dataService(hier, di, cfg.core).cycles
                     : machine.execLatency(di.op);
        // Source tags read the rename state *before* this
        // instruction's own destination claim (WAR-safe).  Each
        // distinct pending producer records this entry as a consumer.
        if (di.src1 != kNoReg)
            rs.src1Tag = regTag[di.src1];
        if (di.src2 != kNoReg)
            rs.src2Tag = regTag[di.src2];
        if (rs.src1Tag != kNoTag)
            slot(rs.src1Tag).consumers.push_back(idx);
        if (rs.src2Tag != kNoTag && rs.src2Tag != rs.src1Tag)
            slot(rs.src2Tag).consumers.push_back(idx);
        if (di.hasDst())
            regTag[di.dst] = idx;
        if (rs.ready())
            ready.push_back(idx); // youngest entry: order is kept

        ++rsCount;
        ++dispatched;
        ++moved;
    }
    if (robBlocked)
        ++stats.robStallCycles;
    else if (iqBlocked)
        ++stats.iqStallCycles;

    stats.maxRobOccupancy = std::max<std::uint32_t>(
        stats.maxRobOccupancy,
        static_cast<std::uint32_t>(dispatched - retired));
    stats.maxIqOccupancy =
        std::max<std::uint32_t>(stats.maxIqOccupancy, rsCount);
}

void
OoOPipeline::fetch(Cycles t)
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
    while (fetched < machine.width &&
           nextFetchIdx - dispatched < feCapacity &&
           nextFetchIdx < trace.size()) {
        const DynInstr &di = trace[nextFetchIdx];

        // Probe the instruction side exactly once per instruction (the
        // profiler sees the very same access stream).  On a miss the
        // instruction is NOT consumed: it waits for its line, while
        // anything fetched earlier this cycle proceeds down the pipe.
        if (nextFetchIdx != probedFetchIdx && !cfg.core.perfectICache) {
            const Cycles stall = fetchMissCycles(hier, di.pc, cfg.core);
            probedFetchIdx = nextFetchIdx;
            if (stall > 0) {
                fetchReadyAt = t + stall;
                fetchStallCause = FetchStall::Miss;
                break;
            }
        }

        feReadyAt[nextFetchIdx & feMask] = t + feDelay;
        ++nextFetchIdx;
        ++fetched;

        if (isBranch(di.op)) {
            bool predicted = predictor->predict(di.pc);
            predictor->update(di.pc, di.taken);
            if (predicted != di.taken) {
                ++stats.mispredicts;
                // Wrong path: nothing useful can be fetched until the
                // branch resolves at writeback.
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

void
OoOPipeline::step(Cycles t)
{
    retire(t);
    writeback(t);
    select(t);
    dispatch(t);
    fetch(t);
}

OoOSimResult
OoOPipeline::run()
{
    Cycles t = 0;
    const Cycles guard =
        trace.size() * (machine.l2HitCycles + machine.memCycles +
                        machine.tlbMissCycles + 64) +
        1000000;
    while (retired < trace.size()) {
        step(t);
        ++t;
        if (t > guard)
            panic("out-of-order pipeline deadlock: retired ", retired,
                  " of ", trace.size(), " instructions after ", t,
                  " cycles");
    }
    stats.cycles = t;
    stats.retired = retired;
    return stats;
}

} // namespace

OoOSimResult
simulateOutOfOrder(const Trace &trace, const OoOSimConfig &config)
{
    if (trace.empty())
        return OoOSimResult{};
    OoOPipeline pipe(trace, config);
    return pipe.run();
}

OoOSimConfig
oooSimConfigFor(const DesignPoint &point, const LatencySpec &spec)
{
    OoOSimConfig cfg;
    cfg.core = simConfigFor(point, spec);
    cfg.ooo = point.ooo;
    return cfg;
}

} // namespace mech
