/**
 * @file
 * Miss-latency arithmetic shared by the cycle-accurate simulators.
 *
 * Both pipelines (src/sim/ in-order, src/oosim/ out-of-order) probe
 * the same hierarchy with the same idealization knobs and turn the
 * outcome into cycles the same way: an L2 hit costs the L2 latency,
 * a memory access the L2 latency plus the memory latency, and a TLB
 * miss adds the page walk on top.  Only what a pipeline does with the
 * number differs — a fetch stall, a memory-stage occupancy, or an
 * issue-to-completion latency — so the arithmetic lives here once.
 */

#ifndef MECH_SIM_MISS_LATENCY_HH
#define MECH_SIM_MISS_LATENCY_HH

#include <algorithm>

#include "cache/hierarchy.hh"
#include "isa/machine_params.hh"
#include "sim/inorder_sim.hh"
#include "trace/trace.hh"

namespace mech {

/**
 * Probe the instruction side for the block holding @p pc and return
 * the fetch stall it causes (0 on an L1I hit with a TLB hit).
 */
inline Cycles
fetchMissCycles(CacheHierarchy &hier, Addr pc, const SimConfig &cfg)
{
    const HierAccess acc = hier.fetch(pc);
    const MachineParams &m = cfg.machine;
    Cycles stall = 0;
    if (acc.level == MemLevel::L2)
        stall += m.l2HitCycles;
    else if (acc.level == MemLevel::Memory)
        stall += m.l2HitCycles + m.memCycles;
    if (acc.tlbMiss && !cfg.perfectTlbs)
        stall += m.tlbMissCycles;
    return stall;
}

/** Data-side service demand of one instruction. */
struct DataService
{
    /** Cycles from the start of the access to its result. */
    Cycles cycles = 1;

    /**
     * True when the access holds the (single) miss port: L2/memory
     * service and page walks serialize, and so does a multi-cycle L1
     * under a perfect data cache; plain L1 hits are pipelined.
     */
    bool serialized = false;
};

/**
 * Probe the data side for @p di and return its service demand.
 *
 * Loads pay their level's latency; stores probe so cache/TLB state
 * tracks the profiler, but the ideal store buffer hides their
 * latency; every other class takes one cycle without a probe.
 */
inline DataService
dataService(CacheHierarchy &hier, const DynInstr &di, const SimConfig &cfg)
{
    const MachineParams &m = cfg.machine;
    DataService svc;
    if (di.op == OpClass::Store) {
        if (!cfg.perfectDCache)
            (void)hier.data(di.effAddr, true);
        return svc;
    }
    if (di.op != OpClass::Load)
        return svc;
    svc.cycles = m.dl1HitCycles;
    if (cfg.perfectDCache) {
        svc.serialized = svc.cycles > 1;
        return svc;
    }
    const HierAccess acc = hier.data(di.effAddr, false);
    if (acc.level == MemLevel::L2) {
        svc.cycles = m.l2HitCycles;
        svc.serialized = true;
    } else if (acc.level == MemLevel::Memory) {
        svc.cycles = m.l2HitCycles + m.memCycles;
        svc.serialized = true;
    }
    if (acc.tlbMiss && !cfg.perfectTlbs) {
        svc.cycles += m.tlbMissCycles;
        svc.serialized = true;
    }
    return svc;
}

/** Upper bound of dataService().cycles on machine @p m. */
inline Cycles
maxDataServiceCycles(const MachineParams &m)
{
    return std::max(m.dl1HitCycles, m.l2HitCycles + m.memCycles) +
           m.tlbMissCycles;
}

} // namespace mech

#endif // MECH_SIM_MISS_LATENCY_HH
