/**
 * @file
 * Analytical power/energy model (McPAT substitute).
 *
 * The paper's third case study (§6.3, Fig. 9) drives a
 * power/performance design-space exploration with McPAT at 32 nm.
 * McPAT is not available here, so this module provides an analytical
 * substitute with the scaling behaviours the case study exercises:
 *
 *  - dynamic energy per instruction grows with superscalar width
 *    (wider bypass networks, more ports);
 *  - per-cycle overhead (clock tree, latches) grows with width and
 *    pipeline depth;
 *  - SRAM access energy grows with capacity; static power grows with
 *    total on-chip SRAM;
 *  - voltage scales with frequency (lower-frequency design points run
 *    at lower voltage), so dynamic energy drops superlinearly and
 *    static power drops with V.
 *
 * Absolute watts are calibration constants; the case study's
 * conclusions depend only on the *relative* ordering of design
 * points, which these scalings determine (DESIGN.md §1).
 */

#ifndef MECH_POWER_POWER_MODEL_HH
#define MECH_POWER_POWER_MODEL_HH

#include <cstdint>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "isa/machine_params.hh"

namespace mech {

/** Activity counts the energy estimate is based on. */
struct ActivityCounts
{
    /** Execution cycles. */
    double cycles = 0;

    /** Dynamic instructions committed. */
    double instructions = 0;

    /** L1I accesses (instruction fetches). */
    double l1iAccesses = 0;

    /** L1D accesses (loads + stores). */
    double l1dAccesses = 0;

    /** Unified L2 accesses (L1 misses). */
    double l2Accesses = 0;

    /** Main-memory accesses (L2 misses). */
    double memAccesses = 0;

    /** Conditional branches (predictor lookups). */
    double branches = 0;
};

/** Energy estimate, decomposed. */
struct EnergyBreakdown
{
    double coreDynamicJ = 0;   ///< pipeline + functional units
    double cacheDynamicJ = 0;  ///< L1s + L2 + predictor SRAM
    double memoryDynamicJ = 0; ///< off-chip accesses
    double staticJ = 0;        ///< leakage over the run

    /** Total energy in joules. */
    double
    totalJ() const
    {
        return coreDynamicJ + cacheDynamicJ + memoryDynamicJ + staticJ;
    }
};

/** Analytical power model over one design point. */
class PowerModel
{
  public:
    /**
     * @param machine Core parameters (width, depth, frequency).
     * @param hierarchy Cache geometry.
     * @param predictor Branch predictor design (SRAM budget).
     */
    PowerModel(const MachineParams &machine,
               const HierarchyConfig &hierarchy, PredictorKind predictor);

    /** Estimate the energy of a run with the given activity. */
    EnergyBreakdown energy(const ActivityCounts &activity) const;

    /**
     * Energy-delay product in joule-seconds of a run that took
     * @p cycles at the configured frequency and whose energy() is
     * @p breakdown — the caller's, not a recomputation.
     */
    double edp(const EnergyBreakdown &breakdown, double cycles) const;

    /** Supply-voltage scale factor at the configured frequency. */
    double voltageScale() const;

    /** Static power in watts at the configured voltage. */
    double staticPowerW() const;

  private:
    MachineParams machine;
    HierarchyConfig hier;
    PredictorKind pred;
};

} // namespace mech

#endif // MECH_POWER_POWER_MODEL_HH
