#include "power/power_model.hh"

#include <cmath>

namespace mech {

namespace {

// Calibration constants (32 nm-class, order-of-magnitude realistic).
// Absolute values scale every design point identically; the case
// study depends on the relative terms only.
constexpr double kInstrEnergyNj = 0.06;   ///< base per-instruction
constexpr double kWidthEnergySlope = 0.35; ///< per extra slot of width
constexpr double kCycleEnergyNj = 0.012;  ///< per cycle per slot-stage
constexpr double kSram32kNj = 0.10;       ///< per access, 32 KiB array
constexpr double kMemAccessNj = 4.0;      ///< off-chip access
constexpr double kStaticCoreW = 0.05;     ///< per width slot at V=1
constexpr double kStaticSramWPerMB = 0.25; ///< per MiB at V=1
constexpr double kMaxFreqGHz = 1.0;       ///< V scaling reference

/** SRAM access energy scales ~sqrt(capacity) x weak assoc term. */
double
sramAccessNj(std::uint64_t bytes, std::uint32_t assoc)
{
    double size_scale = std::sqrt(static_cast<double>(bytes) /
                                  (32.0 * 1024.0));
    double assoc_scale = std::pow(static_cast<double>(assoc) / 4.0, 0.3);
    return kSram32kNj * size_scale * assoc_scale;
}

} // namespace

PowerModel::PowerModel(const MachineParams &machine,
                       const HierarchyConfig &hierarchy,
                       PredictorKind predictor)
    : machine(machine), hier(hierarchy), pred(predictor)
{
    machine.validate();
}

double
PowerModel::voltageScale() const
{
    // Lower-frequency design points run at proportionally lower
    // supply: V/Vmax = 0.6 + 0.4 f/fmax (clamped below by retention).
    double f_ratio = machine.freqGHz / kMaxFreqGHz;
    return 0.6 + 0.4 * std::min(1.0, f_ratio);
}

double
PowerModel::staticPowerW() const
{
    double sram_bytes =
        static_cast<double>(hier.l1i.sizeBytes + hier.l1d.sizeBytes +
                            hier.l2.sizeBytes + predictorBytes(pred));
    double core = kStaticCoreW * machine.width *
                  (0.7 + 0.1 * machine.depth());
    double sram = kStaticSramWPerMB * sram_bytes / (1024.0 * 1024.0);
    // Leakage scales ~V (first order).
    return (core + sram) * voltageScale();
}

EnergyBreakdown
PowerModel::energy(const ActivityCounts &activity) const
{
    EnergyBreakdown out;
    double v = voltageScale();
    double v2 = v * v; // dynamic energy scales with V^2

    // Core: per-instruction work grows with width (bypass, ports);
    // per-cycle overhead grows with width x depth (latches, clock).
    double w = machine.width;
    double per_instr =
        kInstrEnergyNj * (1.0 + kWidthEnergySlope * (w - 1.0));
    double per_cycle = kCycleEnergyNj * w *
                       static_cast<double>(machine.depth());
    out.coreDynamicJ = (activity.instructions * per_instr +
                        activity.cycles * per_cycle) *
                       v2 * 1e-9;

    // SRAM arrays.
    double cache_nj =
        activity.l1iAccesses * sramAccessNj(hier.l1i.sizeBytes,
                                            hier.l1i.assoc) +
        activity.l1dAccesses * sramAccessNj(hier.l1d.sizeBytes,
                                            hier.l1d.assoc) +
        activity.l2Accesses * sramAccessNj(hier.l2.sizeBytes,
                                           hier.l2.assoc) +
        activity.branches * sramAccessNj(
            std::max<std::uint64_t>(predictorBytes(pred), 64), 1);
    out.cacheDynamicJ = cache_nj * v2 * 1e-9;

    out.memoryDynamicJ = activity.memAccesses * kMemAccessNj * 1e-9;

    double seconds = activity.cycles / (machine.freqGHz * 1e9);
    out.staticJ = staticPowerW() * seconds;
    return out;
}

double
PowerModel::edp(const EnergyBreakdown &breakdown, double cycles) const
{
    double seconds = cycles / (machine.freqGHz * 1e9);
    return breakdown.totalJ() * seconds;
}

} // namespace mech
