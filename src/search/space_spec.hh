/**
 * @file
 * Generative design spaces: declarative axes, lazy enumeration.
 *
 * The paper's payoff is that a model evaluation costs microseconds,
 * so design-space exploration is bounded by how many points can be
 * *described*, not how many can be afforded.  The seed repo could
 * only enumerate the fixed 192-point Table 2 grid; a SpaceSpec
 * instead parameterizes each DesignPoint axis (L2 size/assoc,
 * depth/frequency operating points, width, predictor) with explicit
 * value lists — built programmatically, from named presets, or from a
 * compact text grammar — and enumerates the cross product lazily by
 * index, so spaces of 10k-1M+ points cost nothing to hold.
 *
 * Enumeration order is the mixed-radix order of the axes with l2KB
 * most significant and the predictor least significant; the `table2`
 * preset reproduces table2Space() element-for-element under it.
 *
 * Text grammar (axes separated by ';', values by ','):
 *
 *   l2kb=128:1024:*2; assoc=8,16; depth=5@0.6,7@0.8,9@1.0;
 *   width=1:4; pred=gshare1k,hybrid3k5; rob=32:256:*2; buses=2,4
 *
 *   - numeric axes take value lists ("1,2,3") and ranges: "lo:hi"
 *     steps by +1, "lo:hi:+s" by adding s, "lo:hi:*m" by multiplying
 *     by m (for power-of-two sweeps);
 *   - the depth axis takes "depth@freqGHz" operating points, mirroring
 *     Table 2's coupling of pipeline depth and clock frequency;
 *   - pred takes predictor keys (predictorKey());
 *   - the out-of-order structures are axes of their own: rob (reorder
 *     buffer entries), iq (issue-queue entries), fualu/fumul/fumem/fubr
 *     (functional-unit counts per class) and buses (result buses).
 *     They only matter to the out-of-order backends ("ooo", "oosim");
 *     the in-order backends ignore them;
 *   - an omitted axis defaults to the Table 2 default point's value
 *     (for the out-of-order axes, the OooParams defaults);
 *   - a preset name ("table2", "wide") may be used instead of a
 *     grammar string, as may "mdesc:<path>", which pins the space to
 *     the single design point of a characterized machine description
 *     (see characterize/mdesc.hh).  Loading the point is pure — it
 *     does not install the file's latency table; pass --mdesc to the
 *     tool for that.
 */

#ifndef MECH_SEARCH_SPACE_SPEC_HH
#define MECH_SEARCH_SPACE_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dse/design_space.hh"

namespace mech {

/** One coupled (pipeline depth, clock frequency) operating point. */
struct DepthFreq
{
    std::uint32_t depth = 9;
    double freqGHz = 1.0;

    bool operator==(const DepthFreq &other) const = default;
};

/** A declarative, lazily enumerable design space. */
class SpaceSpec
{
  public:
    /**
     * Largest supported L2 capacity (64 MiB), 8x the `wide` preset's
     * top end.  check() rejects anything larger: L2 geometry sizes
     * the detailed simulators' tag arrays, and the serve layer runs
     * *client* design points through these invariants, so the bound
     * is what keeps a hostile request from demanding a pathological
     * allocation.  The model's L2 sweep allocates per touched set,
     * never per geometry.
     */
    static constexpr std::uint64_t kMaxL2KB = 64 * 1024;

    /**
     * Bounds on the out-of-order structure axes.  Like kMaxL2KB they
     * exist because the serve layer runs *client* axes through
     * check(): the reorder buffer and issue queue size per-point
     * allocations in the cycle-accurate pipeline, and the functional
     * unit / result bus counts size per-cycle scan work.
     */
    static constexpr std::uint32_t kMaxRobSize = 4096;
    static constexpr std::uint32_t kMaxIqSize = 4096;
    static constexpr std::uint32_t kMaxFuCount = 64;
    static constexpr std::uint32_t kMaxResultBuses = 64;

    /**
     * Number of design-point axes (l2kb, assoc, depth, width, pred,
     * rob, iq, fualu, fumul, fumem, fubr, buses).  The out-of-order
     * axes were appended *least significant* so specs without them
     * enumerate in the same order as before they existed.
     */
    static constexpr std::size_t kAxes = 12;

    /** L2 capacities in KiB (axis 0, most significant). */
    std::vector<std::uint64_t> l2KB;

    /** L2 associativities (axis 1). */
    std::vector<std::uint32_t> l2Assoc;

    /** Depth/frequency operating points (axis 2). */
    std::vector<DepthFreq> depthFreq;

    /** Superscalar widths (axis 3). */
    std::vector<std::uint32_t> width;

    /** Branch predictor designs (axis 4). */
    std::vector<PredictorKind> predictor;

    /** Reorder-buffer sizes (axis 5). */
    std::vector<std::uint32_t> robSize;

    /** Issue-queue (reservation station) sizes (axis 6). */
    std::vector<std::uint32_t> iqSize;

    /** Simple-ALU counts (axis 7). */
    std::vector<std::uint32_t> fuAlu;

    /** Multiplier/divider (long-latency FU) counts (axis 8). */
    std::vector<std::uint32_t> fuMul;

    /** Memory-port counts (axis 9). */
    std::vector<std::uint32_t> fuMem;

    /** Branch-unit counts (axis 10). */
    std::vector<std::uint32_t> fuBr;

    /** Result-bus counts (axis 11, least significant). */
    std::vector<std::uint32_t> resultBuses;

    /** The Table 2 grid as a spec (enumerates as table2Space()). */
    static SpaceSpec table2();

    /**
     * A 12544-point expanded space: L2 64 KiB-8 MiB, associativity
     * 1-64, seven depth/frequency operating points (the Table 2
     * three plus deeper/faster pipelines up to 17@1.8), the full
     * supported width range 1-16, both Table 2 predictors.  The
     * ">= 10k points" scenario the seed exhaustive grid could not
     * express.
     */
    static SpaceSpec wide();

    /**
     * Parse a grammar string or preset name; calls fatal() on any
     * malformed input (a user error).
     */
    static SpaceSpec parse(const std::string &text);

    /**
     * parse() without the fatal(): nullopt plus a message in
     * @p error on rejection, so the grammar stays unit-testable.
     */
    static std::optional<SpaceSpec> tryParse(const std::string &text,
                                             std::string *error);

    /**
     * The one-point space containing exactly @p point.  The serve
     * layer uses it to run a client-supplied design point through the
     * same axis invariants (check()) and geometry preparation
     * (l2Geometries()) as a full space.
     */
    static SpaceSpec single(const DesignPoint &point);

    /**
     * Validate the axes: every axis non-empty and duplicate-free,
     * power-of-two L2 geometry with at least one set, widths within
     * the machine's [1,16], depths >= 5 (a 2-stage front end plus the
     * 3-stage back end), positive frequencies.  Calls fatal() on
     * violation.
     */
    void validate() const;

    /**
     * validate() without the fatal(): the first violated invariant as
     * a message, or an empty string when the axes are all valid.
     */
    std::string check() const { return checkAxes(); }

    /**
     * Whether any out-of-order structure axis is non-trivial: more
     * than one value, or a single value that differs from the
     * OooParams default.  The search and serve layers use this to
     * reject spaces that sweep out-of-order axes no selected backend
     * would ever read.
     */
    bool hasOooAxes() const;

    /** Number of points in the space (product of axis sizes). */
    std::uint64_t size() const;

    /** Cardinality of axis @p axis (0-based, see kAxes order). */
    std::uint64_t axisSize(std::size_t axis) const;

    /** The @p index-th point of the enumeration.  @pre index < size. */
    DesignPoint at(std::uint64_t index) const;

    /** Mixed-radix digits of @p index, one per axis. */
    std::vector<std::uint32_t> digitsOf(std::uint64_t index) const;

    /** The point selected by one digit per axis. */
    DesignPoint fromDigits(const std::vector<std::uint32_t> &digits) const;

    /** Canonical grammar string describing the axes. */
    std::string describe() const;

    /**
     * One representative point per distinct L2 geometry, for
     * memoizing MemoryStats before a search (DseStudy::prepare).
     */
    std::vector<DesignPoint> l2Geometries() const;

  private:
    /** The validate() invariants; empty string when they all hold. */
    std::string checkAxes() const;
};

} // namespace mech

#endif // MECH_SEARCH_SPACE_SPEC_HH
