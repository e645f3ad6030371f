#include "dse/design_space.hh"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"

namespace mech {

namespace {

/**
 * Convert a nanosecond spec to cycles at @p freq_ghz (at least 1):
 * max(1, ceil(ns * freq - 1e-9)).  machineFor() runs this eight times
 * per evaluation, so the ceiling is an integer truncation plus a
 * round-up of any fraction instead of a floating-point rounding
 * sequence; every result is the same integer.  At or above 2^52
 * every double is already whole.
 */
Cycles
nsToCycles(double ns, double freq_ghz)
{
    const double cycles = ns * freq_ghz - 1e-9;
    if (!(cycles > 1.0))
        return 1;
    if (cycles < 0x1p52) {
        const auto whole = static_cast<std::int64_t>(cycles);
        return static_cast<Cycles>(whole) +
               (static_cast<double>(whole) < cycles ? 1 : 0);
    }
    return static_cast<Cycles>(cycles);
}

/** Table 2 couples depth and frequency. */
double
freqForDepth(std::uint32_t depth)
{
    switch (depth) {
      case 5: return 0.6;
      case 7: return 0.8;
      case 9: return 1.0;
      default:
        fatal("unsupported pipeline depth ", depth,
              " (Table 2 uses 5/7/9)");
    }
}

/** The installed process-wide default spec (see activeLatencySpec). */
LatencySpec &
activeSpecStorage()
{
    static LatencySpec spec;
    return spec;
}

} // namespace

const LatencySpec &
activeLatencySpec()
{
    return activeSpecStorage();
}

void
setActiveLatencySpec(const LatencySpec &spec)
{
    activeSpecStorage() = spec;
}

std::string
DesignPoint::label() const
{
    std::ostringstream oss;
    oss << "L2:" << l2KB << "KB/" << l2Assoc << "w d" << depth << "@"
        << freqGHz << "GHz W" << width << " "
        << predictorName(predictor);
    if (!(ooo == OooParams{})) {
        oss << " rob" << ooo.robSize << "/iq" << ooo.iqSize << " fu"
            << ooo.fuAlu << "a" << ooo.fuMul << "m" << ooo.fuMem << "l"
            << ooo.fuBr << "b/" << ooo.resultBuses << "bus";
    }
    return oss.str();
}

std::string
DesignPoint::toKey() const
{
    std::ostringstream oss;
    oss << "l2kb=" << l2KB << ",assoc=" << l2Assoc
        << ",depth=" << depth << ",freq=" << exactDouble(freqGHz)
        << ",width=" << width << ",pred=" << predictorKey(predictor);
    // Out-of-order fields only when non-default: default-core keys
    // stay byte-identical to the pre-OoO-axes format.
    const OooParams defaults;
    if (ooo.robSize != defaults.robSize)
        oss << ",rob=" << ooo.robSize;
    if (ooo.iqSize != defaults.iqSize)
        oss << ",iq=" << ooo.iqSize;
    if (ooo.fuAlu != defaults.fuAlu)
        oss << ",fualu=" << ooo.fuAlu;
    if (ooo.fuMul != defaults.fuMul)
        oss << ",fumul=" << ooo.fuMul;
    if (ooo.fuMem != defaults.fuMem)
        oss << ",fumem=" << ooo.fuMem;
    if (ooo.fuBr != defaults.fuBr)
        oss << ",fubr=" << ooo.fuBr;
    if (ooo.resultBuses != defaults.resultBuses)
        oss << ",buses=" << ooo.resultBuses;
    return oss.str();
}

std::optional<DesignPoint>
DesignPoint::fromKey(std::string_view key)
{
    DesignPoint p;
    // The six core fields are required; the out-of-order fields are
    // optional and default when absent (pre-OoO keys stay parseable).
    static const char *const kFields[] = {
        "l2kb", "assoc", "depth", "freq",  "width", "pred", "rob",
        "iq",   "fualu", "fumul", "fumem", "fubr",  "buses"};
    constexpr std::size_t kNumFields = 13;
    constexpr std::size_t kNumRequired = 6;
    bool seen[kNumFields] = {};
    for (const std::string &field : cli::splitCsv(std::string(key))) {
        std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        std::string name = field.substr(0, eq);
        std::string value = field.substr(eq + 1);
        if (value.empty())
            return std::nullopt;
        // A repeated field is malformed, not a last-one-wins update.
        for (std::size_t f = 0; f < kNumFields; ++f) {
            if (name == kFields[f] && seen[f])
                return std::nullopt;
        }
        bool ok;
        if (name == "pred") {
            auto kind = predictorFromKey(value);
            ok = kind.has_value();
            if (ok)
                p.predictor = *kind;
            seen[5] = true;
        } else if (name == "freq") {
            ok = parseF64(value, &p.freqGHz) &&
                 std::isfinite(p.freqGHz) && p.freqGHz > 0.0;
            seen[3] = true;
        } else if (name == "l2kb") {
            ok = parseU64(value, &p.l2KB);
            seen[0] = true;
        } else if (name == "assoc") {
            ok = parseU32(value, &p.l2Assoc);
            seen[1] = true;
        } else if (name == "depth") {
            ok = parseU32(value, &p.depth);
            seen[2] = true;
        } else if (name == "width") {
            ok = parseU32(value, &p.width);
            seen[4] = true;
        } else if (name == "rob") {
            ok = parseU32(value, &p.ooo.robSize);
            seen[6] = true;
        } else if (name == "iq") {
            ok = parseU32(value, &p.ooo.iqSize);
            seen[7] = true;
        } else if (name == "fualu") {
            ok = parseU32(value, &p.ooo.fuAlu);
            seen[8] = true;
        } else if (name == "fumul") {
            ok = parseU32(value, &p.ooo.fuMul);
            seen[9] = true;
        } else if (name == "fumem") {
            ok = parseU32(value, &p.ooo.fuMem);
            seen[10] = true;
        } else if (name == "fubr") {
            ok = parseU32(value, &p.ooo.fuBr);
            seen[11] = true;
        } else if (name == "buses") {
            ok = parseU32(value, &p.ooo.resultBuses);
            seen[12] = true;
        } else {
            ok = false;
        }
        if (!ok)
            return std::nullopt;
    }
    for (std::size_t f = 0; f < kNumRequired; ++f) {
        if (!seen[f])
            return std::nullopt;
    }
    return p;
}

std::uint64_t
DesignPoint::hash() const
{
    // FNV-1a, 64-bit; every field is widened to 8 little-endian-style
    // bytes so the encoding never depends on host integer widths.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    std::uint64_t freq_bits;
    static_assert(sizeof(freq_bits) == sizeof(freqGHz));
    std::memcpy(&freq_bits, &freqGHz, sizeof(freq_bits));
    mix(l2KB);
    mix(l2Assoc);
    mix(depth);
    mix(freq_bits);
    mix(width);
    mix(static_cast<std::uint64_t>(predictor));
    mix(ooo.robSize);
    mix(ooo.iqSize);
    mix(ooo.fuAlu);
    mix(ooo.fuMul);
    mix(ooo.fuMem);
    mix(ooo.fuBr);
    mix(ooo.resultBuses);
    return h;
}

std::vector<DesignPoint>
table2Space()
{
    std::vector<DesignPoint> space;
    const std::uint64_t l2_sizes[] = {128, 256, 512, 1024};
    const std::uint32_t l2_assocs[] = {8, 16};
    const std::uint32_t depths[] = {5, 7, 9};
    const std::uint32_t widths[] = {1, 2, 3, 4};
    const PredictorKind predictors[] = {PredictorKind::Gshare1K,
                                        PredictorKind::Hybrid3K5};

    for (std::uint64_t l2 : l2_sizes) {
        for (std::uint32_t assoc : l2_assocs) {
            for (std::uint32_t depth : depths) {
                for (std::uint32_t width : widths) {
                    for (PredictorKind pred : predictors) {
                        DesignPoint p;
                        p.l2KB = l2;
                        p.l2Assoc = assoc;
                        p.depth = depth;
                        p.freqGHz = freqForDepth(depth);
                        p.width = width;
                        p.predictor = pred;
                        space.push_back(p);
                    }
                }
            }
        }
    }
    MECH_ASSERT(space.size() == 192, "Table 2 space must have 192 points");
    return space;
}

DesignPoint
defaultDesignPoint()
{
    DesignPoint p;
    p.l2KB = 512;
    p.l2Assoc = 8;
    p.depth = 9;
    p.freqGHz = 1.0;
    p.width = 4;
    p.predictor = PredictorKind::Gshare1K;
    return p;
}

MachineParams
machineFor(const DesignPoint &point, const LatencySpec &spec)
{
    MachineParams m;
    m.width = point.width;
    MECH_ASSERT(point.depth > 3, "need at least one front-end stage");
    m.frontendDepth = point.depth - 3; // EX/MEM/WB form the back end
    m.freqGHz = point.freqGHz;
    m.latIntMult = nsToCycles(spec.intMultNs, point.freqGHz);
    m.latIntDiv = nsToCycles(spec.intDivNs, point.freqGHz);
    m.latFpAlu = nsToCycles(spec.fpAluNs, point.freqGHz);
    m.latFpMult = nsToCycles(spec.fpMultNs, point.freqGHz);
    m.latFpDiv = nsToCycles(spec.fpDivNs, point.freqGHz);
    m.dl1HitCycles = spec.dl1Cycles;
    m.l2HitCycles = nsToCycles(spec.l2Ns, point.freqGHz);
    m.memCycles = nsToCycles(spec.memNs, point.freqGHz);
    m.tlbMissCycles = nsToCycles(spec.tlbNs, point.freqGHz);
    m.validate();
    return m;
}

HierarchyConfig
hierarchyFor(const DesignPoint &point)
{
    HierarchyConfig h;
    h.l1i = {32 * 1024, 4, 64};
    h.l1d = {32 * 1024, 4, 64};
    h.l2 = {point.l2KB * 1024, point.l2Assoc, 64};
    h.itlb = {32, 4096};
    h.dtlb = {32, 4096};
    return h;
}

SimConfig
simConfigFor(const DesignPoint &point, const LatencySpec &spec)
{
    SimConfig cfg;
    cfg.machine = machineFor(point, spec);
    cfg.hierarchy = hierarchyFor(point);
    cfg.predictor = point.predictor;
    return cfg;
}

} // namespace mech
