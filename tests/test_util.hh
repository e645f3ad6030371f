/**
 * @file
 * Shared helpers for mechsim tests: hand-built micro-traces and
 * idealized simulator configurations that isolate one mechanism at a
 * time.
 */

#ifndef MECH_TESTS_TEST_UTIL_HH
#define MECH_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mech/mech.hh"

namespace mech::test {

/** Registers 0..7 are never written in micro-traces (always ready). */
inline constexpr RegIndex kLiveIn = 0;

/** Simulator configuration with perfect memory and no predictor noise. */
inline SimConfig
idealSim(std::uint32_t width = 4, std::uint32_t frontend_depth = 2)
{
    SimConfig cfg;
    cfg.machine.width = width;
    cfg.machine.frontendDepth = frontend_depth;
    cfg.perfectICache = true;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;
    return cfg;
}

/**
 * Cycles an N-instruction hazard-free trace takes on an idealized
 * pipeline: ceil(N/W) issue groups plus pipeline fill (D front-end
 * stages + execute + memory) plus the final loop increment.
 */
inline Cycles
idealCycles(InstCount n, std::uint32_t width, std::uint32_t depth)
{
    return (n + width - 1) / width + depth + 2;
}

/**
 * A Table 2 style design point: @p width wide, @p depth total stages
 * at @p freq_ghz, with a @p l2_kb KiB, @p l2_assoc-way L2.
 */
inline DesignPoint
goldenPoint(std::uint32_t width, std::uint32_t depth, double freq_ghz,
            PredictorKind predictor, std::uint64_t l2_kb,
            std::uint32_t l2_assoc)
{
    DesignPoint p;
    p.width = width;
    p.depth = depth;
    p.freqGHz = freq_ghz;
    p.predictor = predictor;
    p.l2KB = l2_kb;
    p.l2Assoc = l2_assoc;
    return p;
}

/** FNV-1a (64-bit) offset basis. */
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/** Fold @p values into the FNV-1a digest @p hash, 8 bytes each. */
inline std::uint64_t
fnvFold(std::uint64_t hash, const std::vector<std::uint64_t> &values)
{
    for (std::uint64_t v : values) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (v >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

/** "{a, b, c}": a field list as a pasteable C++ initializer. */
inline std::string
fieldList(const std::vector<std::uint64_t> &values)
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << '}';
    return os.str();
}

/** Builder for hand-crafted micro-traces. */
class TraceBuilder
{
  public:
    /** Append a unit-latency ALU op. */
    TraceBuilder &
    alu(RegIndex dst, RegIndex src1 = kLiveIn, RegIndex src2 = kNoReg)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::IntAlu;
        di.dst = dst;
        di.src1 = src1;
        di.src2 = src2;
        tr.push(di);
        return *this;
    }

    /** Append an op of a specific class. */
    TraceBuilder &
    op(OpClass oc, RegIndex dst, RegIndex src1 = kLiveIn,
       RegIndex src2 = kNoReg)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = oc;
        di.dst = dst;
        di.src1 = src1;
        di.src2 = src2;
        tr.push(di);
        return *this;
    }

    /** Append a load from @p addr. */
    TraceBuilder &
    load(RegIndex dst, Addr addr, RegIndex addr_reg = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Load;
        di.dst = dst;
        di.src1 = addr_reg;
        di.effAddr = addr;
        tr.push(di);
        return *this;
    }

    /** Append a store to @p addr. */
    TraceBuilder &
    store(Addr addr, RegIndex data_reg = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Store;
        di.src1 = data_reg;
        di.effAddr = addr;
        tr.push(di);
        return *this;
    }

    /** Append a branch with the given outcome. */
    TraceBuilder &
    branch(bool taken, Addr target = 0x9000, RegIndex src = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Branch;
        di.src1 = src;
        di.taken = taken;
        di.targetPc = taken ? target : 0;
        tr.push(di);
        return *this;
    }

    /** Append @p n independent ALU filler ops. */
    TraceBuilder &
    filler(int n)
    {
        for (int i = 0; i < n; ++i)
            alu(static_cast<RegIndex>(8 + (fillerReg++ % 20)));
        return *this;
    }

    /** Finish and return the trace. */
    Trace build() { return std::move(tr); }

  private:
    Addr
    nextPc()
    {
        Addr p = pc;
        pc += kInstBytes;
        return p;
    }

    Trace tr;
    Addr pc = 0x1000;
    int fillerReg = 0;
};

} // namespace mech::test

#endif // MECH_TESTS_TEST_UTIL_HH
