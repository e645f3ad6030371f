/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * This is the building block of the two-level hierarchy the paper's
 * default configuration uses (private 32 KiB L1s + unified L2,
 * Table 2).  Timing lives in the pipeline simulator and the model;
 * the cache itself only tracks contents and hit/miss outcomes.
 */

#ifndef MECH_CACHE_CACHE_HH
#define MECH_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/** Geometry of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes (power of two). */
    std::uint64_t sizeBytes = 32 * 1024;

    /** Associativity (ways per set). */
    std::uint32_t assoc = 4;

    /** Block (line) size in bytes (power of two). */
    std::uint32_t blockBytes = 64;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * blockBytes);
    }

    /**
     * fatal() unless size, block size and set count are powers of
     * two and the capacity holds at least one set.
     */
    void validate() const;
};

/** Hit/miss counters for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Total accesses. */
    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio (0 when never accessed). */
    double
    missRatio() const
    {
        return accesses()
                   ? static_cast<double>(misses) /
                         static_cast<double>(accesses())
                   : 0.0;
    }
};

/**
 * Set-associative cache with true-LRU replacement and write-allocate.
 *
 * Functional only: access() returns whether the block was present and
 * installs it if not.  Eviction follows strict LRU within the set.
 *
 * Indexing is shift/mask arithmetic (block size and set count are
 * powers of two).  access() also short-circuits a repeat of the block
 * it touched last: that block is resident by construction — it was
 * hit or installed by the previous access, and nothing has run since
 * that could evict it — so the repeat skips the set scan but still
 * counts the hit, refreshes lastUse and merges the dirty bit, exactly
 * as the full path would.  flush() forgets the remembered block.
 */
class SetAssocCache
{
  public:
    /** Build a cache; validates that the geometry is a power of two. */
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Access the block containing @p addr.
     *
     * @param addr Byte address.
     * @param is_write True for stores (sets the dirty bit).
     * @return True on hit, false on miss (block is then installed).
     */
    bool
    access(Addr addr, bool is_write = false)
    {
        const Addr block = blockOf(addr);
        ++useClock;
        if (block == lastBlock && lastLine != kNoLine) {
            Line &line = lines[lastLine];
            line.lastUse = useClock;
            line.dirty = line.dirty || is_write;
            ++_stats.hits;
            return true;
        }
        return lookup(block, is_write);
    }

    /** True if the block containing @p addr is currently resident. */
    bool contains(Addr addr) const;

    /** Invalidate all contents (statistics are kept). */
    void flush();

    /** Access statistics. */
    const CacheStats &stats() const { return _stats; }

    /** Reset statistics (contents are kept). */
    void clearStats() { _stats = CacheStats{}; }

    /** Geometry. */
    const CacheConfig &config() const { return cfg; }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** access() past the repeat check: scan @p block's set. */
    bool lookup(Addr block, bool is_write);

    /** Block number of an address. */
    Addr blockOf(Addr addr) const { return addr >> blockShift; }

    /** Index of the first line of @p block's set. */
    std::size_t
    setBase(Addr block) const
    {
        return static_cast<std::size_t>(block & setMask) * cfg.assoc;
    }

    /** Sentinel line index: no access since construction/flush. */
    static constexpr std::size_t kNoLine = ~std::size_t(0);

    CacheConfig cfg;
    unsigned blockShift = 0; // log2(blockBytes)
    unsigned setShift = 0;   // log2(numSets)
    Addr setMask = 0;        // numSets - 1
    std::vector<Line> lines; // numSets x assoc, row-major
    std::uint64_t useClock = 0;
    CacheStats _stats;

    /** Block of the most recent access, and the line holding it. */
    Addr lastBlock = 0;
    std::size_t lastLine = kNoLine;
};

} // namespace mech

#endif // MECH_CACHE_CACHE_HH
