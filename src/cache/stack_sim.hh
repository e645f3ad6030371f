/**
 * @file
 * Single-pass all-associativity cache simulation.
 *
 * Implements the classic Mattson stack-distance algorithm (paper
 * refs [12, 22]): one pass over an address stream yields the LRU
 * depth of every reference, and therefore hit counts for *every*
 * associativity of an LRU cache with a fixed set count and block
 * size, thanks to LRU's inclusion property.  This is the product
 * L2-sweep path: DseStudy::prepare() runs one pass per L2 set count
 * and derives every geometry sharing it from the recorded depths
 * (see l2StackDepths() in profiler/profiler.hh).
 *
 * Implementation: every tracked block is a node of one shared arena,
 * linked MRU-first into its set's intrusive doubly-linked recency
 * list, with a block -> (set, node) hash map in front.  A hit walks
 * the list only down to the block's depth and relinks in O(1); a
 * miss is O(1) plus hash updates.  Per-access cost is therefore
 * O(min(hit depth, max_assoc)) instead of the O(stack size) scan +
 * shift of the naive vector-of-tags formulation, while the distance
 * histogram stays bit-identical (golden-tested against the reference
 * implementation in tests/cache_test.cc).  A walk is also bounded by
 * the number of distinct blocks in the set, so even a single set of
 * 2^20 ways costs no more than the stream's own footprint.
 *
 * Memory grows with the stream, never with the geometry: a set gets
 * its list on first touch (a second hash map finds it), and a full
 * set recycles its LRU node, so it never links more than max_assoc.
 * No array is sized by the set count, which SpaceSpec::check() lets
 * clients push to 2^20.
 *
 * Both maps are flat open-addressing tables (linear probing,
 * tombstone deletion, amortized doubling) rather than
 * std::unordered_map: a lookup touches one contiguous cache line
 * instead of chasing bucket and node pointers, which is worth >2x on
 * real address streams.
 */

#ifndef MECH_CACHE_STACK_SIM_HH
#define MECH_CACHE_STACK_SIM_HH

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/**
 * Stack-distance simulator for LRU caches with @p num_sets sets.
 *
 * access() returns each reference's depth; after streaming,
 * hitsForAssoc(a) returns exactly the hit count a SetAssocCache with
 * the same set count, block size, associativity @p a and LRU
 * replacement would report — for every a in [1, maxTrackedAssoc]
 * simultaneously.
 */
class StackDistanceSimulator
{
  public:
    /**
     * @param num_sets Number of sets (power of two).
     * @param block_bytes Line size in bytes (power of two).
     * @param max_tracked_assoc Depth beyond which distances count as
     *        misses for every tracked associativity.
     */
    StackDistanceSimulator(std::uint64_t num_sets,
                           std::uint32_t block_bytes,
                           std::uint32_t max_tracked_assoc = 64);

    /**
     * Stream one access through the simulator.
     *
     * @return The reference's 1-based LRU depth within its set: an
     *         a-way cache hits exactly when 0 < depth <= a.  0 means
     *         cold or deeper than maxTrackedAssoc.
     *
     * Defined inline below: profiling streams hundreds of millions
     * of accesses through this call, and keeping it inlinable is
     * worth ~2x by itself (the cold insert/evict path stays
     * out-of-line in the .cc).
     */
    std::uint32_t access(Addr addr);

    /**
     * Pre-size for @p blocks distinct blocks, so a stream whose
     * footprint is known up front (at most its length) never grows
     * a table mid-pass.
     */
    void reserve(std::size_t blocks);

    /** Total accesses observed. */
    std::uint64_t accesses() const { return total; }

    /**
     * Hits an LRU cache of associativity @p assoc would score.
     * @pre assoc in [1, maxTrackedAssoc].
     */
    std::uint64_t hitsForAssoc(std::uint32_t assoc) const;

    /** Misses for associativity @p assoc (complement of hits). */
    std::uint64_t
    missesForAssoc(std::uint32_t assoc) const
    {
        return total - hitsForAssoc(assoc);
    }

    /** Histogram of stack distances (1-based; key 0 = cold/deep). */
    const Histogram &distanceHistogram() const { return distances; }

  private:
    /** Null link / "no node". */
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /**
     * Flat open-addressing map from a 64-bit key to a 64-bit value
     * (never kAbsent or kTomb, which mark empty and erased slots).
     */
    class FlatMap
    {
      public:
        /** find()'s result for an absent key. */
        static constexpr std::uint64_t kAbsent = ~std::uint64_t(0);

        FlatMap();

        /** Value stored under @p key, or kAbsent. */
        std::uint64_t
        find(std::uint64_t key) const
        {
            return table[probe(key)].value;
        }

        /**
         * The value stored under @p key; when absent, store and
         * return @p value.  One probe run either way.
         */
        std::uint64_t emplace(std::uint64_t key, std::uint64_t value);

        /** Remove @p key (must be present). */
        void erase(std::uint64_t key);

        /** Grow so @p entries live keys fit without a rebuild. */
        void reserve(std::size_t entries);

      private:
        /** Slot marker: erased, probe sequences continue past it. */
        static constexpr std::uint64_t kTomb = kAbsent - 1;

        struct Slot
        {
            /** Valid when value is neither kAbsent nor kTomb. */
            std::uint64_t key = 0;
            std::uint64_t value = kAbsent;
        };

        /** Multiplicative hash; the table index is its top bits. */
        static std::uint64_t
        hash(std::uint64_t key)
        {
            return key * 0x9E3779B97F4A7C15ull;
        }

        /** Slot holding @p key, or the (empty) end of its probe run. */
        std::size_t
        probe(std::uint64_t key) const
        {
            const std::size_t mask = table.size() - 1;
            std::size_t pos = hash(key) >> shift;
            for (;; pos = (pos + 1) & mask) {
                const Slot &slot = table[pos];
                if (slot.value == kAbsent ||
                    (slot.value != kTomb && slot.key == key)) {
                    return pos;
                }
            }
        }

        /**
         * Rebuild the table, dropping tombstones, at the smallest
         * doubling that keeps @p entries under a third of the slots.
         */
        void rehash(std::size_t entries);

        std::vector<Slot> table;

        /** Top-bits shift for the current table size. */
        std::uint32_t shift;

        /** Occupied slots (live entries). */
        std::size_t occupied = 0;

        /** Occupied + tombstoned slots (probe-run length control). */
        std::size_t used = 0;
    };

    /** One LRU-stack entry, linked MRU-first within its set. */
    struct Node
    {
        /** Global block number (the block map's key). */
        std::uint64_t block;

        /** Neighbours in recency order (indices into the arena). */
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** Recency list of one touched set. */
    struct SetList
    {
        /** Most- and least-recently-used node, or kNil when empty. */
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;

        /** Nodes in the list; grows to maxAssoc, then recycles. */
        std::uint32_t size = 0;
    };

    /** Block-map value locating a node: (set slot, node index). */
    static std::uint64_t
    packLocation(std::uint32_t set, std::uint32_t node)
    {
        return (static_cast<std::uint64_t>(set) << 32) | node;
    }

    /** Cold path of access(): install a block seen cold or deep. */
    void insertCold(std::uint64_t block);

    std::uint64_t numSets;
    std::uint32_t maxAssoc;

    /** log2(block bytes), so block extraction is a shift. */
    std::uint32_t blockShift;

    /** Node arena shared by every set. */
    std::vector<Node> nodes;

    /** Lists of the touched sets, in first-touch order. */
    std::vector<SetList> sets;

    /** Resident block -> packLocation(set slot, node). */
    FlatMap blockMap;

    /** Touched set index -> its slot in sets. */
    FlatMap setMap;

    /**
     * Block of the previous access, MRU of its set by construction;
     * meaningful once total > 0.
     */
    std::uint64_t lastBlock = 0;

    /** distances.at(k) = accesses with stack distance k (1-based). */
    Histogram distances;

    std::uint64_t total = 0;
};

inline std::uint32_t
StackDistanceSimulator::access(Addr addr)
{
    const std::uint64_t block = addr >> blockShift;

    // Repeat of the previous block: it is the MRU of its set, so no
    // recency change and no hash lookup.  This is the hottest path
    // for streams with spatial locality.
    if (block == lastBlock && total != 0) {
        ++total;
        distances.add(1);
        return 1;
    }
    ++total;
    lastBlock = block;

    const std::uint64_t loc = blockMap.find(block);
    if (loc == FlatMap::kAbsent) {
        // Cold or beyond the tracked depth: a miss at every tracked
        // associativity.  Key 0 marks "deeper than tracked".
        distances.add(0);
        insertCold(block);
        return 0;
    }

    SetList &s = sets[loc >> 32];
    const auto idx = static_cast<std::uint32_t>(loc);
    if (idx == s.head) {
        distances.add(1);
        return 1;
    }

    // Hit below the top: the depth walk stops at the node, so cost is
    // bounded by the hit depth, and the relink is O(1).
    std::uint32_t depth = 2;
    for (std::uint32_t cur = nodes[s.head].next; cur != idx;
         cur = nodes[cur].next) {
        ++depth;
    }
    distances.add(depth);

    Node &n = nodes[idx];
    nodes[n.prev].next = n.next;
    if (n.next != kNil)
        nodes[n.next].prev = n.prev;
    else
        s.tail = n.prev;
    n.prev = kNil;
    n.next = s.head;
    nodes[s.head].prev = idx;
    s.head = idx;
    return depth;
}

} // namespace mech

#endif // MECH_CACHE_STACK_SIM_HH
