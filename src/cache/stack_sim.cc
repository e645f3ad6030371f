#include "cache/stack_sim.hh"

#include <algorithm>
#include <bit>
#include <utility>

namespace mech {

namespace {

/** Initial map capacity (slots; power of two). */
constexpr std::size_t kInitialTableSize = 256;

} // namespace

StackDistanceSimulator::FlatMap::FlatMap()
    : table(kInitialTableSize),
      shift(static_cast<std::uint32_t>(
          64 - std::countr_zero(kInitialTableSize)))
{
}

std::uint64_t
StackDistanceSimulator::FlatMap::emplace(std::uint64_t key,
                                         std::uint64_t value)
{
    constexpr std::size_t no_slot = static_cast<std::size_t>(-1);
    const std::size_t mask = table.size() - 1;
    std::size_t pos = hash(key) >> shift;
    std::size_t tomb = no_slot;
    for (;; pos = (pos + 1) & mask) {
        Slot &slot = table[pos];
        if (slot.value == kAbsent) {
            if (tomb != no_slot) {
                pos = tomb;
            } else {
                ++used;
            }
            break;
        }
        if (slot.value == kTomb) {
            if (tomb == no_slot)
                tomb = pos;
        } else if (slot.key == key) {
            return slot.value;
        }
    }
    table[pos] = {key, value};
    ++occupied;
    // Keep probe runs short: rebuild once 3/4 of the slots carry an
    // entry or a tombstone.
    if (used * 4 >= table.size() * 3)
        rehash(occupied);
    return value;
}

void
StackDistanceSimulator::FlatMap::erase(std::uint64_t key)
{
    const std::size_t pos = probe(key);
    MECH_ASSERT(table[pos].value != kAbsent, "erasing absent key");
    table[pos].value = kTomb;
    --occupied;
}

void
StackDistanceSimulator::FlatMap::reserve(std::size_t entries)
{
    if (entries * 3 >= table.size())
        rehash(entries);
}

void
StackDistanceSimulator::FlatMap::rehash(std::size_t entries)
{
    std::size_t new_size = table.size();
    while (entries * 3 >= new_size)
        new_size *= 2;

    std::vector<Slot> old = std::move(table);
    table.assign(new_size, Slot{});
    shift = static_cast<std::uint32_t>(64 - std::countr_zero(new_size));
    used = occupied;

    const std::size_t mask = new_size - 1;
    for (const Slot &slot : old) {
        if (slot.value == kAbsent || slot.value == kTomb)
            continue;
        std::size_t pos = hash(slot.key) >> shift;
        while (table[pos].value != kAbsent)
            pos = (pos + 1) & mask;
        table[pos] = slot;
    }
}

StackDistanceSimulator::StackDistanceSimulator(std::uint64_t num_sets,
                                               std::uint32_t block_bytes,
                                               std::uint32_t max_tracked_assoc)
    : numSets(num_sets), maxAssoc(max_tracked_assoc)
{
    if (!std::has_single_bit(numSets) ||
        !std::has_single_bit(static_cast<std::uint64_t>(block_bytes))) {
        fatal("stack simulator set count and block size must be powers "
              "of two");
    }
    MECH_ASSERT(maxAssoc >= 1, "need at least one tracked way");
    blockShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(block_bytes)));
}

void
StackDistanceSimulator::reserve(std::size_t blocks)
{
    nodes.reserve(blocks);
    blockMap.reserve(blocks);
    // A set is touched by at least one block.
    const auto touchable = static_cast<std::size_t>(
        std::min<std::uint64_t>(numSets, blocks));
    sets.reserve(touchable);
    setMap.reserve(touchable);
}

void
StackDistanceSimulator::insertCold(std::uint64_t block)
{
    const std::uint64_t set_index = block & (numSets - 1);
    const std::uint64_t set = setMap.emplace(set_index, sets.size());
    if (set == sets.size())
        sets.emplace_back();
    SetList &s = sets[set];

    std::uint32_t idx;
    if (s.size < maxAssoc) {
        idx = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back({block, kNil, kNil});
        ++s.size;
    } else {
        // Set full: recycle the LRU node for the new block.
        idx = s.tail;
        Node &victim = nodes[idx];
        blockMap.erase(victim.block);
        s.tail = victim.prev;
        if (s.tail != kNil)
            nodes[s.tail].next = kNil;
        else
            s.head = kNil;
        victim.block = block;
    }

    Node &n = nodes[idx];
    n.prev = kNil;
    n.next = s.head;
    if (s.head != kNil)
        nodes[s.head].prev = idx;
    s.head = idx;
    if (s.tail == kNil)
        s.tail = idx;
    // The insert re-probes rather than reusing the access-time slot:
    // the eviction above may have tombstoned an earlier slot of this
    // very probe run, and the insert should prefer it.
    blockMap.emplace(block, packLocation(static_cast<std::uint32_t>(set),
                                        idx));
}

std::uint64_t
StackDistanceSimulator::hitsForAssoc(std::uint32_t assoc) const
{
    MECH_ASSERT(assoc >= 1 && assoc <= maxAssoc,
                "assoc ", assoc, " outside tracked range");
    return distances.sumRange(1, assoc);
}

} // namespace mech
