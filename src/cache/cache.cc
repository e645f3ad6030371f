#include "cache/cache.hh"

#include <bit>

namespace mech {

void
CacheConfig::validate() const
{
    if (!std::has_single_bit(sizeBytes) ||
        !std::has_single_bit(static_cast<std::uint64_t>(blockBytes))) {
        fatal("cache size and block size must be powers of two (got ",
              sizeBytes, " / ", blockBytes, ")");
    }
    if (assoc == 0 ||
        sizeBytes < static_cast<std::uint64_t>(assoc) * blockBytes) {
        fatal("cache geometry invalid: ", sizeBytes, "B / ", assoc,
              "-way / ", blockBytes, "B blocks");
    }
    if (!std::has_single_bit(numSets()))
        fatal("cache set count must be a power of two");
}

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cfg(config)
{
    cfg.validate();
    blockShift = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(cfg.blockBytes)));
    setShift = static_cast<unsigned>(std::countr_zero(cfg.numSets()));
    setMask = cfg.numSets() - 1;
    lines.resize(cfg.numSets() * cfg.assoc);
}

bool
SetAssocCache::lookup(Addr block, bool is_write)
{
    lastBlock = block;

    const Addr tag = block >> setShift;
    const std::size_t first = setBase(block);
    Line *base = &lines[first];
    Line *victim = base;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            line.dirty = line.dirty || is_write;
            ++_stats.hits;
            lastLine = first + w;
            return true;
        }
        // Track the LRU (or first invalid) way as the victim.
        if (!line.valid) {
            if (victim->valid || line.lastUse < victim->lastUse)
                victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++_stats.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    victim->dirty = is_write;
    lastLine = static_cast<std::size_t>(victim - lines.data());
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr block = blockOf(addr);
    const Addr tag = block >> setShift;
    const Line *base = &lines[setBase(block)];
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines)
        line = Line{};
    lastLine = kNoLine;
}

} // namespace mech
