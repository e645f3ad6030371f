/**
 * @file
 * Fully-associative LRU translation lookaside buffer.
 *
 * TLB misses are one of the paper's miss-event classes (Table 1);
 * like cache misses their penalty is the miss latency minus the
 * partial-group overlap term.
 */

#ifndef MECH_CACHE_TLB_HH
#define MECH_CACHE_TLB_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/** Geometry of a TLB. */
struct TlbConfig
{
    /** Number of entries (fully associative). */
    std::uint32_t entries = 32;

    /** Page size in bytes (power of two). */
    std::uint64_t pageBytes = 4096;
};

/**
 * Fully-associative, true-LRU TLB.
 *
 * The page number is a shift of the address.  Like SetAssocCache,
 * access() short-circuits a repeat of the page it translated last:
 * that translation is resident by construction, so the repeat skips
 * the scan of every slot but still counts the hit and refreshes the
 * slot's lastUse.
 */
class Tlb
{
  public:
    /** Build a TLB with @p config geometry. */
    explicit Tlb(const TlbConfig &config)
        : cfg(config)
    {
        MECH_ASSERT(cfg.entries > 0, "TLB needs at least one entry");
        MECH_ASSERT(std::has_single_bit(cfg.pageBytes),
                    "TLB page size must be a power of two");
        pageShift = static_cast<unsigned>(std::countr_zero(cfg.pageBytes));
        slots.resize(cfg.entries);
    }

    /**
     * Translate the page containing @p addr.
     * @return True on TLB hit; on miss the translation is installed.
     */
    bool
    access(Addr addr)
    {
        const Addr vpn = addr >> pageShift;
        ++useClock;

        if (vpn == lastVpn && lastSlot != kNoSlot) {
            slots[lastSlot].lastUse = useClock;
            ++hits;
            return true;
        }
        lastVpn = vpn;

        Slot *victim = &slots[0];
        for (auto &slot : slots) {
            if (slot.valid && slot.vpn == vpn) {
                slot.lastUse = useClock;
                ++hits;
                lastSlot = static_cast<std::size_t>(&slot - slots.data());
                return true;
            }
            if (!slot.valid) {
                if (victim->valid || slot.lastUse < victim->lastUse)
                    victim = &slot;
            } else if (victim->valid && slot.lastUse < victim->lastUse) {
                victim = &slot;
            }
        }

        ++misses;
        victim->valid = true;
        victim->vpn = vpn;
        victim->lastUse = useClock;
        lastSlot = static_cast<std::size_t>(victim - slots.data());
        return false;
    }

    /** Number of hits so far. */
    std::uint64_t hitCount() const { return hits; }

    /** Number of misses so far. */
    std::uint64_t missCount() const { return misses; }

    /** Geometry. */
    const TlbConfig &config() const { return cfg; }

  private:
    struct Slot
    {
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** Sentinel slot index: no access since construction. */
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    TlbConfig cfg;
    unsigned pageShift = 0; // log2(pageBytes)
    std::vector<Slot> slots;
    std::uint64_t useClock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Page of the most recent access, and the slot holding it. */
    Addr lastVpn = 0;
    std::size_t lastSlot = kNoSlot;
};

} // namespace mech

#endif // MECH_CACHE_TLB_HH
