/**
 * @file
 * Lock-cheap metrics primitives for the observability layer.
 *
 * Everything here is built for hot paths.  Counter is striped per
 * thread: an increment is one relaxed fetch_add on the cache line
 * its thread's ordinal picks, so pool workers (consecutive ordinals)
 * bumping one counter on every evaluation do not bounce a single
 * line between cores.  Gauge is a single relaxed atomic, and
 * LatencyHistogram is a fixed array of relaxed atomic log2 buckets —
 * record() is a bit_width plus two fetch_adds, no locks, no
 * allocation, no floating point.
 *
 * All of it lives strictly on the *observability channel*: nothing
 * in this file ever writes to a response stream, so instrumented
 * code paths stay byte-identical whether or not anyone reads the
 * metrics.  Snapshots convert into the dense common/histogram.hh
 * Histogram (keyed by bucket index), reusing its merge/total/range
 * math for quantiles and for the Prometheus cumulative-bucket
 * rendering.
 */

#ifndef MECH_OBS_METRICS_HH
#define MECH_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/histogram.hh"

namespace mech::obs {

/**
 * A small stable ordinal for the calling thread: 1, 2, ... in the
 * order threads first ask.  Counter stripes and trace-event tids
 * both key on it.
 */
inline std::uint32_t
threadOrdinal()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/**
 * Monotonically increasing event count, striped per thread.  inc()
 * touches only the calling thread's stripe; value() sums the
 * stripes, so counts stay exact under any interleaving.
 */
class Counter
{
  public:
    /** Stripe count: a power of two; ordinals equal mod it share. */
    static constexpr std::size_t kStripes = 16;

    void
    inc(std::uint64_t n = 1)
    {
        Stripe &mine = stripes[threadOrdinal() & (kStripes - 1)];
        mine.v.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Stripe &s : stripes)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    /** One cache line per stripe, so stripes never false-share. */
    struct alignas(64) Stripe
    {
        std::atomic<std::uint64_t> v{0};
    };

    Stripe stripes[kStripes];
};

/** Instantaneous level that can move both ways (relaxed atomic). */
class Gauge
{
  public:
    void
    set(std::int64_t value)
    {
        v.store(value, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        v.fetch_add(delta, std::memory_order_relaxed);
    }

    void sub(std::int64_t delta) { add(-delta); }

    std::int64_t value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v{0};
};

/**
 * An immutable snapshot of a LatencyHistogram: bucket counts in a
 * dense common Histogram (key = log2 bucket index) plus the sum of
 * raw recorded values.  Mergeable — merging snapshots is bucketwise
 * count addition, so it is associative and commutative by
 * construction.
 */
struct HistogramSnapshot
{
    /** Bucket counts, keyed by bucket index (see bucketIndex()). */
    Histogram buckets;

    /** Sum of the raw recorded values (for Prometheus `_sum`). */
    std::uint64_t sum = 0;

    /** Total number of recorded values. */
    std::uint64_t count() const { return buckets.total(); }

    /** Merge @p other into this snapshot. */
    void
    merge(const HistogramSnapshot &other)
    {
        buckets.merge(other.buckets);
        sum += other.sum;
    }

    /**
     * The value below which a fraction @p q of observations fall,
     * resolved to the containing bucket's inclusive upper bound —
     * the same convention Prometheus applies to `le` buckets.
     * Returns 0 for an empty snapshot; @p q is clamped to [0, 1].
     */
    std::uint64_t quantile(double q) const;
};

/**
 * Fixed-size log2-bucket latency histogram with lock-free recording.
 *
 * Bucket i counts values v with bit_width(v) == i: bucket 0 holds
 * exactly 0, bucket i >= 1 holds [2^(i-1), 2^i - 1].  With
 * kBuckets = 40 the top regular bucket tops out above 10^11 — about
 * 6 days in microseconds — and anything larger clamps into the final
 * (overflow) bucket, so no latency is ever dropped.
 */
class LatencyHistogram
{
  public:
    /** Number of log2 buckets (index 0..kBuckets-1). */
    static constexpr std::size_t kBuckets = 40;

    /** The bucket index holding @p value (clamped to the top). */
    static std::size_t
    bucketIndex(std::uint64_t value)
    {
        std::size_t width = 0;
        while (value != 0) {
            ++width;
            value >>= 1;
        }
        return width < kBuckets ? width : kBuckets - 1;
    }

    /**
     * Inclusive upper bound of bucket @p idx: 2^idx - 1.  The top
     * bucket is the overflow bucket; its nominal bound is reported
     * like any other (Prometheus adds the +Inf bucket above it).
     */
    static std::uint64_t
    bucketUpperBound(std::size_t idx)
    {
        return (std::uint64_t{1} << idx) - 1;
    }

    /** Record one observation (e.g. a latency in microseconds). */
    void
    record(std::uint64_t value)
    {
        counts[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
        rawSum.fetch_add(value, std::memory_order_relaxed);
    }

    /** A coherent-enough copy for reporting (relaxed reads). */
    HistogramSnapshot
    snapshot() const
    {
        HistogramSnapshot snap;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const std::uint64_t c =
                counts[i].load(std::memory_order_relaxed);
            if (c != 0)
                snap.buckets.add(i, c);
        }
        snap.sum = rawSum.load(std::memory_order_relaxed);
        return snap;
    }

    /** Convenience: quantile of the current contents. */
    std::uint64_t quantile(double q) const
    {
        return snapshot().quantile(q);
    }

  private:
    std::atomic<std::uint64_t> counts[kBuckets] = {};
    std::atomic<std::uint64_t> rawSum{0};
};

inline std::uint64_t
HistogramSnapshot::quantile(double q) const
{
    const std::uint64_t total = buckets.total();
    if (total == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // The rank-th observation in bucket-index order (1-based); the
    // ceiling form makes quantile(0.5) of a single sample resolve to
    // that sample's bucket.
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.5);
    if (rank == 0)
        rank = 1;
    if (rank > total)
        rank = total;
    std::uint64_t seen = 0;
    const std::uint64_t top = buckets.maxKey();
    for (std::uint64_t k = 0; k <= top; ++k) {
        seen += buckets.at(k);
        if (seen >= rank)
            return LatencyHistogram::bucketUpperBound(k);
    }
    return LatencyHistogram::bucketUpperBound(top);
}

} // namespace mech::obs

#endif // MECH_OBS_METRICS_HH
