#include "search/cache_io.hh"

#include <cstdio>
#include <optional>
#include <utility>

#include "common/byte_codec.hh"
#include "common/file_util.hh"

namespace mech {

namespace {

constexpr std::string_view kMagic = "MCSP";

/** FNV-1a over a string, for spill file names. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
encodeEvalCache(const EvalCache &cache, const std::string &group_key,
                std::uint32_t aggregate_len,
                std::uint32_t per_bench_len)
{
    std::string out;
    ByteWriter w(out);
    w.bytes(kMagic);
    w.u32(kCacheSpillFormatVersion);
    // Probe hash: lets a reader detect a changed DesignPoint::hash()
    // from the header alone, before touching any entry.
    w.u64(defaultDesignPoint().hash());
    w.u32(static_cast<std::uint32_t>(group_key.size()));
    w.bytes(group_key);
    w.u32(aggregate_len);
    w.u32(per_bench_len);

    const std::vector<const SearchEval *> entries = cache.entries();
    w.u64(entries.size());
    for (const SearchEval *eval : entries) {
        const std::string key = eval->point.toKey();
        w.u32(static_cast<std::uint32_t>(key.size()));
        w.bytes(key);
        w.u64(eval->point.hash());
        for (double v : eval->aggregate)
            w.f64(v);
        for (double v : eval->perBench)
            w.f64(v);
    }
    return out;
}

bool
decodeEvalCache(std::string_view bytes,
                const std::string &expected_group_key,
                std::uint32_t aggregate_len,
                std::uint32_t per_bench_len, EvalCache *out,
                std::string *error)
{
    try {
        ByteReader r(bytes);
        if (r.take(kMagic.size()) != kMagic)
            throw CodecError("not a cache spill (bad magic)");
        const std::uint32_t version = r.u32();
        if (version != kCacheSpillFormatVersion) {
            throw CodecError("unsupported spill format version " +
                             std::to_string(version) + " (this build "
                             "reads version " +
                             std::to_string(kCacheSpillFormatVersion) +
                             ")");
        }
        if (r.u64() != defaultDesignPoint().hash()) {
            throw CodecError("DesignPoint hash scheme changed since "
                             "this spill was written; discarding it");
        }
        const std::string_view group_key = r.take(r.u32());
        if (group_key != expected_group_key) {
            throw CodecError("spill belongs to group '" +
                             std::string(group_key) + "', not '" +
                             expected_group_key + "'");
        }
        const std::uint32_t agg_len = r.u32();
        const std::uint32_t pb_len = r.u32();
        if (agg_len != aggregate_len || pb_len != per_bench_len) {
            throw CodecError("objective layout mismatch (spill " +
                             std::to_string(agg_len) + "/" +
                             std::to_string(pb_len) + ", group " +
                             std::to_string(aggregate_len) + "/" +
                             std::to_string(per_bench_len) + ")");
        }

        const std::uint64_t count = r.u64();
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::string_view key = r.take(r.u32());
            const std::uint64_t stored_hash = r.u64();
            std::optional<DesignPoint> point = DesignPoint::fromKey(key);
            if (!point) {
                throw CodecError("entry " + std::to_string(i) +
                                 " has a malformed point key '" +
                                 std::string(key) + "'");
            }
            if (point->hash() != stored_hash) {
                throw CodecError("entry " + std::to_string(i) +
                                 " hash mismatch (stale DesignPoint "
                                 "hash scheme); discarding spill");
            }
            SearchEval eval;
            eval.point = *point;
            eval.aggregate.resize(aggregate_len);
            eval.perBench.resize(per_bench_len);
            for (double &v : eval.aggregate)
                v = r.f64();
            for (double &v : eval.perBench)
                v = r.f64();
            out->insert(std::move(eval));
        }
        if (!r.atEnd())
            throw CodecError("trailing bytes after the last entry");
        return true;
    } catch (const CodecError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

std::string
cacheSpillPath(const std::string &dir, const std::string &group_key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(group_key)));
    return joinPath(dir, hex + std::string(kCacheSpillExtension));
}

} // namespace mech
