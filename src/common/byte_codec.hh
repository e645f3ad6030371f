/**
 * @file
 * Byte framing shared by the persisted binary artifacts: the `.mprof`
 * profile codec (profiler/profile_io.hh) and the `.mcache` spill
 * codec (search/cache_io.hh).
 *
 * ByteWriter appends fixed-width little-endian integers, IEEE-754
 * bit patterns and raw bytes to a std::string; ByteReader reads them
 * back from a bounded std::string_view.  Integers are encoded byte by
 * byte, so a file is stable across hosts of either endianness, and
 * doubles travel as their bit patterns, so NaN payloads and -0.0
 * survive a round trip exactly.
 *
 * Any read past the end of the input throws CodecError, so a codec
 * reads field after field with no per-field length checks and
 * reports truncation anywhere from one place.  Length prefixes are
 * the codec's business (each format fixes its own width), as are
 * magic, version and end-of-input checks.
 */

#ifndef MECH_COMMON_BYTE_CODEC_HH
#define MECH_COMMON_BYTE_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mech {

/** Error raised for any malformed, truncated or unreadable artifact. */
class CodecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Little-endian appender onto a caller-owned std::string. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out) : out(out) {}

    void u8(std::uint8_t v) { put(v); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
    void bytes(std::string_view s) { out.append(s); }

  private:
    template <typename T>
    void
    put(T v)
    {
        char b[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        out.append(b, sizeof(T));
    }

    std::string &out;
};

/** Bounded little-endian reader; throws CodecError on a short read. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : data(bytes) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(u64()); }

    /** The next @p n bytes (a view into the input). */
    std::string_view
    take(std::size_t n)
    {
        if (data.size() - pos < n) {
            throw CodecError("truncated input: " + std::to_string(n) +
                             " byte(s) needed at offset " +
                             std::to_string(pos) + ", " +
                             std::to_string(data.size() - pos) +
                             " left");
        }
        std::string_view s = data.substr(pos, n);
        pos += n;
        return s;
    }

    /** True once every input byte has been consumed. */
    bool atEnd() const { return pos == data.size(); }

  private:
    template <typename T>
    T
    get()
    {
        std::string_view b = take(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<unsigned char>(b[i])) << (8 * i);
        return v;
    }

    std::string_view data;
    std::size_t pos = 0;
};

} // namespace mech

#endif // MECH_COMMON_BYTE_CODEC_HH
