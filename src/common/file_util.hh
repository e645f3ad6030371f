/**
 * @file
 * Small file-system utilities for persistent artifacts.
 *
 * Every persisted artifact goes through here: `.mprof` profiles
 * (profiler/profile_io.hh), `.mcache` warm-cache spills
 * (search/cache_io.hh) and `.mdesc` machine descriptions
 * (characterize/mdesc.hh).  Writes are atomic, so a crash, a signal
 * or a concurrent writer can never leave a half-written file that a
 * later load would try to read: atomicWriteFile() stages into a
 * same-directory temp file and rename(2)s it into place.  Reads do
 * not copy: MappedFile wraps mmap(2) behind a movable RAII view and
 * the codecs decode straight out of the page cache.  joinPath() is
 * the one directory + file-name join for artifact paths.
 *
 * Everything reports failure through a bool + message out-param
 * rather than exceptions, so each caller picks its policy: serve
 * treats a missing or unreadable spill as an ordinary cold start,
 * while the `.mprof` and `.mdesc` loaders turn it into an error.
 */

#ifndef MECH_COMMON_FILE_UTIL_HH
#define MECH_COMMON_FILE_UTIL_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace mech {

/** Read-only mmap(2) view of a whole file. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only.  Returns false (with a message in
     * @p error when non-null) if the file cannot be opened or
     * mapped.  An empty file maps successfully to an empty view.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** Unmap; the object returns to the default-constructed state. */
    void close();

    /** True while a mapping is held (empty files included). */
    bool isOpen() const { return opened; }

    /** The mapped bytes (valid until close()/destruction). */
    std::string_view view() const
    {
        return {static_cast<const char *>(base), length};
    }

    std::size_t size() const { return length; }

  private:
    void *base = nullptr;
    std::size_t length = 0;
    bool opened = false;
};

/**
 * Write @p bytes to @p path atomically: stage into a unique temp file
 * in the same directory, fsync it, then rename(2) over the target.
 * Readers see either the old file or the complete new one, never a
 * prefix.  Returns false with a message on any failure (the temp
 * file is removed).
 */
bool atomicWriteFile(const std::string &path, std::string_view bytes,
                     std::string *error = nullptr);

/**
 * Create directory @p path (one level; parents must exist).  An
 * already-existing directory succeeds.
 */
bool ensureDirectory(const std::string &path,
                     std::string *error = nullptr);

/**
 * @p dir and @p file joined by exactly one '/' (none when @p dir is
 * empty or already ends in one).
 */
std::string joinPath(std::string_view dir, std::string_view file);

/** True when @p path names an existing regular file. */
bool fileExists(const std::string &path);

} // namespace mech

#endif // MECH_COMMON_FILE_UTIL_HH
