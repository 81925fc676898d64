/**
 * @file
 * Minimal --key=value option parsing shared by the CLI tools and
 * examples.
 *
 * Options collects "--key=value" / "--flag" tokens (and "key=value"
 * lines from a config file), exposes typed getters with defaults,
 * and can verify that every provided key was actually consumed —
 * catching typos like --thr=1200 instead of fatal-ing silently.
 */

#ifndef SRS_COMMON_OPTIONS_HH
#define SRS_COMMON_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace srs
{

/**
 * Parse @p text as an unsigned integer no larger than @p max: base-10
 * digits only (a leading zero is not octal), or, with @p hex, also
 * `0x` followed by hex digits.  A sign, whitespace or any other
 * character is an error.
 * @return the value, or nullopt when @p text is not such a number
 */
std::optional<std::uint64_t> parseUnsigned(std::string_view text,
                                           std::uint64_t max,
                                           bool hex = false);

/** Parsed option bag with typed access. */
class Options
{
  public:
    Options() = default;

    /**
     * Parse argv-style tokens.  "--key=value" and "--flag" (implicit
     * value "1") populate the bag; bare words are collected as
     * positional arguments.
     */
    static Options fromArgs(int argc, const char *const *argv);

    /**
     * Parse "key=value" lines ('#' comments allowed) from a file.
     * Messages about its keys name the file (name()).
     */
    static Options fromFile(const std::string &path);

    /** @return true when @p key was provided. */
    bool has(const std::string &key) const;

    /** Typed getters; fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Base-10 digits that fit @p T (parseUnsigned()); fatal()
     *  quotes any other value. */
    template <typename T = std::uint64_t>
    T getUint(const std::string &key, std::type_identity_t<T> def) const
    {
        static_assert(std::is_unsigned_v<T>);
        return static_cast<T>(
            getUnsigned(key, def, std::numeric_limits<T>::max(), false));
    }

    /** A seed: base-10 digits, or `0x` and hex digits, the spelling
     *  of the CSV `seed` column. */
    std::uint64_t getSeed(const std::string &key, std::uint64_t def) const
    {
        return getUnsigned(key, def,
                           std::numeric_limits<std::uint64_t>::max(), true);
    }

    bool getBool(const std::string &key, bool def) const;

    /** Positional (non --key) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * How messages name @p key: `option --<key>` for options from
     * argv, `'<path>': key <key>` for a file's.
     */
    std::string name(const std::string &key) const;

    /**
     * fatal() when any provided key was never read: `unknown option
     * --<key>`, or `'<path>': unknown key '<key>'` for a file's.
     */
    void rejectUnknown() const;

    /** Insert/overwrite (programmatic defaults, tests). */
    void set(const std::string &key, const std::string &value);

  private:
    std::uint64_t getUnsigned(const std::string &key, std::uint64_t def,
                              std::uint64_t max, bool hex) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    /** The file the options came from; empty for argv. */
    std::string path_;
    mutable std::set<std::string> consumed_;
};

} // namespace srs

#endif // SRS_COMMON_OPTIONS_HH
