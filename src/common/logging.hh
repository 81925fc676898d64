/**
 * @file
 * gem5-style error reporting.
 *
 * Two severities, mirroring gem5's src/base/logging.hh contract:
 *  - fatal():  the user asked for something impossible (bad config);
 *              throws FatalError so tests can assert on misuse.
 *  - panic():  an internal invariant broke (a simulator bug); aborts.
 *
 * Status output is each command's own printf.
 */

#ifndef SRS_COMMON_LOGGING_HH
#define SRS_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace srs
{

/** Exception thrown by fatal() so configuration errors are testable. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string &msg);
[[noreturn]] void panicImpl(const std::string &msg);

} // namespace detail

/** Abort the simulation due to a user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Abort the simulation due to an internal bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define SRS_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::srs::panic("assertion failed: ", #cond, " | ",             \
                         ##__VA_ARGS__);                                 \
        }                                                                \
    } while (0)

} // namespace srs

#endif // SRS_COMMON_LOGGING_HH
