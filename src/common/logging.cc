#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace srs
{

namespace detail
{

void
fatalImpl(const std::string &msg)
{
    throw FatalError(msg);
}

void
panicImpl(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

} // namespace detail

} // namespace srs
