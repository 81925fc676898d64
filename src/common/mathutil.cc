#include "common/mathutil.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace srs
{

double
logFactorial(std::uint64_t n)
{
    // lgamma_r, not std::lgamma: lgamma also stores the sign of the
    // gamma function in the global `signgam`, a data race when
    // security cells are evaluated on several pool threads.  Both
    // return the same value.
    int sign = 0;
    return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double
logBinomialCoeff(std::uint64_t n, std::uint64_t k)
{
    if (k > n)
        return -std::numeric_limits<double>::infinity();
    return logFactorial(n) - logFactorial(k) - logFactorial(n - k);
}

double
binomialPmf(std::uint64_t n, std::uint64_t k, double p)
{
    SRS_ASSERT(p >= 0.0 && p <= 1.0, "p outside [0,1]");
    if (k > n)
        return 0.0;
    if (p == 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p == 1.0)
        return k == n ? 1.0 : 0.0;
    const double logp = logBinomialCoeff(n, k) +
        static_cast<double>(k) * std::log(p) +
        static_cast<double>(n - k) * std::log1p(-p);
    return std::exp(logp);
}

double
binomialSf(std::uint64_t n, std::uint64_t k, double p)
{
    if (k == 0)
        return 1.0;
    if (k > n)
        return 0.0;
    // The tail decays geometrically past the mean in our regime
    // (np << k); summing point masses until they become negligible
    // relative to the accumulated total is accurate and fast.
    double total = 0.0;
    for (std::uint64_t i = k; i <= n; ++i) {
        const double term = binomialPmf(n, i, p);
        total += term;
        if (term < total * 1e-16 && i > k + 4)
            break;
    }
    return total;
}

double
poissonPmf(std::uint64_t k, double lambda)
{
    SRS_ASSERT(lambda >= 0.0, "negative Poisson mean");
    if (lambda == 0.0)
        return k == 0 ? 1.0 : 0.0;
    const double logp = -lambda +
        static_cast<double>(k) * std::log(lambda) - logFactorial(k);
    return std::exp(logp);
}

std::uint64_t
nextPowerOfTwo(std::uint64_t v)
{
    SRS_ASSERT(v >= 1, "nextPowerOfTwo(0)");
    --v;
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    v |= v >> 32;
    return v + 1;
}

unsigned
floorLog2(std::uint64_t v)
{
    SRS_ASSERT(v >= 1, "floorLog2(0)");
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

} // namespace srs
