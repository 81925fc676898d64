/**
 * @file
 * Log-space combinatorics for the analytical security models.
 *
 * The attack-time equations of the paper (Section III-B, Eq. 8-10)
 * evaluate binomial point probabilities with n up to ~10^5 and
 * p ~ 1/131072; naive factorials overflow, so everything is done in
 * log space.
 */

#ifndef SRS_COMMON_MATHUTIL_HH
#define SRS_COMMON_MATHUTIL_HH

#include <cstdint>

namespace srs
{

/** @return ln(n!) via lgamma. */
double logFactorial(std::uint64_t n);

/** @return ln(C(n, k)); -inf when k > n. */
double logBinomialCoeff(std::uint64_t n, std::uint64_t k);

/**
 * Binomial point mass P[X = k] for X ~ Binomial(n, p).
 *
 * @param n number of trials
 * @param k exact number of successes
 * @param p per-trial success probability
 */
double binomialPmf(std::uint64_t n, std::uint64_t k, double p);

/** Upper tail P[X >= k] for X ~ Binomial(n, p). */
double binomialSf(std::uint64_t n, std::uint64_t k, double p);

/** Poisson point mass P[X = k] for X ~ Poisson(lambda). */
double poissonPmf(std::uint64_t k, double lambda);

/** @return ceil(a / b) for positive integers. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** @return true when @p v is a power of two (v > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return smallest power of two >= v (v >= 1). */
std::uint64_t nextPowerOfTwo(std::uint64_t v);

/** @return floor(log2(v)) for v >= 1. */
unsigned floorLog2(std::uint64_t v);

} // namespace srs

#endif // SRS_COMMON_MATHUTIL_HH
