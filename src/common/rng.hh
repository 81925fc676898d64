/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component (trace generation, RIT partner selection,
 * Monte-Carlo attack simulation) takes an explicit Rng so experiments
 * are reproducible from a single seed.  The engine is xoshiro256**,
 * which is fast, has a 2^256-1 period, and passes BigCrush.
 *
 * Binomial and Poisson counts come from BinomialSampler, which
 * settles the sampling regime once per (n, p); Rng::nextBinomial and
 * Rng::nextPoisson build one per call.
 */

#ifndef SRS_COMMON_RNG_HH
#define SRS_COMMON_RNG_HH

#include <cstdint>

namespace srs
{

/** Seedable xoshiro256** engine with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** @return uniform integer in [0, bound), bias-free. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** @return uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** @return uniform double in [0, 1). */
    double nextDouble() { return unit(next()); }

    /** The uniform nextDouble() makes of raw value @p raw: its 53
     *  high bits scaled to [0, 1). */
    static double
    unit(std::uint64_t raw)
    {
        return static_cast<double>(raw >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool nextBool(double p);

    /** Sample Binomial(n, p) hits: one BinomialSampler(n, p) draw. */
    std::uint64_t nextBinomial(std::uint64_t n, double p);

    /** Sample Poisson(lambda): one BinomialSampler::poisson draw. */
    std::uint64_t nextPoisson(double lambda);

    /** Sample Geometric: number of Bernoulli(p) trials until success. */
    std::uint64_t nextGeometric(double p);

    /** Satisfy UniformRandomBitGenerator so <algorithm> shuffles work. */
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Binomial(n, p) draws with the regime settled once per (n, p), for
 * callers that draw the same distribution many times (the
 * Monte-Carlo campaigns draw one per simulated refresh epoch).
 *
 * Regimes:
 *  - constant: n == 0 or p == 0 draws 0, p == 1 draws n; no raw
 *    value is consumed.
 *  - Poisson: p < 1e-3 and n > 1000, the regime of random-guess
 *    landings (n up to ~10^5, p ~ 1/131072).  The draw approximates
 *    the binomial (error O(p) per trial) with Poisson(lambda = n p),
 *    capped at n, by Knuth's product of uniforms: multiply
 *    nextDouble() values until the product falls to e^-lambda or
 *    below; the draw is the number of factors minus one.  A mean of
 *    30 or more is halved until it is below 30, and the 2^d equal
 *    halves are drawn in turn and summed, so the product never nears
 *    the subnormal range.
 *  - Bernoulli: otherwise, exactly: the count of n nextDouble()
 *    values below p, O(n) per draw.
 *
 * Exactness rule: a draw consumes the same raw values, in the same
 * order, and returns the same count as the plain algorithm above
 * with e^-lambda recomputed per draw.  Precomputing e^-lambda and
 * the quiet threshold below changes no result.  So `prod *= u` must
 * not be reordered or reassociated, and the library must not be
 * built with -ffast-math.
 *
 * Quiet draws: with a mean below 30 the draw is 0 exactly when its
 * first uniform alone is at most e^-lambda, i.e. when its first raw
 * value r has (r >> 11) <= floor(e^-lambda * 2^53).  quiet() tests
 * that with one integer compare against a precomputed threshold, so
 * the common 0-landing draw costs one Rng::next().
 */
class BinomialSampler
{
  public:
    /** Always draws 0. */
    BinomialSampler() = default;

    /** Binomial(@p n, @p p); @p p must lie in [0, 1]. */
    BinomialSampler(std::uint64_t n, double p);

    /** Poisson(@p lambda), uncapped; @p lambda must lie in
     *  [0, 2^64). */
    static BinomialSampler poisson(double lambda);

    /** @return one draw, consuming raw values from @p rng. */
    std::uint64_t operator()(Rng &rng) const;

    /**
     * Draw up to @p max times and return the 1-based index of the
     * first draw that is at least @p k, or 0 when none of them is.
     * Consumes the raw values of that many operator() calls; in the
     * Poisson regime with k >= 1 each quiet draw costs one
     * Rng::next() and one compare.
     */
    std::uint64_t firstAtLeast(std::uint64_t k, std::uint64_t max,
                               Rng &rng) const;

    /**
     * True when raw value @p raw, as a draw's first, settles the draw
     * at 0 by itself.  Exact when the Poisson mean is below 30;
     * false in every other regime.
     */
    bool
    quiet(std::uint64_t raw) const
    {
        return regime_ == Regime::Poisson && raw <= quietMax_;
    }

  private:
    enum class Regime : std::uint8_t
    {
        Constant,
        Bernoulli,
        Poisson,     ///< mean below 30: one product of uniforms
        SplitPoisson ///< leaves_ equal products, summed
    };

    /** Enter the Poisson regime: mean @p lambda, draws capped at
     *  @p cap. */
    void setPoisson(double lambda, std::uint64_t cap);

    /** The rest of a Poisson draw whose first raw value was @p raw. */
    std::uint64_t poissonAfter(std::uint64_t raw, Rng &rng) const;

    /** One product of uniforms that starts at @p prod: the factors
     *  it still needs to fall to limit_. */
    std::uint64_t leaf(double prod, Rng &rng) const;

    Regime regime_ = Regime::Constant;
    std::uint64_t n_ = 0; ///< constant: the draw; Bernoulli: trials;
                          ///< Poisson: the cap
    double p_ = 0.0;      ///< Bernoulli: success probability
    double limit_ = 0.0;  ///< Poisson: e^-mean of one leaf
    std::uint64_t leaves_ = 0;   ///< split Poisson: equal halves
    std::uint64_t quietMax_ = 0; ///< Poisson: last quiet raw value
};

} // namespace srs

#endif // SRS_COMMON_RNG_HH
