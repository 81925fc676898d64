#include "common/rng.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace srs
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    SRS_ASSERT(bound > 0, "nextBelow(0) is meaningless");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    SRS_ASSERT(lo <= hi, "empty range");
    return lo + nextBelow(hi - lo + 1);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
Rng::nextPoisson(double lambda)
{
    return BinomialSampler::poisson(lambda)(*this);
}

std::uint64_t
Rng::nextBinomial(std::uint64_t n, double p)
{
    return BinomialSampler(n, p)(*this);
}

std::uint64_t
Rng::nextGeometric(double p)
{
    SRS_ASSERT(p > 0.0 && p <= 1.0, "geometric p outside (0,1]");
    if (p == 1.0)
        return 1;
    // Inverse CDF: ceil(ln(U) / ln(1-p)).
    const double u = 1.0 - nextDouble(); // (0, 1]
    return static_cast<std::uint64_t>(
        std::ceil(std::log(u) / std::log1p(-p)));
}

BinomialSampler::BinomialSampler(std::uint64_t n, double p)
{
    SRS_ASSERT(p >= 0.0 && p <= 1.0, "binomial p outside [0,1]");
    if (n == 0 || p == 0.0)
        return;
    if (p == 1.0) {
        n_ = n;
        return;
    }
    if (p < 1e-3 && n > 1000) {
        setPoisson(static_cast<double>(n) * p, n);
        return;
    }
    regime_ = Regime::Bernoulli;
    n_ = n;
    p_ = p;
}

BinomialSampler
BinomialSampler::poisson(double lambda)
{
    BinomialSampler s;
    s.setPoisson(lambda, ~0ULL);
    return s;
}

void
BinomialSampler::setPoisson(double lambda, std::uint64_t cap)
{
    SRS_ASSERT(lambda >= 0.0 && lambda < 0x1.0p64,
               "Poisson mean outside [0, 2^64)");
    if (lambda == 0.0)
        return;
    n_ = cap;
    // Halving is exact, and lambda - lambda / 2 == lambda / 2, so the
    // recursive split of a large mean ends in 2^d equal leaves.
    leaves_ = 1;
    while (lambda >= 30.0) {
        lambda /= 2.0;
        leaves_ *= 2;
    }
    limit_ = std::exp(-lambda);
    if (leaves_ > 1) {
        regime_ = Regime::SplitPoisson;
        return;
    }
    regime_ = Regime::Poisson;
    // unit(r) <= limit_ exactly when (r >> 11) <= limit_ * 2^53 (a
    // power-of-two scaling, so exact), i.e. when (r >> 11) is at most
    // its floor.  A limit_ of 1 - 2^-53 or 1.0 makes every raw value
    // quiet; clamping keeps the shift below from wrapping.
    const std::uint64_t last = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(limit_ * 0x1.0p53), (1ULL << 53) - 1);
    quietMax_ = (last << 11) | 0x7ff;
}

std::uint64_t
BinomialSampler::operator()(Rng &rng) const
{
    if (regime_ == Regime::Poisson) {
        const std::uint64_t raw = rng.next();
        return quiet(raw) ? 0 : poissonAfter(raw, rng);
    }
    if (regime_ == Regime::Constant)
        return n_;
    if (regime_ == Regime::Bernoulli) {
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < n_; ++i)
            hits += rng.nextDouble() < p_ ? 1 : 0;
        return hits;
    }
    std::uint64_t draw = 0;
    for (std::uint64_t i = 0; i < leaves_; ++i)
        draw += leaf(rng.nextDouble(), rng);
    return draw > n_ ? n_ : draw;
}

std::uint64_t
BinomialSampler::firstAtLeast(std::uint64_t k, std::uint64_t max,
                              Rng &rng) const
{
    std::uint64_t i = 0;
    if (regime_ == Regime::Poisson && k >= 1) {
        // A quiet draw is 0 < k, so run through them in a loop with
        // no call; quiet(raw) is tested against a local copy of the
        // threshold, which the stores of rng.next() cannot alias.
        const std::uint64_t quietMax = quietMax_;
        while (i < max) {
            std::uint64_t raw;
            do {
                raw = rng.next();
                ++i;
            } while (raw <= quietMax && i < max);
            if (raw > quietMax && poissonAfter(raw, rng) >= k)
                return i;
        }
        return 0;
    }
    while (i < max) {
        ++i;
        if ((*this)(rng) >= k)
            return i;
    }
    return 0;
}

std::uint64_t
BinomialSampler::poissonAfter(std::uint64_t raw, Rng &rng) const
{
    const std::uint64_t draw = leaf(Rng::unit(raw), rng);
    return draw > n_ ? n_ : draw;
}

std::uint64_t
BinomialSampler::leaf(double prod, Rng &rng) const
{
    std::uint64_t factors = 0;
    while (prod > limit_) {
        prod *= rng.nextDouble();
        ++factors;
    }
    return factors;
}

} // namespace srs
