/**
 * @file
 * Unit tests for the common substrate: logging, RNG, log-space
 * combinatorics and statistics containers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include <cmath>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/mathutil.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace srs
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, FatalMessagePreserved)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 800); // each bucket near 1000
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(17);
    double sum = 0.0;
    const double lambda = 4.2;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / 20000.0, lambda, 0.1);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng rng(19);
    EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(Rng, BinomialSmallExact)
{
    Rng rng(23);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextBinomial(20, 0.25));
    EXPECT_NEAR(sum / 20000.0, 5.0, 0.1);
}

TEST(Rng, BinomialPoissonRegimeMean)
{
    Rng rng(29);
    // The random-guess landing regime: huge n, tiny p.
    const std::uint64_t n = 100000;
    const double p = 1.0 / 131072.0;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextBinomial(n, p));
    EXPECT_NEAR(sum / 20000.0, n * p, 0.02);
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(31);
    EXPECT_EQ(rng.nextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.nextBinomial(10, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(10, 1.0), 10u);
}

/**
 * The binomial and Poisson draws as first written, kept verbatim as
 * the oracle: a faster sampler must consume the same raw values in
 * the same order and return the same counts, or every Monte-Carlo
 * campaign and security CSV changes.
 */
std::uint64_t
oraclePoisson(Rng &rng, double lambda)
{
    if (lambda == 0.0)
        return 0;
    if (lambda < 30.0) {
        const double limit = std::exp(-lambda);
        double prod = 1.0;
        std::uint64_t k = 0;
        do {
            ++k;
            prod *= rng.nextDouble();
        } while (prod > limit);
        return k - 1;
    }
    const std::uint64_t half = oraclePoisson(rng, lambda / 2.0);
    return half + oraclePoisson(rng, lambda - lambda / 2.0);
}

std::uint64_t
oracleBinomial(Rng &rng, std::uint64_t n, double p)
{
    if (n == 0 || p == 0.0)
        return 0;
    if (p == 1.0)
        return n;
    const double mean = static_cast<double>(n) * p;
    if (p < 1e-3 && n > 1000) {
        const std::uint64_t draw = oraclePoisson(rng, mean);
        return draw > n ? n : draw;
    }
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        hits += rng.nextDouble() < p ? 1 : 0;
    return hits;
}

TEST(Rng, BinomialDrawsReplayTheOracleStream)
{
    struct Case
    {
        std::uint64_t n;
        double p;
        int draws;
    };
    // Cases that spend many raw values per draw take fewer draws.
    const Case cases[] = {
        {2279, 1.0 / 131072.0, 100000},   // fig06 rrs@n=600 landings
        {1940, 1.0 / 131072.0, 100000},   // fig06 rrs@n=900 landings
        {100000, 1.0 / 131072.0, 100000}, // lambda 0.76
        {1000000, 5e-5, 20000},           // lambda 50: split in halves
        {1001, 1e-20, 100000},            // e^-lambda rounds to 1.0
        {1000, 1.0 / 131072.0, 2000},     // n at the Bernoulli bound
        {2000, 1e-3, 1000},               // p at the Bernoulli bound
        {20, 0.25, 100000},
        {0, 0.5, 100000},
        {10, 0.0, 100000},
        {10, 1.0, 100000},
    };
    for (const std::uint64_t seed : {1ULL, 0x5eedULL, 2024ULL}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " n "
                                            << c.n << " p " << c.p);
            Rng lib(seed);
            Rng ref(seed);
            for (int i = 0; i < c.draws; ++i)
                ASSERT_EQ(lib.nextBinomial(c.n, c.p),
                          oracleBinomial(ref, c.n, c.p))
                    << "draw " << i;
            // Same position in the stream, not only the same counts.
            EXPECT_EQ(lib.next(), ref.next());
        }
    }
}

TEST(Rng, PoissonDrawsReplayTheOracleStream)
{
    for (const double lambda : {0.0, 1e-17, 0.0174, 4.2, 29.9, 30.0,
                                45.0, 100.3}) {
        SCOPED_TRACE(lambda);
        Rng lib(lambda == 0.0 ? 3 : 5);
        Rng ref(lambda == 0.0 ? 3 : 5);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(lib.nextPoisson(lambda), oraclePoisson(ref, lambda))
                << "draw " << i;
        EXPECT_EQ(lib.next(), ref.next());
    }
}

TEST(BinomialSampler, QuietTestMatchesTheFirstUniform)
{
    // quiet(r) must say exactly whether r's uniform, (r >> 11) * 2^-53,
    // is at most e^-lambda, on both sides of the threshold the
    // sampler derives from floor(e^-lambda * 2^53).
    constexpr std::uint64_t kMax = ~0ULL;
    struct Case
    {
        std::uint64_t n;
        double p;
    };
    for (const Case &c : {Case{2279, 1.0 / 131072.0},
                          Case{1940, 1.0 / 131072.0},
                          Case{100000, 1.0 / 131072.0},
                          Case{1001, 1e-20},     // e^-lambda == 1.0
                          Case{1001, 1.1e-19},   // e^-lambda == 1 - 2^-53
                          Case{1000000, 2.9e-5}}) {
        SCOPED_TRACE(testing::Message() << "n " << c.n << " p " << c.p);
        const double limit = std::exp(-static_cast<double>(c.n) * c.p);
        const BinomialSampler landings(c.n, c.p);
        const auto floorBits = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(limit * 0x1.0p53),
            (1ULL << 53) - 1);
        const std::uint64_t last = (floorBits << 11) | 0x7ff;
        std::vector<std::uint64_t> probes = {0, 0x7ff, 0x800, kMax,
                                             last - 0x800, last - 1,
                                             last};
        if (last != kMax) {
            probes.push_back(last + 1);
            probes.push_back(last + 0x800);
        }
        for (const std::uint64_t r : probes) {
            const bool zero =
                static_cast<double>(r >> 11) * 0x1.0p-53 <= limit;
            EXPECT_EQ(landings.quiet(r), zero) << "raw " << r;
        }
    }
    EXPECT_EQ(std::exp(-1001 * 1e-20), 1.0);
    EXPECT_EQ(std::exp(-1001 * 1.1e-19), 1.0 - 0x1.0p-53);
    // Regimes whose first raw value never settles a draw alone.
    for (const BinomialSampler &s :
         {BinomialSampler(20, 0.25), BinomialSampler(0, 0.5),
          BinomialSampler(10, 1.0), BinomialSampler(1000000, 5e-5),
          BinomialSampler()}) {
        for (const std::uint64_t r : {std::uint64_t{0}, kMax})
            EXPECT_FALSE(s.quiet(r));
    }
}

TEST(BinomialSampler, FirstAtLeastReplaysSingleDraws)
{
    // firstAtLeast(k, max) must consume exactly the raw values of the
    // oracle's draws up to the first one >= k, in every regime.
    struct Case
    {
        std::uint64_t n;
        double p;
        std::uint64_t k;
        std::uint64_t max;
    };
    const Case cases[] = {
        {2279, 1.0 / 131072.0, 2, 1000000},
        {1940, 1.0 / 131072.0, 1, 1000000},
        {1940, 1.0 / 131072.0, 1, 1},
        {1940, 1.0 / 131072.0, 0, 10},
        {1940, 1.0 / 131072.0, 1, 0},
        {1001, 1e-20, 1, 500},      // never lands: runs to max
        {1000000, 5e-5, 62, 2000}, // split mean
        {20, 0.25, 9, 2000},       // Bernoulli
        {10, 1.0, 5, 3},
        {0, 0.5, 1, 3},
    };
    for (const std::uint64_t seed : {7ULL, 0x5eedULL}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " n " << c.n << " p "
                         << c.p << " k " << c.k << " max " << c.max);
            const BinomialSampler landings(c.n, c.p);
            Rng lib(seed);
            Rng ref(seed);
            for (int trial = 0; trial < 20; ++trial) {
                std::uint64_t want = 0;
                for (std::uint64_t i = 1; i <= c.max && want == 0; ++i)
                    if (oracleBinomial(ref, c.n, c.p) >= c.k)
                        want = i;
                ASSERT_EQ(landings.firstAtLeast(c.k, c.max, lib), want)
                    << "trial " << trial;
            }
            EXPECT_EQ(lib.next(), ref.next());
        }
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(37);
    const double p = 0.02;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / 20000.0, 1.0 / p, 2.0);
}

TEST(Rng, GeometricCertainty)
{
    Rng rng(41);
    EXPECT_EQ(rng.nextGeometric(1.0), 1u);
}

TEST(MathUtil, LogFactorialSmallValues)
{
    EXPECT_NEAR(logFactorial(0), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(1), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(5), std::log(120.0), 1e-9);
}

TEST(MathUtil, BinomialCoeffMatchesPascal)
{
    EXPECT_NEAR(std::exp(logBinomialCoeff(5, 2)), 10.0, 1e-6);
    EXPECT_NEAR(std::exp(logBinomialCoeff(10, 5)), 252.0, 1e-6);
    EXPECT_EQ(logBinomialCoeff(3, 5),
              -std::numeric_limits<double>::infinity());
}

TEST(MathUtil, BinomialPmfSumsToOne)
{
    double total = 0.0;
    for (std::uint64_t k = 0; k <= 30; ++k)
        total += binomialPmf(30, k, 0.37);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathUtil, BinomialPmfDegenerate)
{
    EXPECT_DOUBLE_EQ(binomialPmf(10, 0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 10, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 12, 0.5), 0.0);
}

TEST(MathUtil, BinomialSfMatchesDirectSum)
{
    const std::uint64_t n = 40;
    const double p = 0.2;
    for (std::uint64_t k : {0ULL, 1ULL, 5ULL, 12ULL}) {
        double direct = 0.0;
        for (std::uint64_t i = k; i <= n; ++i)
            direct += binomialPmf(n, i, p);
        EXPECT_NEAR(binomialSf(n, k, p), direct, 1e-9);
    }
}

TEST(MathUtil, BinomialPmfAttackRegime)
{
    // The paper's Eq. 8 at T_RH 4800 / N 1100: G ~ 400 guesses over
    // 128K rows needing k = 2 hits; probability ~ (G/R)^2 / 2.
    const double p = binomialPmf(400, 2, 1.0 / 131072.0);
    const double lambda = 400.0 / 131072.0;
    const double poissonApprox = lambda * lambda / 2.0 * std::exp(-lambda);
    EXPECT_NEAR(p / poissonApprox, 1.0, 0.01);
}

TEST(MathUtil, PoissonPmfSums)
{
    double total = 0.0;
    for (std::uint64_t k = 0; k < 100; ++k)
        total += poissonPmf(k, 6.5);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(ceilDiv(1, 100), 1u);
}

TEST(MathUtil, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(5), 8u);
    EXPECT_EQ(nextPowerOfTwo(4096), 4096u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(131072), 17u);
}

TEST(LatencyHistogram, SmallValuesHaveExactBuckets)
{
    // Values below 16 land in unit-wide buckets, so every quantile
    // of a small-value stream is exact.
    LatencyHistogram h;
    for (std::uint64_t v : {1, 1, 2, 3, 4, 4, 4, 5, 9, 15})
        h.add(v);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.quantilePermille(100), 1u);
    EXPECT_EQ(h.quantilePermille(500), 4u);
    EXPECT_EQ(h.quantilePermille(900), 9u);
    EXPECT_EQ(h.quantilePermille(990), 15u);
    EXPECT_EQ(h.quantilePermille(999), 15u);
    EXPECT_EQ(h.quantilePermille(1000), 15u);
}

TEST(LatencyHistogram, BucketBoundariesAtTheOctaveEdges)
{
    // The exact range ends at 15; 16 opens the first sub-bucketed
    // octave, whose 8 buckets cover [16,17]..[30,31].
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(15), 15u);
    EXPECT_EQ(LatencyHistogram::bucketOf(16), 16u);
    EXPECT_EQ(LatencyHistogram::bucketOf(17), 16u);
    EXPECT_EQ(LatencyHistogram::bucketOf(18), 17u);
    EXPECT_EQ(LatencyHistogram::bucketOf(31), 23u);
    EXPECT_EQ(LatencyHistogram::bucketOf(32), 24u);
    // Every bucket's upper bound maps back into that bucket, and the
    // next value starts the next bucket (the buckets tile the axis).
    for (std::uint32_t b = 0;
         b + 1 < LatencyHistogram::kBucketCount; ++b) {
        const std::uint64_t hi = LatencyHistogram::bucketUpperBound(b);
        EXPECT_EQ(LatencyHistogram::bucketOf(hi), b) << "bucket " << b;
        EXPECT_EQ(LatencyHistogram::bucketOf(hi + 1), b + 1)
            << "bucket " << b;
    }
    EXPECT_EQ(LatencyHistogram::bucketOf(
                  std::numeric_limits<std::uint64_t>::max()),
              LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogram, QuantilesReportBucketUpperBounds)
{
    // Above the exact range a quantile reports its bucket's upper
    // bound — deterministic and conservative (never understates).
    LatencyHistogram h;
    h.add(100, 10);
    const std::uint64_t bound = LatencyHistogram::bucketUpperBound(
        LatencyHistogram::bucketOf(100));
    EXPECT_GE(bound, 100u);
    EXPECT_EQ(h.quantilePermille(500), bound);
    EXPECT_EQ(h.quantilePermille(999), bound);
}

TEST(LatencyHistogram, MergeEqualsConcatenatedStream)
{
    // merge() is exactly stream concatenation: per-core and
    // per-shard histograms combine into the bytes a single-threaded
    // run would have produced — the invariance the CSV percentile
    // columns rely on.
    LatencyHistogram all, a, b;
    Rng rng(0x1a7e);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.nextBelow(1u << 20);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    LatencyHistogram ab = a;
    ab.merge(b);
    LatencyHistogram ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, all);
    EXPECT_EQ(ba, all);
    EXPECT_EQ(ab.quantilePermille(990), all.quantilePermille(990));
    EXPECT_NE(a, all);
}

TEST(LatencyHistogram, EmptyIsSafeAndEqualityIsStructural)
{
    LatencyHistogram empty;
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.quantilePermille(500), 0u);
    LatencyHistogram one;
    one.add(0);
    EXPECT_NE(empty, one);
    EXPECT_EQ(one.quantilePermille(500), 0u);
}

TEST(StatSet, IncSetGetDump)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 4);
    s.set("b", 9);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("b"), 9u);
    EXPECT_EQ(s.get("missing"), 0u);
    EXPECT_NE(s.dump().find("a = 5"), std::string::npos);
}


// ---------------------------------------------------------------------
// Options parsing.
// ---------------------------------------------------------------------

TEST(Options, ParsesArgsFlagsAndPositional)
{
    const char *argv[] = {"prog", "perf", "--trh=1200",
                          "--csv", "--rate=3", "extra"};
    Options o = Options::fromArgs(6, argv);
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "perf");
    EXPECT_EQ(o.positional()[1], "extra");
    EXPECT_EQ(o.getUint("trh", 0), 1200u);
    EXPECT_EQ(o.getUint("rate", 0), 3u);
    EXPECT_TRUE(o.getBool("csv", false));
    EXPECT_EQ(o.getString("workload", "gcc"), "gcc");

    // Base 10 only: a leading zero is not octal.  Seeds alone also
    // take the CSV's 0x spelling.
    o.set("trh", "02260");
    EXPECT_EQ(o.getUint<std::uint32_t>("trh", 0), 2260u);
    o.set("trh", "4294967295");
    EXPECT_EQ(o.getUint<std::uint32_t>("trh", 0), 4294967295u);
    o.set("cycles", "18446744073709551615");
    EXPECT_EQ(o.getUint("cycles", 0), 18446744073709551615u);
    o.set("seed", "0x5eed");
    EXPECT_EQ(o.getSeed("seed", 0), 24301u);
    o.set("seed", "24301");
    EXPECT_EQ(o.getSeed("seed", 0), 24301u);
    o.set("seed", "0xFFFFFFFFFFFFFFFF");
    EXPECT_EQ(o.getSeed("seed", 0), 18446744073709551615u);
    EXPECT_EQ(o.getSeed("absent", 0xbeef), 0xbeefu);
}

TEST(Options, TypedGetterErrors)
{
    const char *argv[] = {"prog", "--trh=abc", "--b=maybe"};
    Options o = Options::fromArgs(3, argv);
    EXPECT_THROW(o.getUint("trh", 0), FatalError);
    EXPECT_THROW(o.getBool("b", false), FatalError);

    // A sign, whitespace, a base prefix outside seeds, overflow and a
    // value too large for the caller's type are all fatal, quoting
    // the input.
    for (const char *bad : {"-1", "+5", " 5", "5 ", "", "0x10", "1e3",
                            "18446744073709551616"}) {
        o.set("trh", bad);
        EXPECT_THROW(o.getUint("trh", 0), FatalError) << "'" << bad << "'";
    }
    o.set("trh", "4294968496");
    EXPECT_EQ(o.getUint("trh", 0), 4294968496u);
    try {
        o.getUint<std::uint32_t>("trh", 0);
        ADD_FAILURE() << "4294968496 fit in 32 bits";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'4294968496'"),
                  std::string::npos) << e.what();
    }
    for (const char *bad : {"0x", "0x-1", "0x5eedz", "0X5eed", "-0x1",
                            "0x10000000000000000"}) {
        o.set("seed", bad);
        EXPECT_THROW(o.getSeed("seed", 0), FatalError) << "'" << bad << "'";
    }
}

TEST(Options, RejectUnknownCatchesTypos)
{
    const char *argv[] = {"prog", "--thr=1200"};
    Options o = Options::fromArgs(2, argv);
    o.getUint("trh", 4800); // the real option name
    EXPECT_THROW(o.rejectUnknown(), FatalError);
}

TEST(Options, RejectUnknownPassesWhenAllConsumed)
{
    const char *argv[] = {"prog", "--trh=1200"};
    Options o = Options::fromArgs(2, argv);
    o.getUint("trh", 4800);
    EXPECT_NO_THROW(o.rejectUnknown());
}

TEST(Options, FileParsing)
{
    const std::string path = ::testing::TempDir() + "srs_opts.cfg";
    {
        std::ofstream out(path);
        out << "# experiment config\n"
            << "trh = 2400\n"
            << "workload=hmmer   # inline comment\n"
            << "\n"
            << "pin = true\n";
    }
    Options o = Options::fromFile(path);
    EXPECT_EQ(o.getUint("trh", 0), 2400u);
    EXPECT_EQ(o.getString("workload", ""), "hmmer");
    EXPECT_TRUE(o.getBool("pin", false));
    std::remove(path.c_str());
}

TEST(Options, FileErrors)
{
    EXPECT_THROW(Options::fromFile("/nonexistent/x.cfg"), FatalError);
    const std::string path = ::testing::TempDir() + "srs_bad.cfg";
    {
        std::ofstream out(path);
        out << "just a word\n";
    }
    EXPECT_THROW(Options::fromFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(Options, SetOverrides)
{
    Options o;
    o.set("trh", "512");
    EXPECT_EQ(o.getUint("trh", 0), 512u);
    o.set("trh", "1200");
    EXPECT_EQ(o.getUint("trh", 0), 1200u);
}

} // namespace
} // namespace srs
