/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hh"

namespace tpp {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            same++;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000003ULL}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.nextRange(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= (v == 10);
        saw_hi |= (v == 13);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoolEdgeCases)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
        EXPECT_FALSE(rng.nextBool(-1.0));
        EXPECT_TRUE(rng.nextBool(2.0));
    }
}

TEST(Rng, BoolProbability)
{
    Rng rng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(23);
    Rng child = parent.split();
    // The child stream should not replicate the parent stream.
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (parent.next() == child.next())
            same++;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedUniformity)
{
    Rng rng(29);
    const std::uint64_t buckets = 8;
    std::vector<int> counts(buckets, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        counts[rng.nextBounded(buckets)]++;
    for (std::uint64_t b = 0; b < buckets; ++b)
        EXPECT_NEAR(counts[b], n / buckets, n / buckets * 0.1);
}

TEST(Rng, StreamIsPinned)
{
    // The first draws of each kind for seed 1, captured before the draw
    // functions moved inline. Every simulated result is a function of
    // these streams.
    Rng rng(1);
    const std::uint64_t raw[] = {
        12966619160104079557ULL, 9600361134598540522ULL,
        10590380919521690900ULL, 7218738570589545383ULL};
    for (const std::uint64_t v : raw)
        EXPECT_EQ(rng.next(), v);
    // nextDouble() is a 53-bit integer times 2^-53; pin the integer.
    const std::uint64_t mantissa[] = {
        6279624914060390ULL, 1293181942366132ULL, 639918417231522ULL,
        3433404264150589ULL};
    for (const std::uint64_t v : mantissa) {
        EXPECT_EQ(static_cast<std::uint64_t>(rng.nextDouble() * 0x1.0p53),
                  v);
    }
    const std::uint64_t bounded[] = {778928, 955363, 60473, 502995};
    for (const std::uint64_t v : bounded)
        EXPECT_EQ(rng.nextBounded(1000003), v);
    // 32 nextBool(0.3) draws, the first in the low bit.
    std::uint32_t bits = 0;
    for (int i = 0; i < 32; ++i)
        bits |= static_cast<std::uint32_t>(rng.nextBool(0.3)) << i;
    EXPECT_EQ(bits, 830742736u);
    EXPECT_EQ(rng.next(), 5699652936446292341ULL);
}

TEST(Rng, NoShortCycle)
{
    Rng rng(31);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        seen.insert(rng.next());
    EXPECT_EQ(seen.size(), 10000u);
}

} // namespace
} // namespace tpp
