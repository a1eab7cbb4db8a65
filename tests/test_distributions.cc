/**
 * @file
 * Unit and property tests for the sampling distributions.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/distributions.hh"
#include "sim/rng.hh"

namespace tpp {
namespace {

TEST(Zipf, StaysInRange)
{
    Rng rng(1);
    ZipfDistribution zipf(100, 0.99);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(zipf(rng), 100u);
}

TEST(Zipf, SingleElement)
{
    Rng rng(2);
    ZipfDistribution zipf(1, 0.99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf(rng), 0u);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(3);
    ZipfDistribution zipf(1000, 0.99);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        counts[zipf(rng)]++;
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[1], counts[100]);
}

TEST(Zipf, FrequencyMatchesTheory)
{
    Rng rng(4);
    const double theta = 0.99;
    ZipfDistribution zipf(1000, theta);
    std::vector<int> counts(1000, 0);
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        counts[zipf(rng)]++;
    // P(0)/P(9) should be close to 10^theta.
    const double expected = std::pow(10.0, theta);
    const double observed =
        static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
    EXPECT_NEAR(observed, expected, expected * 0.15);
}

TEST(Zipf, ZeroThetaIsUniform)
{
    Rng rng(5);
    ZipfDistribution zipf(16, 0.0);
    std::vector<int> counts(16, 0);
    const int n = 160000;
    for (int i = 0; i < n; ++i)
        counts[zipf(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, n / 16, n / 16 * 0.1);
}

/** Property sweep: every (n, theta) combination stays in range and
 *  keeps rank-0 the mode. */
class ZipfSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfSweep, RangeAndMode)
{
    const auto [n, theta] = GetParam();
    Rng rng(n * 31 + static_cast<std::uint64_t>(theta * 100));
    ZipfDistribution zipf(n, theta);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t v = zipf(rng);
        ASSERT_LT(v, n);
        counts[v]++;
    }
    if (theta > 0.3 && n > 4) {
        // Rank 0 must be sampled at least as often as any deep rank.
        int deep_max = 0;
        for (const auto &[rank, c] : counts) {
            if (rank >= n / 2)
                deep_max = std::max(deep_max, c);
        }
        EXPECT_GE(counts[0], deep_max);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 16, 1024,
                                                        1048576),
                       ::testing::Values(0.0, 0.5, 0.9, 0.99, 1.2)));

TEST(ZipfDeathTest, NonFiniteThetaIsFatal)
{
    // NaN fails every comparison in the acceptance test, so such a
    // sampler would never return a draw.
    EXPECT_DEATH({ ZipfDistribution zipf(100, std::nan("")); }, "theta");
    EXPECT_DEATH(
        {
            ZipfDistribution zipf(100,
                                  std::numeric_limits<double>::infinity());
        },
        "theta");
    EXPECT_DEATH({ ZipfDistribution zipf(100, -0.5); }, "theta");
}

/**
 * Rejection-inversion without the bucket table, copied from the sampler
 * as it was before the table existed: the reference the table-backed
 * sampler must match draw for draw.
 */
class ReferenceZipf
{
  public:
    ReferenceZipf(std::uint64_t n, double theta) : n_(n), theta_(theta)
    {
        hIntegralX1_ = hIntegral(1.5) - 1.0;
        hIntegralNumberOfElements_ =
            hIntegral(static_cast<double>(n) + 0.5);
        s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        for (;;) {
            const double u = hIntegralNumberOfElements_ +
                             rng.nextDouble() *
                                 (hIntegralX1_ - hIntegralNumberOfElements_);
            const double x = hIntegralInverse(u);
            double k = std::floor(x + 0.5);
            if (k < 1.0)
                k = 1.0;
            else if (k > static_cast<double>(n_))
                k = static_cast<double>(n_);
            if (k - x <= s_ || u >= hIntegral(k + 0.5) - h(k)) {
                return static_cast<std::uint64_t>(k) - 1;
            }
        }
    }

  private:
    double
    hIntegral(double x) const
    {
        const double log_x = std::log(x);
        const double t = log_x * (1.0 - theta_);
        const double helper = (std::abs(t) > 1e-8)
                                   ? std::expm1(t) / t
                                   : 1.0 + t / 2.0 + t * t / 6.0;
        return helper * log_x;
    }

    double
    hIntegralInverse(double x) const
    {
        double t = x * (1.0 - theta_);
        if (t < -1.0)
            t = -1.0;
        const double helper = (std::abs(t) > 1e-8)
                                  ? std::log1p(t) / t
                                  : 1.0 - t / 2.0 + t * t / 3.0;
        return std::exp(helper * x);
    }

    double h(double x) const { return std::exp(-theta_ * std::log(x)); }

    std::uint64_t n_;
    double theta_;
    double hIntegralX1_;
    double hIntegralNumberOfElements_;
    double s_;
};

class ZipfTable
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfTable, MatchesReferenceDrawForDraw)
{
    const auto [n, theta] = GetParam();
    const std::uint64_t seed = n * 1009 + static_cast<std::uint64_t>(
                                              theta * 100);
    Rng fast_rng(seed), ref_rng(seed);
    ZipfDistribution zipf(n, theta);
    const ReferenceZipf ref(n, theta);
    // Far past the lazy build (at most 2^15 draws), so most draws take
    // the table path.
    const int draws = 1 << 21;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t want = ref(ref_rng);
        const std::uint64_t got = zipf(fast_rng);
        ASSERT_EQ(got, want) << "draw " << i;
    }
    // Both consumed exactly the same RNG words.
    EXPECT_EQ(fast_rng.next(), ref_rng.next());
}

INSTANTIATE_TEST_SUITE_P(
    Exact, ZipfTable,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 16, 1024, 3145,
                                                        6225, 65535, 70000,
                                                        1048576),
                       ::testing::Values(0.0, 0.5, 0.9, 0.99, 1.0, 1.2)),
    [](const ::testing::TestParamInfo<ZipfTable::ParamType> &info) {
        char name[48];
        std::snprintf(name, sizeof name, "n%llu_theta%d",
                      static_cast<unsigned long long>(std::get<0>(info.param)),
                      static_cast<int>(std::get<1>(info.param) * 100));
        return std::string(name);
    });

} // namespace
} // namespace tpp
