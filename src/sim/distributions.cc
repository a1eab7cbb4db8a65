#include "sim/distributions.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tpp {

// ZipfDistribution: rejection-inversion sampling after Hörmann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions" (1996), as popularised by Apache Commons RNG.

ZipfDistribution::ZipfDistribution(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        tpp_fatal("ZipfDistribution requires n >= 1");
    // NaN fails every comparison in the acceptance test, so a NaN or
    // infinite theta would make operator() loop forever.
    if (!std::isfinite(theta) || theta < 0.0)
        tpp_fatal("ZipfDistribution requires a finite theta >= 0");
    hIntegralX1_ = hIntegral(1.5) - 1.0;
    hIntegralNumberOfElements_ = hIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
    // About 8 buckets per rank, 256 to 32768 of them (at most 64 KiB).
    unsigned bits = 8;
    while (bits < 15 && (std::uint64_t{1} << bits) < 8 * n)
        bits++;
    shift_ = 53 - bits;
}

double
ZipfDistribution::hIntegral(double x) const
{
    const double log_x = std::log(x);
    // Uses expm1/log1p-based helper to stay accurate when theta ~ 1.
    const double t = log_x * (1.0 - theta_);
    const double helper =
        (std::abs(t) > 1e-8) ? std::expm1(t) / t : 1.0 + t / 2.0 + t * t / 6.0;
    return helper * log_x;
}

double
ZipfDistribution::hIntegralInverse(double x) const
{
    double t = x * (1.0 - theta_);
    if (t < -1.0)
        t = -1.0;
    const double helper =
        (std::abs(t) > 1e-8) ? std::log1p(t) / t : 1.0 - t / 2.0 + t * t / 3.0;
    return std::exp(helper * x);
}

double
ZipfDistribution::h(double x) const
{
    return std::exp(-theta_ * std::log(x));
}

double
ZipfDistribution::uFor(double d) const
{
    return hIntegralNumberOfElements_ +
           d * (hIntegralX1_ - hIntegralNumberOfElements_);
}

std::uint64_t
ZipfDistribution::sampleFrom(std::uint64_t m, Rng &rng) const
{
    // m * 2^-53 is exactly the value rng.nextDouble() returns for the
    // draw m came from, so the first iteration is the usual one.
    double d = static_cast<double>(m) * 0x1.0p-53;
    for (;;) {
        const double u = uFor(d);
        const double x = hIntegralInverse(u);
        double k = std::floor(x + 0.5);
        if (k < 1.0)
            k = 1.0;
        else if (k > static_cast<double>(n_))
            k = static_cast<double>(n_);
        if (k - x <= s_ || u >= hIntegral(k + 0.5) - h(k)) {
            return static_cast<std::uint64_t>(k) - 1;
        }
        d = rng.nextDouble();
    }
}

std::uint16_t
ZipfDistribution::certainRank(double lo, double hi) const
{
    const double k = std::floor(lo + 0.5);
    if (!(k >= 1.0 && k <= static_cast<double>(n_) &&
          k - 1.0 < static_cast<double>(kUnsure))) {
        return kUnsure;
    }
    // Both ends clear the rounding edges k +- 0.5 and the acceptance
    // edge k - x = s_ by ~1e6 times libm's error, so no draw between
    // them can round to another rank or need the rejection test.
    for (const double x : {lo, hi}) {
        const double margin = 1e-9 * std::max(1.0, x);
        if (!(x - (k - 0.5) > margin && (k + 0.5) - x > margin &&
              s_ - (k - x) > margin)) {
            return kUnsure;
        }
    }
    return static_cast<std::uint16_t>(k - 1.0);
}

void
ZipfDistribution::buildTable()
{
    // Bucket b holds the mantissas [b, b + 1) << shift_. x is monotone in
    // the mantissa, so x at the bucket's first mantissa and at the next
    // bucket's first bounds x for every draw in the bucket.
    const auto x_at = [this](std::uint64_t m) {
        return hIntegralInverse(uFor(static_cast<double>(m) * 0x1.0p-53));
    };
    fast_.resize(buckets());
    double edge = x_at(0);
    for (std::uint64_t b = 0; b < fast_.size(); ++b) {
        const double next_edge = x_at((b + 1) << shift_);
        fast_[b] = certainRank(std::min(edge, next_edge),
                               std::max(edge, next_edge));
        edge = next_edge;
    }
}

} // namespace tpp
