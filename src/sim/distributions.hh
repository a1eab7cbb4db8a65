/**
 * @file
 * Sampling distributions used by workload generators.
 *
 * The key one is ZipfDistribution: datacenter access skew (hot keys in
 * Cache, hot heap objects in Web) is conventionally modelled as Zipfian.
 * Sampling uses the rejection-inversion method of Hörmann & Derflinger,
 * which is O(1) per sample. A busy sampler also builds a small bucket
 * table over the raw 53-bit draw: a bucket whose every draw provably
 * lands on one rank returns that rank without evaluating the inverse.
 * The table is a cache in front of the one sampler, so a draw consumes
 * the same RNG words and yields the same rank with or without it.
 */

#ifndef TPP_SIM_DISTRIBUTIONS_HH
#define TPP_SIM_DISTRIBUTIONS_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace tpp {

/**
 * Zipf-distributed integers over [0, n). Rank 0 is the most popular.
 *
 * P(k) proportional to 1 / (k + 1)^theta.
 *
 * Fast path: the top bits of the first draw's 53-bit mantissa index a
 * table of 2^B buckets (2^8..2^15, about 8 per rank). A bucket holds a
 * rank only when the draws at both of its edges map to that rank through
 * the unchanged formula and pass the quick acceptance test, each with a
 * margin far above libm's error from every rounding and acceptance edge;
 * the mapping is monotone, so every draw in between does the same. Other
 * buckets hold kUnsure and fall through to rejection-inversion with the
 * same draw. Ranks >= kUnsure are never cached.
 * The table is built once the sampler has served as many draws as it
 * has buckets, so short-lived samplers never pay for it.
 */
class ZipfDistribution
{
  public:
    /**
     * @param n      population size, must be >= 1
     * @param theta  skew exponent; 0 degenerates to uniform, ~0.99 is the
     *               YCSB default, larger is more skewed
     */
    ZipfDistribution(std::uint64_t n, double theta);

    /** Draw one rank in [0, n). */
    std::uint64_t
    operator()(Rng &rng)
    {
        if (n_ == 1)
            return 0;
        const std::uint64_t m = rng.next() >> 11;
        if (!fast_.empty()) {
            const std::uint16_t rank = fast_[m >> shift_];
            if (rank != kUnsure)
                return rank;
        } else if (++untabledDraws_ == buckets()) {
            buildTable();
        }
        return sampleFrom(m, rng);
    }

    std::uint64_t size() const { return n_; }
    double theta() const { return theta_; }

  private:
    /** Table entry for a bucket whose draws may map to several ranks. */
    static constexpr std::uint16_t kUnsure = 0xFFFF;

    double hIntegral(double x) const;
    double hIntegralInverse(double x) const;
    double h(double x) const;

    /** The inversion's argument for a uniform draw d in [0, 1]. */
    double uFor(double d) const;
    /** Rejection-inversion, starting from the mantissa `m`. */
    std::uint64_t sampleFrom(std::uint64_t m, Rng &rng) const;
    /** Rank shared by every x in [lo, hi], or kUnsure. */
    std::uint16_t certainRank(double lo, double hi) const;
    void buildTable();

    std::uint64_t
    buckets() const
    {
        return std::uint64_t{1} << (53 - shift_);
    }

    std::uint64_t n_;
    double theta_;
    double hIntegralX1_;
    double hIntegralNumberOfElements_;
    double s_;
    /** 53 minus the table's log2 bucket count. */
    unsigned shift_;
    /** Draws served before the table was built. */
    std::uint64_t untabledDraws_ = 0;
    std::vector<std::uint16_t> fast_;
};

} // namespace tpp

#endif // TPP_SIM_DISTRIBUTIONS_HH
