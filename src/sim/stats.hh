/**
 * @file
 * Time series for convergence plots: a deliberately simple value type
 * that a bench fills during a run and summarises at the end.
 */

#ifndef TPP_SIM_STATS_HH
#define TPP_SIM_STATS_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace tpp {

/**
 * (tick, value) series, e.g. promotion rate over time for Fig 17/18.
 */
class TimeSeries
{
  public:
    struct Point {
        Tick tick;
        double value;
    };

    void
    record(Tick tick, double value)
    {
        points_.push_back(Point{tick, value});
    }

    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** Mean of all recorded values (0 when empty). */
    double meanValue() const;

    /** Max of all recorded values (0 when empty). */
    double maxValue() const;

    /** Nearest-rank percentile over recorded values (0 when empty). */
    double percentile(double p) const;

    void clear() { points_.clear(); }

  private:
    std::vector<Point> points_;
};

} // namespace tpp

#endif // TPP_SIM_STATS_HH
