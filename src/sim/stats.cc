#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

namespace tpp {

double
TimeSeries::meanValue() const
{
    if (points_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &pt : points_)
        sum += pt.value;
    return sum / static_cast<double>(points_.size());
}

double
TimeSeries::maxValue() const
{
    double best = 0.0;
    bool first = true;
    for (const auto &pt : points_) {
        if (first || pt.value > best) {
            best = pt.value;
            first = false;
        }
    }
    return best;
}

double
TimeSeries::percentile(double p) const
{
    if (points_.empty())
        return 0.0;
    std::vector<double> values;
    values.reserve(points_.size());
    for (const auto &pt : points_)
        values.push_back(pt.value);
    std::sort(values.begin(), values.end());
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

} // namespace tpp
