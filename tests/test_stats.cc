/**
 * @file
 * Unit tests for TimeSeries, the statistics primitive the benches use.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace tpp {
namespace {

TEST(TimeSeries, MeanMaxPercentile)
{
    TimeSeries ts;
    for (int i = 1; i <= 10; ++i)
        ts.record(i * 100, i);
    EXPECT_DOUBLE_EQ(ts.meanValue(), 5.5);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 10.0);
    EXPECT_DOUBLE_EQ(ts.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(ts.percentile(100), 10.0);
    EXPECT_EQ(ts.size(), 10u);
}

TEST(TimeSeries, EmptyBehaviour)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_DOUBLE_EQ(ts.meanValue(), 0.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(ts.percentile(99), 0.0);
}

TEST(TimeSeries, ClearEmpties)
{
    TimeSeries ts;
    ts.record(1, 1.0);
    ts.clear();
    EXPECT_TRUE(ts.empty());
}

} // namespace
} // namespace tpp
