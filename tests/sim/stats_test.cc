/** @file Histogram and RateMeter tests. */
#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fld::sim {
namespace {

TEST(Histogram, MeanAndExtremes)
{
    Histogram h;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.add(v);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, PercentilesOfUniformRamp)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(double(i));
    EXPECT_NEAR(h.median(), 500.5, 1.0);
    EXPECT_NEAR(h.percentile(99), 990, 1.5);
    EXPECT_NEAR(h.percentile(99.9), 999, 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(Histogram, SingleSample)
{
    Histogram h;
    h.add(42.0);
    EXPECT_DOUBLE_EQ(h.median(), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 42.0);
    EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, EmptyPercentileIsNan)
{
    // An empty distribution has no percentiles: NaN, not a plausible
    // zero-latency reading.
    Histogram h;
    EXPECT_TRUE(std::isnan(h.percentile(50)));
    EXPECT_TRUE(std::isnan(h.median()));
    EXPECT_TRUE(std::isnan(h.percentile(0)));
    EXPECT_TRUE(std::isnan(h.percentile(99.9)));
}

TEST(Histogram, PercentileRecoversAfterClear)
{
    Histogram h;
    h.add(7.0);
    EXPECT_DOUBLE_EQ(h.median(), 7.0);
    h.clear();
    EXPECT_TRUE(std::isnan(h.median()));
    h.add(3.0);
    EXPECT_DOUBLE_EQ(h.median(), 3.0);
}

TEST(Histogram, QuantileMatchesPercentile)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(double(i));
    // p(q) and percentile(100q) are the same function.
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(h.p(q), h.percentile(q * 100.0)) << q;
    // Interpolated p99.9 of the 1..1000 ramp: rank 0.999*999=998.001.
    EXPECT_NEAR(h.p(0.999), 999.001, 1e-9);
    EXPECT_DOUBLE_EQ(h.p(0.5), h.median());
}

TEST(Histogram, QuantileEmptyIsNan)
{
    Histogram h;
    EXPECT_TRUE(std::isnan(h.p(0.0)));
    EXPECT_TRUE(std::isnan(h.p(0.999)));
    EXPECT_TRUE(std::isnan(h.p(1.0)));
}

TEST(Histogram, QuantileSingleSample)
{
    Histogram h;
    h.add(42.0);
    // Every quantile of a one-sample distribution is that sample.
    for (double q : {0.0, 0.001, 0.5, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(h.p(q), 42.0) << q;
}

TEST(Histogram, QuantileInterpolatesBetweenSamples)
{
    Histogram h;
    h.add(10.0);
    h.add(20.0);
    EXPECT_DOUBLE_EQ(h.p(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.p(0.5), 15.0);
    EXPECT_DOUBLE_EQ(h.p(0.75), 17.5);
    EXPECT_DOUBLE_EQ(h.p(0.999), 19.99);
    EXPECT_DOUBLE_EQ(h.p(1.0), 20.0);
}

TEST(Histogram, QuantileClampsOutOfRangeQ)
{
    Histogram h;
    h.add(1.0);
    h.add(2.0);
    // Out-of-range q clamps to the extremes instead of reading out of
    // bounds.
    EXPECT_DOUBLE_EQ(h.p(-0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.p(1.5), 2.0);
}

TEST(Histogram, TailQuantileSeparatesOutlier)
{
    Histogram h;
    for (int i = 0; i < 999; ++i)
        h.add(1.0);
    h.add(1000.0); // one straggler in a thousand
    EXPECT_DOUBLE_EQ(h.p(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.p(0.99), 1.0);
    EXPECT_GT(h.p(0.999), 1.0); // p99.9 sees the tail
    EXPECT_DOUBLE_EQ(h.p(1.0), 1000.0);
}

TEST(Histogram, StddevOfKnownSet)
{
    Histogram h;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        h.add(v);
    EXPECT_NEAR(h.stddev(), 2.138, 0.001); // sample stddev
}

TEST(Histogram, AddAfterPercentileQuery)
{
    Histogram h;
    h.add(1.0);
    EXPECT_DOUBLE_EQ(h.median(), 1.0);
    h.add(3.0);
    EXPECT_DOUBLE_EQ(h.median(), 2.0); // resorted after mutation
}

/** Order statistics of @p xs by sorting a copy: the reference the
 *  in-place Histogram must reproduce exactly. */
double
reference_p(std::vector<double> xs, double q)
{
    if (xs.empty())
        return std::nan("");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs.front();
    double rank = q * 100.0 / 100.0 * double(xs.size() - 1); // as p()
    size_t lo = size_t(rank);
    if (lo + 1 >= xs.size())
        return xs.back();
    double frac = rank - double(lo);
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

void
expect_matches(const Histogram& h, const std::vector<double>& xs)
{
    ASSERT_EQ(h.count(), xs.size());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        double want = reference_p(xs, q);
        if (std::isnan(want))
            EXPECT_TRUE(std::isnan(h.p(q))) << q;
        else
            EXPECT_EQ(h.p(q), want) << q; // exact, not near
    }
    if (xs.empty())
        return;
    EXPECT_EQ(h.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_EQ(h.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Histogram, InterleavedAddsQueriesAndCopiesMatchSortedCopy)
{
    Histogram h;
    std::vector<double> xs;
    expect_matches(h, xs); // NaN percentiles when empty
    Rng rng(0x5747);
    for (int round = 0; round < 40; ++round) {
        // Batches that cross the store's block size and include
        // duplicates, so in-place re-sorts see a sorted prefix.
        uint64_t n = 1 + rng.uniform(300);
        for (uint64_t i = 0; i < n; ++i) {
            double v = double(rng.uniform(1000)) / 8.0;
            h.add(v);
            xs.push_back(v);
        }
        expect_matches(h, xs);
        if (round % 7 == 3) {
            Histogram copy = h;
            copy.add(-1.0);
            std::vector<double> ys = xs;
            ys.push_back(-1.0);
            expect_matches(copy, ys);
            expect_matches(h, xs); // the original is untouched
        }
    }
    EXPECT_NEAR(h.mean(),
                std::accumulate(xs.begin(), xs.end(), 0.0) /
                    double(xs.size()),
                1e-9);
    h.clear();
    xs.clear();
    expect_matches(h, xs);
    h.add(2.0);
    xs.push_back(2.0);
    expect_matches(h, xs);
}

TEST(RateMeter, GbpsOverWindow)
{
    RateMeter m;
    // 125 MB over 10 ms = 100 Gbps.
    m.record(0, 0);
    m.record(milliseconds(10), 125'000'000);
    EXPECT_NEAR(m.gbps(0, milliseconds(10)), 100.0, 1e-9);
}

TEST(RateMeter, MppsOverWindow)
{
    RateMeter m;
    for (int i = 0; i < 1000; ++i)
        m.record(microseconds(i), 64);
    // 1000 packets over 100 us = 10 Mpps.
    EXPECT_NEAR(m.mpps(0, microseconds(100)), 10.0, 1e-9);
}

TEST(RateMeter, EmptyWindowIsZero)
{
    RateMeter m;
    EXPECT_DOUBLE_EQ(m.gbps(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(m.gbps(), 0.0);
}

} // namespace
} // namespace fld::sim
