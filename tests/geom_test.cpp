// Unit tests for the geometry/math foundation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/aabb.h"
#include "geom/polyfit.h"
#include "geom/polyline.h"
#include "geom/rng.h"
#include "geom/stats.h"
#include "geom/vec3.h"

namespace roborun::geom {
namespace {

TEST(Vec3Test, BasicArithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3Test, CrossProductIsOrthogonal) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{-2, 0.5, 4};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3Test, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3Test, DistanceHelpers) {
  const Vec3 a{0, 0, 0};
  const Vec3 b{1, 1, 1};
  EXPECT_NEAR(a.dist(b), std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(a.distXY({3, 4, 99}), 5.0, 1e-12);
}

TEST(Vec3Test, Lerp) {
  const Vec3 a{0, 0, 0};
  const Vec3 b{2, 4, 6};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), Vec3(1, 2, 3));
}

TEST(AabbTest, ContainsAndIntersects) {
  const Aabb box{{0, 0, 0}, {10, 10, 10}};
  EXPECT_TRUE(box.contains({5, 5, 5}));
  EXPECT_TRUE(box.contains({0, 0, 0}));
  EXPECT_FALSE(box.contains({10.1, 5, 5}));
  EXPECT_TRUE(box.intersects(Aabb{{9, 9, 9}, {20, 20, 20}}));
  EXPECT_FALSE(box.intersects(Aabb{{11, 11, 11}, {20, 20, 20}}));
}

TEST(AabbTest, EmptyGrowsByMerge) {
  Aabb box = Aabb::empty();
  EXPECT_LE(box.volume(), 0.0);
  box.merge({1, 2, 3});
  box.merge({-1, 0, 5});
  EXPECT_TRUE(box.contains({0, 1, 4}));
  EXPECT_EQ(box.lo, Vec3(-1, 0, 3));
  EXPECT_EQ(box.hi, Vec3(1, 2, 5));
}

TEST(AabbTest, IsEmptyAndBoxMerge) {
  EXPECT_TRUE(Aabb::empty().isEmpty());
  EXPECT_FALSE((Aabb{{0, 0, 0}, {1, 1, 1}}.isEmpty()));
  // Zero-extent boxes still contain their point: not empty.
  EXPECT_FALSE((Aabb{{1, 1, 1}, {1, 1, 1}}.isEmpty()));

  Aabb acc = Aabb::empty();
  acc.merge(Aabb::empty());  // merging nothing changes nothing
  EXPECT_TRUE(acc.isEmpty());
  acc.merge(Aabb{{0, 0, 0}, {1, 2, 3}});
  acc.merge(Aabb{{-1, 1, 1}, {0, 1, 4}});
  EXPECT_EQ(acc.lo, Vec3(-1, 0, 0));
  EXPECT_EQ(acc.hi, Vec3(1, 2, 4));
  acc.merge(Aabb::empty());  // still a no-op after growth
  EXPECT_EQ(acc.lo, Vec3(-1, 0, 0));
}

TEST(AabbTest, VolumeAndCenter) {
  const Aabb box{{0, 0, 0}, {2, 3, 4}};
  EXPECT_DOUBLE_EQ(box.volume(), 24.0);
  EXPECT_EQ(box.center(), Vec3(1, 1.5, 2));
}

TEST(AabbTest, ClampPullsPointsInside) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(box.clamp({2, -1, 0.5}), Vec3(1, 0, 0.5));
}

TEST(AabbTest, SegmentIntersection) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(box.intersectsSegment({-1, 0.5, 0.5}, {2, 0.5, 0.5}));
  EXPECT_TRUE(box.intersectsSegment({0.5, 0.5, 0.5}, {0.6, 0.6, 0.6}));  // inside
  EXPECT_FALSE(box.intersectsSegment({-1, 2, 0.5}, {2, 2, 0.5}));        // parallel miss
  EXPECT_FALSE(box.intersectsSegment({-2, -2, -2}, {-1, -1, -1}));       // short of box
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsReasonable) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ChanceRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream must not replay the parent's outputs.
  Rng parent_copy(42);
  parent_copy.split();
  EXPECT_NE(child.next(), a.next());
}

TEST(RngTest, UniformInBoxStaysInside) {
  Rng rng(11);
  const Vec3 lo{-1, 2, 3};
  const Vec3 hi{1, 4, 9};
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = rng.uniformInBox(lo, hi);
    EXPECT_TRUE((Aabb{lo, hi}).contains(p));
  }
}

TEST(PolyfitTest, RecoversQuadratic) {
  // y = 2 + 3x - 0.5x^2
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = -3; x <= 3; x += 0.25) {
    xs.push_back(x);
    ys.push_back(2.0 + 3.0 * x - 0.5 * x * x);
  }
  const auto c = polyfit(xs, ys, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 2.0, 1e-9);
  EXPECT_NEAR(c[1], 3.0, 1e-9);
  EXPECT_NEAR(c[2], -0.5, 1e-9);
}

TEST(PolyfitTest, PolyvalMatchesHorner) {
  const std::vector<double> c{1.0, -2.0, 0.5};
  EXPECT_NEAR(polyval(c, 2.0), 1.0 - 4.0 + 2.0, 1e-12);
  EXPECT_NEAR(polyval(c, 0.0), 1.0, 1e-12);
}

TEST(PolyfitTest, LeastSquaresExactOnLinearSystem) {
  // y = 4a - b with features (a, b).
  std::vector<double> rows{1, 0, 0, 1, 1, 1, 2, 1};
  std::vector<double> y{4, -1, 3, 7};
  const auto beta = leastSquares(rows, y, 2);
  EXPECT_NEAR(beta[0], 4.0, 1e-9);
  EXPECT_NEAR(beta[1], -1.0, 1e-9);
}

TEST(PolyfitTest, ThrowsOnBadShapes) {
  std::vector<double> rows{1, 2, 3};
  std::vector<double> y{1};
  EXPECT_THROW(leastSquares(rows, y, 2), std::invalid_argument);
  EXPECT_THROW(polyfit(std::vector<double>{1}, std::vector<double>{1}, -1),
               std::invalid_argument);
}

TEST(PolyfitTest, SolveLinearSystemSingularReturnsFalse) {
  std::vector<double> a{1, 2, 2, 4};  // rank 1
  std::vector<double> b{1, 2};
  EXPECT_FALSE(solveLinearSystem(a, b, 2));
}

TEST(PolyfitTest, ErrorMetrics) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> truth{1.0, 2.0, 4.0};
  EXPECT_NEAR(meanSquaredError(pred, truth), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(relativeMeanSquaredError(pred, truth), (0.25 * 0.25) / 3.0, 1e-12);
}

TEST(StatsTest, BasicAggregates) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(minOf(xs), 1.0);
  EXPECT_DOUBLE_EQ(maxOf(xs), 4.0);
  EXPECT_NEAR(percentile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 1.0), 4.0, 1e-12);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  Rng rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), minOf(xs));
  EXPECT_DOUBLE_EQ(rs.max(), maxOf(xs));
}

TEST(StatsTest, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), std::invalid_argument);
  EXPECT_THROW(median(empty), std::invalid_argument);
  EXPECT_THROW(percentile(empty, 0.5), std::invalid_argument);
}

TEST(PolylineTest, PointSegmentDistance) {
  EXPECT_NEAR(distPointSegment({0, 1, 0}, {-1, 0, 0}, {1, 0, 0}), 1.0, 1e-12);
  EXPECT_NEAR(distPointSegment({5, 0, 0}, {-1, 0, 0}, {1, 0, 0}), 4.0, 1e-12);
  EXPECT_NEAR(distPointSegment({0, 0, 0}, {2, 0, 0}, {2, 0, 0}), 2.0, 1e-12);  // degenerate
}

TEST(PolylineTest, PolylineDistance) {
  const std::vector<Vec3> line{{0, 0, 0}, {10, 0, 0}, {10, 10, 0}};
  EXPECT_NEAR(distToPolyline({5, 2, 0}, line), 2.0, 1e-12);
  EXPECT_NEAR(distToPolyline({12, 5, 0}, line), 2.0, 1e-12);
  EXPECT_TRUE(std::isinf(distToPolyline({0, 0, 0}, {})));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Every query point against both distance functions, bit for bit, through
/// one PolylineDistance so its warm start carries from query to query.
void expectPrunedMatches(const std::vector<Vec3>& line, const std::vector<Vec3>& queries) {
  PolylineDistance pruned(line);
  for (const Vec3& q : queries)
    EXPECT_EQ(bits(pruned(q)), bits(distToPolyline(q, line)))
        << line.size() << " points, query (" << q.x << ", " << q.y << ", " << q.z << ")";
}

// PolylineDistance prunes whole chunks of segments, so it must return the
// identical double distToPolyline does: random-walk polylines of every
// chunking shape (empty, a point, one segment, partial and exact chunks,
// many chunks) with repeated waypoints, queried at random points, at every
// vertex (chunk boundaries included) and at every segment midpoint.
TEST(PolylineTest, PrunedDistanceIsBitwiseDistToPolyline) {
  Rng rng(11);
  for (const std::size_t n : {0u, 1u, 2u, 9u, 17u, 200u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Vec3> line;
      Vec3 at = rng.uniformInBox({-50, -50, 0}, {50, 50, 10});
      for (std::size_t i = 0; i < n; ++i) {
        if (i == 0 || !rng.chance(0.15)) at = at + rng.uniformInBox({-6, -6, -1}, {6, 6, 1});
        line.push_back(at);  // a skipped step repeats the previous waypoint
      }
      std::vector<Vec3> queries;
      for (int i = 0; i < 300; ++i) queries.push_back(rng.uniformInBox({-80, -80, -5}, {80, 80, 15}));
      for (std::size_t i = 0; i < line.size(); ++i) {
        queries.push_back(line[i]);
        if (i + 1 < line.size()) queries.push_back((line[i] + line[i + 1]) * 0.5);
      }
      expectPrunedMatches(line, queries);
    }
  }
}

// Ties across chunks: a hairpin whose outbound leg (y = +1, chunk 0) and
// return leg (y = -1, chunks 1-2) are equidistant from every point on
// y = 0, queried in both directions so the warm start begins in each chunk.
TEST(PolylineTest, PrunedDistanceTiesAcrossChunks) {
  std::vector<Vec3> line;
  for (int x = 0; x <= 8; ++x) line.push_back({static_cast<double>(x), 1.0, 0.0});
  for (int x = 8; x >= 0; --x) line.push_back({static_cast<double>(x), -1.0, 0.0});
  ASSERT_GT(line.size(), 2 * PolylineDistance::kChunkSegments);
  std::vector<Vec3> queries;
  for (int i = 0; i <= 32; ++i) queries.push_back({0.25 * i, 0.0, 0.0});
  for (int i = 32; i >= 0; --i) queries.push_back({0.25 * i, 0.0, 0.5});
  queries.push_back(line[PolylineDistance::kChunkSegments]);
  queries.push_back(line[2 * PolylineDistance::kChunkSegments]);
  expectPrunedMatches(line, queries);
  PolylineDistance pruned(line);
  EXPECT_EQ(pruned({4.0, 0.0, 0.0}), 1.0);
  EXPECT_EQ(pruned({8.5, 0.0, 0.0}), 0.5);  // the connector segment at x = 8
}

// Property sweep: percentile is monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(-10, 10));
  const double p = GetParam();
  EXPECT_LE(percentile(xs, p * 0.5), percentile(xs, p) + 1e-12);
  EXPECT_LE(percentile(xs, p), percentile(xs, std::min(1.0, p * 1.5)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotone,
                         ::testing::Values(0.1, 0.25, 0.5, 0.66));

}  // namespace
}  // namespace roborun::geom
