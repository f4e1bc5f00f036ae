#include "core/reachability.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TemporalGraph chain() {
  // 0-1 at [0,1], 1-2 at [5,6]: 0 can reach 2 while t <= 1; 2 can reach
  // 0 never (time order); 1 can reach 2 while t <= 6.
  return TemporalGraph(3, {{0, 1, 0.0, 1.0}, {1, 2, 5.0, 6.0}});
}

TEST(LastDepartureMatrix, ChainValues) {
  const auto m = last_departure_matrix(chain());
  EXPECT_DOUBLE_EQ(m[0][1], 1.0);
  EXPECT_DOUBLE_EQ(m[0][2], 1.0);   // must leave 0 before the 0-1 contact ends
  EXPECT_DOUBLE_EQ(m[1][2], 6.0);
  EXPECT_DOUBLE_EQ(m[1][0], 1.0);
  EXPECT_DOUBLE_EQ(m[2][1], 6.0);
  EXPECT_EQ(m[2][0], -kInf);        // reverse chain is not time-respecting
  EXPECT_EQ(m[0][0], kInf);         // self: always "reachable"
}

TEST(ReachabilityRatio, DecaysOverTime) {
  const auto r = reachability_ratio(chain(), {-1.0, 0.5, 2.0, 7.0});
  ASSERT_EQ(r.size(), 4u);
  // t=-1: pairs (0,1),(1,0),(0,2),(1,2),(2,1) = 5 of 6.
  EXPECT_NEAR(r[0], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(r[1], 5.0 / 6.0, 1e-12);
  // t=2: only (1,2),(2,1) remain.
  EXPECT_NEAR(r[2], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(r[3], 0.0, 1e-12);
  // Monotone non-increasing.
  for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LE(r[i], r[i - 1]);
}

TEST(OutComponents, SizesMatchMatrix) {
  const auto sizes = out_component_sizes(chain(), 0.5);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 2u);  // reaches 1 and 2
  EXPECT_EQ(sizes[1], 2u);  // reaches 0 (until 1) and 2
  EXPECT_EQ(sizes[2], 1u);  // reaches only 1
  const auto late = out_component_sizes(chain(), 10.0);
  EXPECT_EQ(late[0] + late[1] + late[2], 0u);
}

TEST(OutComponents, MatchDpOnRandomTraces) {
  // out_component_sizes floods; the DP frontiers' last departures are
  // the oracle, on directed and undirected traces with zero-length
  // contacts, at the fixpoint and under a truncating hop cap.
  for (const bool directed : {false, true}) {
    Rng rng(directed ? 17 : 16);
    std::vector<Contact> cs;
    while (cs.size() < 60) {
      const auto u = static_cast<NodeId>(rng.below(10));
      const auto v = static_cast<NodeId>(rng.below(10));
      if (u == v) continue;
      const double b = rng.uniform(0.0, 500.0);
      cs.push_back({u, v, b, b + (rng.bernoulli(0.3) ? 0.0 : 30.0)});
    }
    const TemporalGraph g(10, std::move(cs), directed);
    for (const int max_levels : {64, 2}) {
      const auto m = last_departure_matrix(g, max_levels);
      for (const double t : {-10.0, 0.0, 125.0, 250.0, 499.0, 600.0}) {
        const auto sizes = out_component_sizes(g, t, max_levels);
        for (NodeId s = 0; s < g.num_nodes(); ++s) {
          std::size_t want = 0;
          for (NodeId d = 0; d < g.num_nodes(); ++d)
            if (d != s && t <= m[s][d]) ++want;
          ASSERT_EQ(sizes[s], want) << "directed=" << directed
                                    << " max_levels=" << max_levels
                                    << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(DailyWindows, BasicSlicing) {
  const auto w = daily_time_windows(0.0, 3 * kDay, 9.0, 18.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0].first, 9 * kHour);
  EXPECT_DOUBLE_EQ(w[0].second, 18 * kHour);
  EXPECT_DOUBLE_EQ(w[2].first, 2 * kDay + 9 * kHour);
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_GT(w[i].first, w[i - 1].second);
}

TEST(DailyWindows, ClipsToRange) {
  // Trace starts at noon on day 0 and ends at 10:00 on day 1.
  const auto w =
      daily_time_windows(12 * kHour, kDay + 10 * kHour, 9.0, 18.0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0].first, 12 * kHour);   // clipped start
  EXPECT_DOUBLE_EQ(w[0].second, 18 * kHour);
  EXPECT_DOUBLE_EQ(w[1].first, kDay + 9 * kHour);
  EXPECT_DOUBLE_EQ(w[1].second, kDay + 10 * kHour);  // clipped end
}

TEST(DailyWindows, EmptyWhenOutsideHours) {
  // Trace entirely at night.
  const auto w = daily_time_windows(0.0, 4 * kHour, 9.0, 18.0);
  EXPECT_TRUE(w.empty());
}

TEST(Degenerate, EmptyTraceReachesNobody) {
  const TemporalGraph g(4, {});
  const auto m = last_departure_matrix(g);
  for (std::size_t u = 0; u < 4; ++u)
    for (std::size_t v = 0; v < 4; ++v)
      EXPECT_EQ(m[u][v], u == v ? kInf : -kInf);
  const auto sizes = out_component_sizes(g, 0.0);
  for (const std::size_t s : sizes) EXPECT_EQ(s, 0u);  // nobody besides self
  const auto r = reachability_ratio(g, {0.0, 1.0});
  for (const double x : r) EXPECT_EQ(x, 0.0);
}

TEST(Degenerate, SingleContactOnlyLinksItsEndpoints) {
  const TemporalGraph g(3, {{0, 1, 2.0, 5.0}});
  const auto m = last_departure_matrix(g);
  EXPECT_DOUBLE_EQ(m[0][1], 5.0);
  EXPECT_DOUBLE_EQ(m[1][0], 5.0);
  EXPECT_EQ(m[0][2], -kInf);
  EXPECT_EQ(m[2][0], -kInf);
  // The contact is still open at t=3, so each endpoint reaches the
  // other (sources don't count themselves); node 2 reaches nobody.
  const auto sizes = out_component_sizes(g, 3.0);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 0u);
}

TEST(Degenerate, SourceEqualsDestinationIsAlwaysReachable) {
  // The self-pair is reachable at every time, including after the last
  // contact and on the empty trace, and is excluded from the pair
  // counts rather than reported as a delivery: out-components and the
  // reachability ratio never include u == v.
  for (const TemporalGraph& g :
       {chain(), TemporalGraph(3, {}), TemporalGraph(3, {{0, 1, 2.0, 5.0}})}) {
    const auto m = last_departure_matrix(g);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(m[u][u], kInf);
    // Long after the last contact nobody reaches anyone ELSE, yet the
    // self-pair stays trivially reachable -- and stays excluded.
    for (const std::size_t s : out_component_sizes(g, 1e9)) EXPECT_EQ(s, 0u);
    for (const double x : reachability_ratio(g, {1e9})) EXPECT_EQ(x, 0.0);
  }
}

TEST(DailyWindows, InvalidArgumentsThrow) {
  EXPECT_THROW(daily_time_windows(5.0, 1.0, 9.0, 18.0),
               std::invalid_argument);
  EXPECT_THROW(daily_time_windows(0.0, 1.0, 18.0, 9.0),
               std::invalid_argument);
  EXPECT_THROW(daily_time_windows(0.0, 1.0, -1.0, 9.0),
               std::invalid_argument);
  EXPECT_THROW(daily_time_windows(0.0, 1.0, 9.0, 25.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn
