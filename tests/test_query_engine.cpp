#include "core/query_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "stats/log_grid.hpp"
#include "trace/generators.hpp"
#include "trace/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time_format.hpp"

namespace odtn {
namespace {

TemporalGraph workload_graph(std::uint64_t seed = 4242) {
  // Small but non-trivial synthetic conference trace: enough nodes for
  // caching and folding order to matter, small enough for quick tier-1.
  SyntheticTraceSpec spec;
  spec.name = "query_engine_test";
  spec.num_internal = 24;
  spec.duration = 2.0 * kDay;
  spec.pair_contacts_mean = 0.8;
  spec.num_communities = 4;
  return generate_trace(spec, seed).graph;
}

QueryEngineOptions small_options() {
  QueryEngineOptions qo;
  qo.grid = make_log_grid(60.0, 2.0 * kDay, 24);
  qo.max_hops = 5;
  qo.num_threads = 2;
  return qo;
}

void expect_bitwise_equal(const DelayCdfResult& a, const DelayCdfResult& b) {
  EXPECT_EQ(a.grid, b.grid);
  EXPECT_EQ(a.cdf_by_hops, b.cdf_by_hops);
  EXPECT_EQ(a.cdf_unbounded, b.cdf_unbounded);
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.denominator, b.denominator);
  EXPECT_EQ(a.diameter(0.01), b.diameter(0.01));
  EXPECT_EQ(a.diameter_absolute(0.01), b.diameter_absolute(0.01));
}

TEST(QueryEngine, ColdAllPairsMatchesComputeDelayCdfBitwise) {
  const TemporalGraph g = workload_graph();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    QueryEngineOptions qo = small_options();
    qo.num_threads = threads;

    DelayCdfOptions ref;
    ref.grid = qo.grid;
    ref.max_hops = qo.max_hops;
    ref.max_levels = qo.max_levels;
    ref.num_threads = qo.num_threads;
    const DelayCdfResult expected = compute_delay_cdf(g, ref);

    QueryEngine engine(g, qo);
    const DelayCdfResult got = engine.all_pairs();
    expect_bitwise_equal(expected, got);
    EXPECT_EQ(got.stats.cache_hits, 0u);
    EXPECT_EQ(got.stats.cache_misses, g.num_nodes());
  }
}

TEST(QueryEngine, WarmAllPairsIsBitIdenticalToCold) {
  QueryEngine engine(workload_graph(), small_options());
  const DelayCdfResult cold = engine.all_pairs();
  const DelayCdfResult warm = engine.all_pairs();
  expect_bitwise_equal(cold, warm);
  EXPECT_EQ(warm.stats.cache_hits, engine.graph().num_nodes());
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  // A warm run touches no propagation engine at all.
  EXPECT_EQ(warm.stats.contacts_examined, 0u);
}

TEST(QueryEngine, PartiallyWarmAllPairsIsBitIdentical) {
  const TemporalGraph g = workload_graph();
  QueryEngine cold_engine(g, small_options());
  const DelayCdfResult cold = cold_engine.all_pairs();

  // Warm only some sources via per-source queries, then fold all-pairs
  // from the mixed cache: identical bits either way.
  QueryEngine mixed(g, small_options());
  for (NodeId src = 0; src < g.num_nodes(); src += 3)
    (void)mixed.source_cdf(src);
  const DelayCdfResult folded = mixed.all_pairs();
  expect_bitwise_equal(cold, folded);
  EXPECT_GT(folded.stats.cache_hits, 0u);
  EXPECT_GT(folded.stats.cache_misses, 0u);
}

TEST(QueryEngine, TinyCacheBudgetStillBitIdentical) {
  const TemporalGraph g = workload_graph();
  QueryEngine reference(g, small_options());
  const DelayCdfResult expected = reference.all_pairs();

  // Room for roughly two partials across 2 shards: constant evictions,
  // same answers.
  QueryEngineOptions qo = small_options();
  qo.cache_shards = 2;
  qo.cache_bytes = 2 * reference.cached_partial_bytes();
  QueryEngine engine(g, qo);
  const DelayCdfResult first = engine.all_pairs();
  const DelayCdfResult second = engine.all_pairs();
  expect_bitwise_equal(expected, first);
  expect_bitwise_equal(expected, second);
  EXPECT_GT(first.stats.cache_evictions, 0u);
  EXPECT_EQ(engine.cache_stats().evictions,
            first.stats.cache_evictions + second.stats.cache_evictions);
}

TEST(QueryEngine, SourceCdfHitsAfterAllPairs) {
  QueryEngine engine(workload_graph(), small_options());
  (void)engine.all_pairs();
  const DelayCdfResult r = engine.source_cdf(5);
  EXPECT_EQ(r.stats.cache_hits, 1u);
  EXPECT_EQ(r.stats.cache_misses, 0u);

  // A different window is a different key: computed fresh.
  const double mid =
      engine.graph().start_time() + engine.graph().duration() / 2;
  const DelayCdfResult windowed =
      engine.source_cdf(5, engine.graph().start_time(), mid);
  EXPECT_EQ(windowed.stats.cache_hits, 0u);
  EXPECT_EQ(windowed.stats.cache_misses, 1u);
}

TEST(QueryEngine, WindowedQueriesRoundTripThroughCache) {
  QueryEngine engine(workload_graph(), small_options());
  const double lo = engine.graph().start_time();
  const double hi = lo + engine.graph().duration() / 3;
  const DelayCdfResult cold = engine.all_pairs(lo, hi);
  const DelayCdfResult warm = engine.all_pairs(lo, hi);
  expect_bitwise_equal(cold, warm);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
}

TEST(QueryEngine, SnapshotViewMatchesOwnedGraphBitwise) {
  const TemporalGraph g = workload_graph();
  const TemporalGraph view = decode_snapshot(
      std::make_shared<const std::vector<std::uint8_t>>(encode_snapshot(g)));
  QueryEngine owned(g, small_options());
  QueryEngine mapped(view, small_options());
  expect_bitwise_equal(owned.all_pairs(), mapped.all_pairs());
}

TEST(QueryEngine, SharedCacheCrossTransformKeysNoContamination) {
  const TemporalGraph g = workload_graph();
  // A genuinely different trace (different seed) sharing the cache.
  const TemporalGraph h = workload_graph(977);

  const QueryEngineOptions qo = small_options();
  auto cache = std::make_shared<ServeCache>(qo.cache_bytes, qo.cache_shards);
  QueryEngine eg(g, qo, cache);
  QueryEngine eh(h, qo, cache);

  QueryEngine ref_g(g, qo);
  QueryEngine ref_h(h, qo);
  const DelayCdfResult want_g = ref_g.all_pairs();
  const DelayCdfResult want_h = ref_h.all_pairs();

  // Interleave: fill the shared cache from both graphs, then re-query.
  expect_bitwise_equal(want_g, eg.all_pairs());
  expect_bitwise_equal(want_h, eh.all_pairs());
  const DelayCdfResult warm_g = eg.all_pairs();
  const DelayCdfResult warm_h = eh.all_pairs();
  expect_bitwise_equal(want_g, warm_g);
  expect_bitwise_equal(want_h, warm_h);
  // Both warm runs answered fully from the shared cache -- and from
  // their OWN entries (a cross-key hit would have failed the bitwise
  // checks above, since g and h differ).
  EXPECT_EQ(warm_g.stats.cache_misses, 0u);
  EXPECT_EQ(warm_h.stats.cache_misses, 0u);
}

TEST(QueryEngine, CacheKeyBindsEngineParameters) {
  const TemporalGraph g = workload_graph();
  const QueryEngineOptions qo = small_options();
  auto cache = std::make_shared<ServeCache>(qo.cache_bytes, qo.cache_shards);
  QueryEngine a(g, qo, cache);
  (void)a.all_pairs();

  // Same graph, different hop budget: the shared cache must not serve
  // the other engine's partials.
  QueryEngineOptions qo2 = qo;
  qo2.max_hops = qo.max_hops + 1;
  QueryEngine b(g, qo2, cache);
  const DelayCdfResult r = b.all_pairs();
  EXPECT_EQ(r.stats.cache_hits, 0u);

  DelayCdfOptions ref;
  ref.grid = qo2.grid;
  ref.max_hops = qo2.max_hops;
  ref.num_threads = qo2.num_threads;
  expect_bitwise_equal(compute_delay_cdf(g, ref), r);
}

TEST(QueryEngine, ReachableCountAndJourney) {
  // 0 -[10,20]- 1 -[30,40]- 2, node 3 isolated.
  const TemporalGraph g(4, {{0, 1, 10.0, 20.0}, {1, 2, 30.0, 40.0}});
  QueryEngineOptions qo;
  qo.grid = make_log_grid(1.0, 100.0, 8);
  QueryEngine engine(g, qo);

  EXPECT_EQ(engine.reachable_count(0, 0.0), 2u);   // 1 and 2
  EXPECT_EQ(engine.reachable_count(0, 25.0), 0u);  // 0-1 window passed
  EXPECT_EQ(engine.reachable_count(3, 0.0), 0u);   // isolated

  const JourneyOptima j = engine.journey(0, 2);
  EXPECT_TRUE(j.reachable());
  EXPECT_EQ(j.shortest_hops, 2);
  // Depart at 20 (end of the first window), arrive at 30: 10 s.
  EXPECT_DOUBLE_EQ(j.fastest_duration, 10.0);
  EXPECT_FALSE(engine.journey(0, 3).reachable());
}

/// Random contacts over [0, 1000] with a share of zero-length ones.
TemporalGraph random_graph(std::uint64_t seed, std::size_t nodes,
                           std::size_t contacts, bool directed) {
  Rng rng(seed);
  std::vector<Contact> cs;
  while (cs.size() < contacts) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    const auto v = static_cast<NodeId>(rng.below(nodes));
    if (u == v) continue;
    const double begin = rng.uniform(0.0, 1000.0);
    const double length = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 60.0);
    cs.push_back({u, v, begin, begin + length});
  }
  return TemporalGraph(nodes, std::move(cs), directed);
}

/// The answer reachable_count gave before it moved onto flooding: the
/// Pareto DP to its fixpoint, one deliver_at(t) per node.
std::size_t dp_reachable_count(const TemporalGraph& g, NodeId source,
                               double t, int max_levels) {
  SingleSourceEngine engine(g, source);
  engine.run_to_fixpoint(max_levels);
  std::size_t reached = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (n != source && engine.frontier_view(n).deliver_at(t) < 1e300)
      ++reached;
  return reached;
}

TEST(QueryEngine, FloodReachMatchesDpOnRandomTraces) {
  for (const bool directed : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const TemporalGraph g = random_graph(seed, 14, 90, directed);
      // 64 reaches the fixpoint; 2 truncates long relay chains.
      for (const int max_levels : {64, 2}) {
        QueryEngineOptions qo;
        qo.grid = make_log_grid(1.0, 1000.0, 8);
        qo.max_levels = max_levels;
        QueryEngine engine(g, qo);
        Rng rng(seed * 31 + static_cast<std::uint64_t>(max_levels));
        std::vector<double> times = {g.start_time() - 50.0,
                                     g.start_time(), g.end_time(),
                                     g.end_time() + 50.0};
        for (int i = 0; i < 6; ++i)
          times.push_back(rng.uniform(g.start_time(), g.end_time()));
        for (NodeId s = 0; s < g.num_nodes(); ++s)
          for (const double t : times)
            ASSERT_EQ(engine.reachable_count(s, t),
                      dp_reachable_count(g, s, t, max_levels))
                << "directed=" << directed << " seed=" << seed
                << " max_levels=" << max_levels << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(QueryEngine, ReachCapTruncatesRelayChains) {
  // A time-respecting chain 0 -> 1 -> 2 -> 3: two levels reach only 2
  // nodes, the fixpoint all 3.
  const TemporalGraph g(4, {{0, 1, 0.0, 1.0}, {1, 2, 2.0, 3.0},
                            {2, 3, 4.0, 5.0}});
  QueryEngineOptions qo;
  qo.grid = make_log_grid(1.0, 10.0, 4);
  qo.max_levels = 2;
  EXPECT_EQ(QueryEngine(g, qo).reachable_count(0, 0.0), 2u);
  qo.max_levels = 64;
  EXPECT_EQ(QueryEngine(g, qo).reachable_count(0, 0.0), 3u);
}

TEST(QueryEngine, ReachRejectsNaNTime) {
  QueryEngine engine(workload_graph(), small_options());
  EXPECT_THROW(engine.reachable_count(0, std::nan("")),
               std::invalid_argument);
}

TEST(QueryEngine, ReachRejectsInfiniteTimes) {
  QueryEngine engine(workload_graph(), small_options());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.reachable_count(0, kInf), std::invalid_argument);
  EXPECT_THROW(engine.reachable_count(0, -kInf), std::invalid_argument);
}

TEST(QueryEngine, CdfRejectsInfiniteWindow) {
  QueryEngine engine(workload_graph(), small_options());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.source_cdf(0, -kInf, kInf), std::invalid_argument);
  EXPECT_THROW(engine.source_cdf(0, engine.graph().start_time(), kInf),
               std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(-kInf, std::nullopt), std::invalid_argument);
}

TEST(QueryEngine, CdfRejectsZeroMeasureWindow) {
  QueryEngine engine(workload_graph(), small_options());
  EXPECT_THROW(engine.source_cdf(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(1.0, 1.0), std::invalid_argument);
  // An unset bound is the trace's start.
  EXPECT_NO_THROW(
      engine.source_cdf(0, std::nullopt, engine.graph().end_time()));
}

TEST(QueryEngine, CdfAndDiameterRejectNaNWindow) {
  // Regression: a NaN bound used to alias the "unset" sentinel, so
  // `diameter 0.01 nan 5000` answered over the whole trace.
  QueryEngine engine(workload_graph(), small_options());
  const double nan = std::nan("");
  EXPECT_THROW(engine.source_cdf(0, nan, 5000.0), std::invalid_argument);
  EXPECT_THROW(engine.source_cdf(0, 0.0, nan), std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(nan, 5000.0), std::invalid_argument);
  EXPECT_THROW(engine.all_pairs(std::nullopt, nan), std::invalid_argument);
  // Nothing was computed or cached on the way to the rejection.
  EXPECT_EQ(engine.cache_stats().misses, 0u);
}

/// Options that make every source_cdf compute: no cache.
QueryEngineOptions uncached_options() {
  QueryEngineOptions qo = small_options();
  qo.cache_bytes = 0;
  qo.num_threads = 0;
  return qo;
}

TEST(QueryEngine, WarmWorkspacesMatchFreshBitwiseAndStats) {
  const TemporalGraph g = workload_graph();
  const QueryEngineOptions qo = uncached_options();
  QueryEngine warm(g, qo);
  // Busy sources first, so recycled slabs are larger than a fresh
  // engine would grow for the later ones; journeys in between dirty the
  // recycled engine.
  const std::vector<NodeId> order = {3, 0, 7, 1, 12, 5, 3, 20};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId s = order[i];
    const DelayCdfResult got = warm.source_cdf(s);
    QueryEngine fresh(g, qo);
    const DelayCdfResult want = fresh.source_cdf(s);
    expect_bitwise_equal(want, got);
    EXPECT_EQ(want.stats, got.stats) << "query " << i << " source " << s;
    EXPECT_EQ(got.stats.workspace_allocations, 1u);
    EXPECT_EQ(got.stats.workspace_reuses, 0u);
    const NodeId d = static_cast<NodeId>((s + 5) % g.num_nodes());
    const JourneyOptima jw = warm.journey(s, d);
    const JourneyOptima jf = compute_journeys(g, s, qo.max_levels)[d];
    EXPECT_EQ(jw.shortest_hops, jf.shortest_hops);
    EXPECT_EQ(jw.fastest_duration, jf.fastest_duration);
    EXPECT_EQ(jw.fastest_departure, jf.fastest_departure);
  }
  // Windowed queries recycle too, and all_pairs after them stays exact.
  const double lo = g.start_time(), hi = lo + g.duration() / 2;
  QueryEngine fresh(g, qo);
  const DelayCdfResult want = fresh.source_cdf(4, lo, hi);
  const DelayCdfResult got = warm.source_cdf(4, lo, hi);
  expect_bitwise_equal(want, got);
  EXPECT_EQ(want.stats, got.stats);
  expect_bitwise_equal(QueryEngine(g, qo).all_pairs(), warm.all_pairs());
}

TEST(QueryEngine, ConcurrentBatchWorkspacesMatchFresh) {
  // A serve-style batch: queries run concurrently on the shared pool,
  // each query's own parallel_for runs inline as worker 0. Every answer
  // and every per-query EngineStats must equal a fresh engine's.
  const TemporalGraph g = workload_graph();
  const QueryEngineOptions qo = uncached_options();
  const std::size_t n = g.num_nodes();
  std::vector<DelayCdfResult> want_cdf;
  std::vector<JourneyOptima> want_journey;
  for (NodeId s = 0; s < n; ++s) {
    QueryEngine fresh(g, qo);
    want_cdf.push_back(fresh.source_cdf(s));
    want_journey.push_back(compute_journeys(g, s, qo.max_levels)[(s + 1) % n]);
  }
  const DelayCdfResult want_all = QueryEngine(g, qo).all_pairs();

  QueryEngine engine(g, qo);
  for (int round = 0; round < 2; ++round) {
    const std::size_t batch = 2 * n + 1;
    std::vector<DelayCdfResult> got_cdf(n);
    std::vector<JourneyOptima> got_journey(n);
    DelayCdfResult got_all;
    shared_thread_pool().parallel_for(batch, [&](std::size_t i, unsigned) {
      if (i < n) {
        got_cdf[i] = engine.source_cdf(static_cast<NodeId>(i));
      } else if (i < 2 * n) {
        const auto s = static_cast<NodeId>(i - n);
        got_journey[s] = engine.journey(s, static_cast<NodeId>((s + 1) % n));
      } else {
        got_all = engine.all_pairs();
      }
    });
    for (NodeId s = 0; s < n; ++s) {
      expect_bitwise_equal(want_cdf[s], got_cdf[s]);
      EXPECT_EQ(want_cdf[s].stats, got_cdf[s].stats) << "source " << s;
      EXPECT_EQ(want_journey[s].shortest_hops, got_journey[s].shortest_hops);
      EXPECT_EQ(want_journey[s].fastest_duration,
                got_journey[s].fastest_duration);
      EXPECT_EQ(want_journey[s].fastest_departure,
                got_journey[s].fastest_departure);
    }
    expect_bitwise_equal(want_all, got_all);
  }
}

TEST(QueryEngine, JourneyOnEveryEngineMode) {
  // journey runs on the workspace engine, built in the configured mode.
  const TemporalGraph g = workload_graph();
  const auto want = compute_journeys(g, 2);
  for (const EngineMode mode : {EngineMode::kPooled, EngineMode::kLevelSweep}) {
    QueryEngineOptions qo = small_options();
    qo.engine = mode;
    QueryEngine engine(g, qo);
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (NodeId d = 0; d < g.num_nodes(); d += 5) {
        const JourneyOptima j = engine.journey(2, d);
        EXPECT_EQ(j.shortest_hops, want[d].shortest_hops);
        EXPECT_EQ(j.fastest_duration, want[d].fastest_duration);
        EXPECT_EQ(j.fastest_departure, want[d].fastest_departure);
      }
    }
  }
}

TEST(QueryEngine, RejectsBadArguments) {
  const TemporalGraph g = workload_graph();
  EXPECT_THROW(QueryEngine(g, QueryEngineOptions{}), std::invalid_argument);
  QueryEngine engine(g, small_options());
  EXPECT_THROW(engine.source_cdf(9999), std::invalid_argument);
  EXPECT_THROW(engine.reachable_count(9999, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.journey(0, 9999), std::invalid_argument);
}

}  // namespace
}  // namespace odtn
