// Property suite for the pooled engine's batched frontier kernels
// (core/frontier_kernels.hpp) and the PairArena-backed propagation mode.
//
// The Pareto front of a pair set is unique, so the batched prune+merge
// path must reproduce the seed DeliveryFunction::insert semantics BIT
// FOR BIT -- every test here asserts exact equality, not tolerance,
// except the all-pairs CDF cross-check (two accumulation orders, gated
// at 1e-9). Streams are derived with Rng::keyed so each trial is
// reproducible in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/diameter.hpp"
#include "core/frontier_kernels.hpp"
#include "core/optimal_paths.hpp"
#include "stats/log_grid.hpp"
#include "stats/measure_cdf.hpp"
#include "util/lower_bound.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random pair whose coordinates are drawn from a small quantized set so
/// duplicates, equal-LD ties, and dominance chains are all common.
PathPair random_pair(Rng& rng) {
  const double ld = std::floor(rng.uniform(0.0, 40.0)) / 2.0;
  const double ea = std::floor(rng.uniform(-10.0, 40.0)) / 2.0;
  return {ld, ea};
}

/// Random frontier built through the reference insert() path.
DeliveryFunction random_frontier(Rng& rng, std::size_t attempts) {
  DeliveryFunction f;
  for (std::size_t i = 0; i < attempts; ++i) f.insert(random_pair(rng));
  return f;
}

std::vector<double> ld_lane(const DeliveryFunction& f) {
  std::vector<double> out;
  out.reserve(f.size());
  for (const PathPair& p : f.pairs()) out.push_back(p.ld);
  return out;
}

std::vector<double> ea_lane(const DeliveryFunction& f) {
  std::vector<double> out;
  out.reserve(f.size());
  for (const PathPair& p : f.pairs()) out.push_back(p.ea);
  return out;
}

/// Adversarial random trace (same regime as test_engine_crosscheck):
/// integer-quantized times so boundary coincidences are common, a fifth
/// of the contacts instantaneous.
TemporalGraph random_trace(Rng& rng, std::size_t nodes,
                           std::size_t num_contacts, double horizon,
                           bool directed = false, double time_shift = 0.0) {
  std::vector<Contact> contacts;
  contacts.reserve(num_contacts);
  for (std::size_t i = 0; i < num_contacts; ++i) {
    const auto u = static_cast<NodeId>(rng.below(nodes));
    auto v = static_cast<NodeId>(rng.below(nodes - 1));
    if (v >= u) ++v;
    const double begin = std::floor(rng.uniform(0.0, horizon)) + time_shift;
    const double extra =
        rng.bernoulli(0.2) ? 0.0 : std::floor(rng.uniform(1.0, horizon / 4));
    contacts.push_back({u, v, begin, begin + extra});
  }
  return TemporalGraph(nodes, std::move(contacts), directed);
}

// ---------------------------------------------------------------------
// Kernel level: prune_candidate_batch / merge_frontier vs insert().
// ---------------------------------------------------------------------

// Small random frontiers first, then co-ascending chains of up to 600
// pairs cut into by random inserts: the engine's probes average a few
// hundred pairs.
TEST(FrontierKernels, LowerBoundAndDominatesMatchDeliveryFunction) {
  for (std::uint64_t trial = 0; trial < 90; ++trial) {
    Rng rng = Rng::keyed(0xF0B1, trial);
    DeliveryFunction f;
    double ld_max = 20.0, ea_max = 20.0;
    if (trial < 50) {
      f = random_frontier(rng, 1 + rng.below(30));
    } else {
      double ld = 0.0, ea = -10.0;
      for (std::size_t i = 1 + rng.below(600); i > 0; --i) {
        ld += static_cast<double>(1 + rng.below(4));
        ea += static_cast<double>(1 + rng.below(4));
        f.insert({ld, ea});
      }
      for (std::size_t i = rng.below(20); i > 0; --i)
        f.insert({std::floor(rng.uniform(0.0, ld)),
                  std::floor(rng.uniform(-10.0, ea))});
      ld_max = ld;
      ea_max = ea;
    }
    const std::vector<double> ld = ld_lane(f), ea = ea_lane(f);
    for (int q = 0; q < 400; ++q) {
      PathPair p;
      if (trial < 50) {
        p = random_pair(rng);
      } else if (rng.bernoulli(0.3)) {
        p = f.pairs()[rng.below(f.size())];  // exact hit
        p.ea += static_cast<double>(rng.below(3)) - 1.0;
      } else {
        p = {std::floor(rng.uniform(-2.0, ld_max + 2.0)),
             std::floor(rng.uniform(-12.0, ea_max + 2.0))};
      }
      if (rng.bernoulli(0.05)) p.ld = rng.bernoulli(0.5) ? kInf : -kInf;
      if (rng.bernoulli(0.05)) p.ea = rng.bernoulli(0.5) ? kInf : -kInf;
      ASSERT_EQ(frontier_dominates(ld.data(), ea.data(), ld.size(), p.ld,
                                   p.ea),
                f.is_dominated(p))
          << "trial=" << trial << " size=" << f.size() << " ld=" << p.ld
          << " ea=" << p.ea;
      const std::size_t at =
          branchless_lower_bound(ld.data(), ld.size(), p.ld);
      ASSERT_TRUE(at == ld.size() || ld[at] >= p.ld);
      ASSERT_TRUE(at == 0 || ld[at - 1] < p.ld);
    }
  }
}

// The engine probes frontiers of a few hundred pairs, so the search is
// checked at every lane length up to 600 -- every 2^k - 1, 2^k and
// 2^k + 1 through 513 included -- against std::lower_bound's index.
// MeasureCdfAccumulator::add_segment searches strictly increasing delay
// grids of a few dozen points with arbitrary keys, so grids of 0..100
// points are also probed with zeros of both signs, denormals, huge
// values, infinities, exact grid hits and random keys.
TEST(FrontierKernels, LowerBoundMatchesStdLowerBound) {
  auto check = [](const std::vector<double>& lane, double x) {
    const auto want = static_cast<std::size_t>(
        std::lower_bound(lane.begin(), lane.end(), x) - lane.begin());
    ASSERT_EQ(branchless_lower_bound(lane.data(), lane.size(), x), want)
        << "n=" << lane.size() << " x=" << x;
  };
  const double tricky[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::nextafter(1.0, 2.0),
                           1e300,
                           -1e300,
                           kInf,
                           -kInf};
  for (std::size_t n = 0; n <= 100; ++n) {
    Rng rng = Rng::keyed(0x51D2, n);
    std::vector<double> grid(n);
    double acc = -3.0;
    for (double& g : grid) {
      acc += 0.25 + rng.uniform(0.0, 2.0);
      g = acc;
    }
    for (const double x : tricky) check(grid, x);
    for (const double g : grid) check(grid, g);
    for (int round = 0; round < 200; ++round)
      check(grid, rng.uniform(-5.0, acc + 5.0));
  }
  for (std::size_t n = 0; n <= 600; ++n) {
    Rng rng = Rng::keyed(0xF0B7, n);
    // Ascending lane with runs of tied values.
    std::vector<double> lane(n);
    double acc = -3.0;
    for (double& v : lane) {
      if (rng.bernoulli(0.7))
        acc += 0.5 * static_cast<double>(1 + rng.below(3));
      v = acc;
    }
    std::vector<double> keys = {-kInf, kInf, -4.0, acc + 1.0};
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(lane[i]);                                 // exact hit
      keys.push_back(i + 1 < n ? (lane[i] + lane[i + 1]) / 2   // between
                               : lane[i] + 0.25);              // above all
    }
    for (const double x : keys) check(lane, x);
  }
}

// Engine batches arrive as ascending runs, one per relay. Batches over
// 24 candidates take the merge sort (insertion-sorted blocks of 8, then
// bottom-up merges), so sizes run up to 1224 to cover many merge passes
// with uneven tails; the sort scratch is shared, as in the engine.
TEST(FrontierKernels, PruneBatchEqualsInsertAll) {
  std::vector<PathPair> sort_scratch;
  for (std::uint64_t trial = 0; trial < 320; ++trial) {
    Rng rng = Rng::keyed(0xF0B2, trial);
    const std::size_t m =
        trial < 200 ? rng.below(24) : rng.below(trial < 260 ? 105 : 1225);
    // Large batches spread over a wider grid so they keep long fronts.
    const double span = trial < 200 ? 40.0 : 400.0;
    std::vector<PathPair> batch;
    while (batch.size() < m) {
      if (!batch.empty() && rng.bernoulli(0.15)) {
        batch.push_back(batch[rng.below(batch.size())]);  // exact duplicate
        continue;
      }
      double ld = std::floor(rng.uniform(0.0, span)) / 2.0;
      double ea = std::floor(rng.uniform(-10.0, span)) / 2.0;
      for (std::size_t k = 1 + rng.below(8); k > 0 && batch.size() < m; --k) {
        batch.push_back({ld, ea});
        ld += static_cast<double>(rng.below(3)) / 2.0;
        ea += static_cast<double>(rng.below(3)) / 2.0;
      }
    }
    DeliveryFunction ref;
    for (const PathPair& p : batch) ref.insert(p);

    const std::size_t kept =
        prune_candidate_batch(batch.data(), batch.size(), sort_scratch);
    ASSERT_EQ(kept, ref.size()) << "trial=" << trial << " m=" << m;
    for (std::size_t i = 0; i < kept; ++i)
      ASSERT_EQ(batch[i], ref.pairs()[i]) << "trial=" << trial
                                          << " i=" << i;
  }
}

TEST(FrontierKernels, MergeFrontierEqualsInsertReference) {
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng = Rng::keyed(0xF0B3, trial);
    const DeliveryFunction base = random_frontier(rng, rng.below(30));
    const std::vector<double> f_ld = ld_lane(base), f_ea = ea_lane(base);

    std::vector<PathPair> batch;
    const std::size_t raw = rng.below(16);
    for (std::size_t i = 0; i < raw; ++i) {
      if (rng.bernoulli(0.2) && !base.empty()) {
        // Exact duplicate of an existing frontier pair: must be merged
        // away AND not reported as newly kept.
        batch.push_back(base.pairs()[rng.below(base.size())]);
      } else {
        batch.push_back(random_pair(rng));
      }
    }
    std::vector<PathPair> sort_scratch;
    const std::size_t m =
        prune_candidate_batch(batch.data(), batch.size(), sort_scratch);
    batch.resize(m);

    DeliveryFunction ref = base;
    for (const PathPair& p : batch) ref.insert(p);

    const std::size_t fn = base.size();
    std::vector<double> out_ld(fn + m), out_ea(fn + m);
    std::vector<double> d_ld(m), d_ea(m), d_succ(m);
    const FrontierMerge r = merge_frontier(
        f_ld.data(), f_ea.data(), fn, batch.data(), m, out_ld.data(),
        out_ea.data(), d_ld.data(), d_ea.data(), d_succ.data());

    // Merged frontier occupies the LAST kept slots, ascending, and is
    // bit-identical to the insert() reference.
    ASSERT_EQ(r.kept, ref.size()) << "trial=" << trial;
    const std::size_t off = fn + m - r.kept;
    for (std::size_t i = 0; i < r.kept; ++i) {
      ASSERT_EQ(out_ld[off + i], ref.pairs()[i].ld) << "trial=" << trial;
      ASSERT_EQ(out_ea[off + i], ref.pairs()[i].ea) << "trial=" << trial;
    }

    // Delta = merged pairs that are NOT bitwise present in the base,
    // ascending in the last kept_new slots, each with its successor's EA.
    std::vector<PathPair> expected_new;
    for (const PathPair& p : ref.pairs())
      if (std::find(base.pairs().begin(), base.pairs().end(), p) ==
          base.pairs().end())
        expected_new.push_back(p);
    ASSERT_EQ(r.kept_new, expected_new.size()) << "trial=" << trial;
    const std::size_t doff = m - r.kept_new;
    for (std::size_t i = 0; i < r.kept_new; ++i) {
      const PathPair got{d_ld[doff + i], d_ea[doff + i]};
      ASSERT_EQ(got, expected_new[i]) << "trial=" << trial << " i=" << i;
      // Successor EA in the merged frontier, +inf for the global last.
      const auto it = std::find(ref.pairs().begin(), ref.pairs().end(), got);
      ASSERT_NE(it, ref.pairs().end());
      const double succ =
          (it + 1 == ref.pairs().end()) ? kInf : (it + 1)->ea;
      ASSERT_EQ(d_succ[doff + i], succ) << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(FrontierKernels, MergeEdgeCases) {
  std::vector<double> out_ld(8), out_ea(8), d_ld(8), d_ea(8), d_succ(8);

  // Empty frontier + one candidate.
  const PathPair c{5.0, 2.0};
  FrontierMerge r = merge_frontier(nullptr, nullptr, 0, &c, 1, out_ld.data(),
                                   out_ea.data(), d_ld.data(), d_ea.data(),
                                   d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 1u);
  EXPECT_EQ(out_ld[0], 5.0);
  EXPECT_EQ(out_ea[0], 2.0);
  EXPECT_EQ(d_succ[0], kInf);

  // Identity pair (LD = +inf, EA = -inf) dominates everything.
  const double id_ld = kInf, id_ea = -kInf;
  r = merge_frontier(&id_ld, &id_ea, 1, &c, 1, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 0u);
  EXPECT_EQ(out_ld[1], kInf);
  EXPECT_EQ(out_ea[1], -kInf);

  // Batch that is an exact duplicate of the frontier: unchanged, no new.
  const double f_ld[2] = {1.0, 3.0}, f_ea[2] = {0.5, 2.0};
  const PathPair dup[2] = {{1.0, 0.5}, {3.0, 2.0}};
  r = merge_frontier(f_ld, f_ea, 2, dup, 2, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 2u);
  EXPECT_EQ(r.kept_new, 0u);

  // Candidate that dominates the whole frontier replaces it.
  const PathPair strong{10.0, -1.0};
  r = merge_frontier(f_ld, f_ea, 2, &strong, 1, out_ld.data(), out_ea.data(),
                     d_ld.data(), d_ea.data(), d_succ.data());
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.kept_new, 1u);
  EXPECT_EQ(out_ld[2], 10.0);
  EXPECT_EQ(out_ea[2], -1.0);
}

// ---------------------------------------------------------------------
// Engine level: kPooled vs kLevelSweep, every hop level.
// ---------------------------------------------------------------------

/// Steps both modes side by side; frontiers must be bit-identical
/// at EVERY level, views must agree with materialized functions, and the
/// pooled free snapshots must equal the node's pre-step frontier.
void expect_pooled_identical(const TemporalGraph& g, NodeId src) {
  SingleSourceEngine pooled(g, src, EngineMode::kPooled);
  SingleSourceEngine sweep(g, src, EngineMode::kLevelSweep);
  Rng rng = Rng::keyed(0xF0B5, (static_cast<std::uint64_t>(src) << 32) ^
                                   g.num_contacts());
  for (int level = 1; level <= 64; ++level) {
    std::vector<DeliveryFunction> before = pooled.frontiers();
    const bool p_grew = pooled.step();
    const bool s_grew = sweep.step();
    ASSERT_EQ(p_grew, s_grew) << "src=" << src << " level=" << level;
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      const DeliveryFunction f = pooled.frontier(dst);
      ASSERT_EQ(f, sweep.frontier(dst))
          << "src=" << src << " dst=" << dst << " level=" << level;
      // View parity: SoA arena view == materialized function.
      const FrontierView view = pooled.frontier_view(dst);
      ASSERT_EQ(materialize(view), f);
      for (int q = 0; q < 4; ++q) {
        const double t = rng.uniform(-20.0, 140.0);
        ASSERT_EQ(view.deliver_at(t), f.deliver_at(t));
      }
    }
    // Free pre-change snapshots: last_changed()[i]'s retired span equals
    // its pre-step frontier, and every unlisted node is unchanged.
    std::vector<bool> listed(g.num_nodes(), false);
    const std::vector<NodeId>& changed = pooled.last_changed();
    for (std::size_t i = 0; i < changed.size(); ++i) {
      listed[changed[i]] = true;
      ASSERT_EQ(materialize(pooled.previous_frontier_view(i)),
                before[changed[i]])
          << "src=" << src << " level=" << level << " node=" << changed[i];
      ASSERT_NE(pooled.frontier(changed[i]), before[changed[i]]);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!listed[v]) {
        ASSERT_EQ(pooled.frontier(v), before[v])
            << "src=" << src << " level=" << level << " node=" << v;
      }
    }
    if (!p_grew) break;
  }
  ASSERT_TRUE(pooled.at_fixpoint());
  ASSERT_TRUE(sweep.at_fixpoint());
}

struct TraceParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t contacts;
};

class PooledEngineParity : public ::testing::TestWithParam<TraceParam> {};

TEST_P(PooledEngineParity, BitIdenticalOnUndirectedTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 0);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_pooled_identical(g, src);
}

TEST_P(PooledEngineParity, BitIdenticalOnDirectedTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 1);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0, /*directed=*/true);
  for (NodeId src = 0; src < std::min<std::size_t>(g.num_nodes(), 3); ++src)
    expect_pooled_identical(g, src);
}

TEST_P(PooledEngineParity, BitIdenticalOnNegativeTimeTraces) {
  const auto param = GetParam();
  Rng rng = Rng::keyed(param.seed, 2);
  const TemporalGraph g = random_trace(rng, param.nodes, param.contacts,
                                       100.0, /*directed=*/false,
                                       /*time_shift=*/-1000.0);
  expect_pooled_identical(g, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, PooledEngineParity,
    ::testing::Values(TraceParam{11, 5, 15}, TraceParam{12, 8, 40},
                      TraceParam{13, 10, 80}, TraceParam{14, 6, 25},
                      TraceParam{15, 12, 120}, TraceParam{16, 4, 60},
                      TraceParam{17, 15, 150}, TraceParam{18, 10, 10}));

// ---------------------------------------------------------------------
// Steady-state recycling: reset() keeps the arenas, peaks go flat.
// ---------------------------------------------------------------------

TEST(PooledEngine, ResetRecyclesArenasWithZeroGrowth) {
  Rng rng = Rng::keyed(0xF0B6, 0);
  const TemporalGraph g = random_trace(rng, 12, 150, 100.0);
  SingleSourceEngine engine(g, 0, EngineMode::kPooled);

  auto full_pass = [&] {
    for (NodeId src = 0; src < g.num_nodes(); ++src) {
      engine.reset(src);
      engine.run_to_fixpoint();
    }
  };
  full_pass();
  const EngineStats warm = engine.stats();
  ASSERT_GT(warm.arena_bytes_peak, 0u);
  ASSERT_GT(warm.merge_batches, 0u);
  full_pass();
  const EngineStats steady = engine.stats();

  // The workspace was materialized exactly once; every further source is
  // a reuse and the arenas never grow past the first pass's high water.
  EXPECT_EQ(steady.workspace_allocations, 1u);
  EXPECT_EQ(steady.workspace_reuses, 2 * g.num_nodes());
  EXPECT_EQ(steady.arena_bytes_peak, warm.arena_bytes_peak);
  EXPECT_EQ(steady.pairs_peak, warm.pairs_peak);

  // And a recycled engine still computes the right frontiers.
  engine.reset(3);
  engine.run_to_fixpoint();
  SingleSourceEngine fresh(g, 3, EngineMode::kLevelSweep);
  fresh.run_to_fixpoint();
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst)
    ASSERT_EQ(engine.frontier(dst), fresh.frontier(dst)) << "dst=" << dst;
}

TEST(PooledEngine, TrackChangesContractPerMode) {
  Rng rng = Rng::keyed(0xF0B7, 0);
  const TemporalGraph g = random_trace(rng, 6, 30, 50.0);
  // kPooled: tracking is inherently on; the call is a validated no-op.
  SingleSourceEngine pooled(g, 0, EngineMode::kPooled);
  EXPECT_NO_THROW(pooled.track_changes(true));
  // kLevelSweep has no delta machinery at all.
  SingleSourceEngine sweep(g, 0, EngineMode::kLevelSweep);
  EXPECT_THROW(sweep.track_changes(true), std::logic_error);
}

// ---------------------------------------------------------------------
// All-pairs CDF: pooled + incremental vs level-sweep + direct.
// ---------------------------------------------------------------------

TEST(PooledEngine, DelayCdfMatchesDirectWithinTolerance) {
  Rng rng = Rng::keyed(0xF0B8, 0);
  const TemporalGraph g = random_trace(rng, 14, 200, 300.0);

  DelayCdfOptions base;
  base.grid = make_log_grid(1.0, 400.0, 24);
  base.max_hops = 8;
  base.num_threads = 1;
  // Two disjoint start-time windows (the §5.3.1 day-time regime).
  base.windows = {{10.0, 120.0}, {180.0, 290.0}};

  DelayCdfOptions pooled = base;
  pooled.engine = EngineMode::kPooled;
  pooled.accumulation = CdfAccumulation::kAuto;  // -> incremental
  DelayCdfOptions direct = base;
  direct.engine = EngineMode::kLevelSweep;
  direct.accumulation = CdfAccumulation::kDirect;

  const DelayCdfResult a = compute_delay_cdf(g, pooled);
  const DelayCdfResult b = compute_delay_cdf(g, direct);
  ASSERT_EQ(a.cdf_by_hops.size(), b.cdf_by_hops.size());
  for (std::size_t k = 0; k < a.cdf_by_hops.size(); ++k)
    for (std::size_t j = 0; j < a.grid.size(); ++j)
      ASSERT_NEAR(a.cdf_by_hops[k][j], b.cdf_by_hops[k][j], 1e-9)
          << "k=" << k + 1 << " j=" << j;
  for (std::size_t j = 0; j < a.grid.size(); ++j)
    ASSERT_NEAR(a.cdf_unbounded[j], b.cdf_unbounded[j], 1e-9);
  EXPECT_EQ(a.fixpoint_hops, b.fixpoint_hops);
  for (const double eps : {0.001, 0.01, 0.1})
    EXPECT_EQ(a.diameter(eps), b.diameter(eps)) << "eps=" << eps;
  // The pooled run recycles one workspace per worker thread.
  EXPECT_EQ(a.stats.workspace_allocations, 1u);
  EXPECT_GT(a.stats.arena_bytes_peak, 0u);
}

TEST(FrontierKernels, AddDeliverySegmentsMatchesPerPairReference) {
  // The single-window form must reproduce the per-pair reference walk
  // (DeliveryFunction::accumulate_delay_measure) bit for bit; the
  // multi-window form must equal one single-window call per window up to
  // the reordering of its add_segment calls.
  const std::vector<double> grid = make_log_grid(1.0, 500.0, 48);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng = Rng::keyed(0x51D4, trial);
    DeliveryFunction f;
    const std::size_t attempts = 1 + rng.below(120);
    for (std::size_t i = 0; i < attempts; ++i) f.insert(random_pair(rng));
    const std::vector<double> ld = ld_lane(f), ea = ea_lane(f);
    const double t_lo = rng.uniform(-5.0, 5.0);
    const double t_hi = t_lo + rng.uniform(0.0, 30.0);
    const double weight = rng.bernoulli(0.5) ? 1.0 : -0.5;

    MeasureCdfAccumulator soa(grid), ref(grid);
    soa.add_delivery_segments(ld.data(), ea.data(), ld.size(), t_lo, t_hi,
                              weight);
    f.accumulate_delay_measure(ref, t_lo, t_hi, weight);
    soa.add_observation_measure(t_hi - t_lo);
    ref.add_observation_measure(t_hi - t_lo);
    const std::vector<double> got = soa.cdf(), want = ref.cdf();
    for (std::size_t j = 0; j < grid.size(); ++j)
      ASSERT_EQ(got[j], want[j]) << "trial=" << trial << " j=" << j;

    const std::pair<double, double> windows[2] = {
        {t_lo, t_lo + (t_hi - t_lo) / 3.0},
        {t_lo + (t_hi - t_lo) / 2.0, t_hi}};
    MeasureCdfAccumulator multi(grid), per_window(grid);
    multi.add_delivery_segments(ld.data(), ea.data(), ld.size(), windows, 2,
                                weight);
    for (const auto& [lo, hi] : windows)
      per_window.add_delivery_segments(ld.data(), ea.data(), ld.size(), lo,
                                       hi, weight);
    multi.add_observation_measure(t_hi - t_lo);
    per_window.add_observation_measure(t_hi - t_lo);
    const std::vector<double> m_got = multi.cdf(), m_want = per_window.cdf();
    for (std::size_t j = 0; j < grid.size(); ++j)
      ASSERT_NEAR(m_got[j], m_want[j], 1e-12)
          << "trial=" << trial << " j=" << j;
  }
}

}  // namespace
}  // namespace odtn
