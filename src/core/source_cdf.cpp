#include "core/source_cdf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace odtn {
namespace {

void record_fixpoint(SourceCdfPartial& out, int fixpoint, int max_levels) {
  if (fixpoint > max_levels) out.converged = false;
  out.fixpoint_hops = std::max(out.fixpoint_hops, fixpoint);
}

bool blocks_equal(const double* a, const double* b, std::size_t k) noexcept {
  return std::memcmp(a, b, k * sizeof(double)) == 0;
}

/// Length of the longest common prefix of the lane PAIRS (a0, a1) and
/// (b0, b1) under value equality (+0.0 equals -0.0). Bitwise-equal runs
/// are found block-first (memcmp), then refined per element, so a lone
/// +0.0/-0.0 flip inside a block does not end the prefix early.
std::size_t equal_prefix2(const double* a0, const double* a1,
                          const double* b0, const double* b1,
                          std::size_t n) noexcept {
  constexpr std::size_t kBlk = 8;
  std::size_t p = 0;
  while (p + kBlk <= n && blocks_equal(a0 + p, b0 + p, kBlk) &&
         blocks_equal(a1 + p, b1 + p, kBlk))
    p += kBlk;
  while (p < n && a0[p] == b0[p] && a1[p] == b1[p]) ++p;
  return p;
}

/// Longest common suffix of (a0, a1)[0, an) and (b0, b1)[0, bn) under
/// value equality, capped at max_n; same block-then-element scan.
std::size_t equal_suffix2(const double* a0, const double* a1, std::size_t an,
                          const double* b0, const double* b1, std::size_t bn,
                          std::size_t max_n) noexcept {
  constexpr std::size_t kBlk = 8;
  std::size_t s = 0;
  while (s + kBlk <= max_n &&
         blocks_equal(a0 + an - s - kBlk, b0 + bn - s - kBlk, kBlk) &&
         blocks_equal(a1 + an - s - kBlk, b1 + bn - s - kBlk, kBlk))
    s += kBlk;
  while (s < max_n && a0[an - 1 - s] == b0[bn - 1 - s] &&
         a1[an - 1 - s] == b1[bn - 1 - s])
    ++s;
  return s;
}

/// One destination's incremental CDF update: retract the pre-change
/// frontier's integration (weight -1) and add the new one's (+1).
///
/// Both versions are arena-resident SoA spans whose shared pairs are
/// value-identical (merge_frontier copies doubles verbatim). Their common
/// prefix and suffix would be retracted at -1 and re-added at +1 with
/// identical segment arguments, so only the differing middle slice is
/// integrated. Skipping a cancelling +/- pair
/// never changes the exact sum, it only removes two rounding
/// round-trips; the slices stay exact because the suffix is extended by
/// one pair whenever its start boundary (the predecessor's ld) differs
/// between the versions.
void integrate_frontier_delta(const FrontierView& old_f,
                              const FrontierView& new_f, const TimeWindows& w,
                              MeasureCdfAccumulator& acc,
                              std::uint64_t& pairs_integrated) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const double* o_ld = old_f.soa_ld();
  const double* o_ea = old_f.soa_ea();
  const double* n_ld = new_f.soa_ld();
  const double* n_ea = new_f.soa_ea();
  assert(o_ld && n_ld);
  const std::size_t on = old_f.size(), nn = new_f.size();
  const std::size_t match_max = std::min(on, nn);
  const std::size_t p = equal_prefix2(o_ld, o_ea, n_ld, n_ea, match_max);
  std::size_t s = equal_suffix2(o_ld, o_ea, on, n_ld, n_ea, nn, match_max - p);
  if (s > 0) {
    // The first suffix pair's segment starts at its predecessor's ld; if
    // the predecessors differ the pair belongs to the middle. One step
    // suffices: the next suffix pair's predecessor is then itself a
    // matched pair.
    const double ob = on - s > 0 ? o_ld[on - s - 1] : kNegInf;
    const double nb = nn - s > 0 ? n_ld[nn - s - 1] : kNegInf;
    if (ob != nb) --s;
  }
  const double boundary = p > 0 ? o_ld[p - 1] : kNegInf;
  const std::size_t om = on - p - s, nm = nn - p - s;
  if (om + nm > 0) {
    acc.add_delivery_segments(o_ld + p, o_ea + p, om, w.data(), w.size(),
                              -1.0, boundary);
    acc.add_delivery_segments(n_ld + p, n_ea + p, nm, w.data(), w.size(),
                              +1.0, boundary);
  }
  pairs_integrated += om + nm;
}

/// The level sweep has no change tracking, so it accumulates directly.
bool use_incremental_accumulation(const DelayCdfOptions& options) {
  return options.accumulation == CdfAccumulation::kAuto &&
         options.engine == EngineMode::kPooled;
}

void process_source_direct(const TemporalGraph& graph, NodeId src,
                           const std::vector<NodeId>& endpoints,
                           const TimeWindows& w, const DelayCdfOptions& o,
                           EngineStats& stats, SourceCdfPartial& out) {
  SingleSourceEngine engine(graph, src, o.engine);
  const double window_measure = total_window_measure(w);
  auto accumulate = [&](MeasureCdfAccumulator& acc, NodeId dst) {
    const FrontierView f = engine.frontier_view(dst);
    for (const auto& [lo, hi] : w) f.accumulate_delay_measure(acc, lo, hi);
    stats.cdf_pairs_integrated += f.size();
    acc.add_observation_measure(window_measure);
  };
  for (int k = 1; k <= o.max_hops; ++k) {
    engine.step();  // no-op once at fixpoint; frontiers stay L_inf
    for (NodeId dst : endpoints) {
      if (dst == src) continue;
      accumulate(out.by_hops[k - 1], dst);
    }
  }
  record_fixpoint(out, engine.run_to_fixpoint(o.max_levels), o.max_levels);
  for (NodeId dst : endpoints) {
    if (dst == src) continue;
    accumulate(out.unbounded, dst);
  }
  stats.merge(engine.stats());
}

void process_source_incremental(const TemporalGraph& graph, NodeId src,
                                const std::vector<NodeId>& endpoints,
                                const std::vector<std::uint8_t>& is_endpoint,
                                const TimeWindows& w, const DelayCdfOptions& o,
                                SourceCdfWorkspace& ws, EngineStats& stats) {
  SingleSourceEngine& engine = ws.engine_for(graph, src, o.engine);
  SourceCdfPartial& out = ws.partial;

  // Observation measure for every (src, dst) pair of this source parks
  // in the hop-1 accumulator; prefix_merge propagates it to every hop
  // budget and to `unbounded`.
  out.by_hops[0].add_observation_measure(
      total_window_measure(w) * static_cast<double>(endpoints.size() - 1));

  // After each level, only destinations whose frontier changed move any
  // CDF: retract the pre-change frontier's integration and add the new
  // one (integrate_frontier_delta above). Everything else is carried
  // over by the finalization prefix sum.
  auto apply_level_deltas = [&](MeasureCdfAccumulator& acc) {
    const std::vector<NodeId>& changed = engine.last_changed();
    for (std::size_t i = 0; i < changed.size(); ++i) {
      const NodeId dst = changed[i];
      if (dst == src || !is_endpoint[dst]) continue;
      integrate_frontier_delta(engine.previous_frontier_view(i),
                               engine.frontier_view(dst), w, acc,
                               stats.cdf_pairs_integrated);
    }
  };
  for (int k = 1; k <= o.max_hops; ++k) {
    engine.step();  // no-op once at fixpoint: last_changed() is empty
    apply_level_deltas(out.by_hops[k - 1]);
  }
  // Levels past the last budget feed the unbounded accumulator, which
  // finalization chains onto by_hops[max_hops - 1] -- reaching the
  // fixpoint costs only the residual deltas, never a full re-pass.
  while (!engine.at_fixpoint() && engine.hops() < o.max_levels) {
    engine.step();
    apply_level_deltas(out.unbounded);
  }
  record_fixpoint(out,
                  engine.at_fixpoint() ? engine.hops() : o.max_levels + 1,
                  o.max_levels);
}

/// Prefix-merges the incremental deltas, evaluates the per-hop CDFs,
/// clamps the hop monotonicity invariant, and fills the result scalars.
/// `total` is consumed (its accumulators are prefix-merged in place).
DelayCdfResult finalize_delay_cdf(SourceCdfPartial& total,
                                  const EngineStats& stats,
                                  const DelayCdfOptions& options) {
  const bool incremental = use_incremental_accumulation(options);
  if (incremental) {
    // Reconstruct CDF_k = CDF_{k-1} + delta_k across the hop budgets and
    // chain the past-max_hops deltas onto the last budget for the
    // unbounded CDF. Folding the per-source partials first is equivalent
    // (both are sums over the same segment set).
    MeasureCdfAccumulator::prefix_merge(total.by_hops);
    total.unbounded.merge(total.by_hops.back());
  }

  DelayCdfResult result;
  result.grid = options.grid;
  result.cdf_by_hops.reserve(options.max_hops);
  for (int k = 0; k < options.max_hops; ++k)
    result.cdf_by_hops.push_back(total.by_hops[k].cdf());
  result.cdf_unbounded = total.unbounded.cdf();
  if (incremental) {
    // The prefix-reconstructed CDFs are mathematically monotone in the
    // hop budget, but each budget's numerator carries its own rounding,
    // so adjacent budgets can invert by ~1 ulp where the delta is zero.
    // Clamp to restore the exact invariant consumers rely on.
    for (int k = 1; k < options.max_hops; ++k)
      for (std::size_t j = 0; j < result.grid.size(); ++j)
        result.cdf_by_hops[k][j] =
            std::max(result.cdf_by_hops[k][j], result.cdf_by_hops[k - 1][j]);
    for (std::size_t j = 0; j < result.grid.size(); ++j)
      result.cdf_unbounded[j] =
          std::max(result.cdf_unbounded[j], result.cdf_by_hops.back()[j]);
  }
  result.fixpoint_hops = total.fixpoint_hops;
  result.converged = total.converged;
  result.stats = stats;
  result.denominator = total.unbounded.denominator();
  return result;
}

}  // namespace

TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options) {
  if (!options.windows.empty()) {
    double prev = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : options.windows) {
      if (std::isinf(lo) || std::isinf(hi))
        throw std::invalid_argument("compute_delay_cdf: infinite window");
      if (!(lo <= hi) || lo < prev)
        throw std::invalid_argument(
            "compute_delay_cdf: windows must be disjoint and increasing");
      prev = hi;
    }
    return options.windows;
  }
  for (const std::optional<double>& bound : {options.t_lo, options.t_hi}) {
    if (!bound) continue;
    if (std::isnan(*bound))
      throw std::invalid_argument("compute_delay_cdf: NaN start-time bound");
    if (std::isinf(*bound))
      throw std::invalid_argument(
          "compute_delay_cdf: infinite start-time bound");
  }
  if (options.t_lo && options.t_hi && *options.t_lo == *options.t_hi)
    throw std::invalid_argument(
        "compute_delay_cdf: zero-measure start-time window");
  const double lo = options.t_lo.value_or(graph.start_time());
  const double hi = options.t_hi.value_or(graph.end_time());
  if (!(lo <= hi))
    throw std::invalid_argument("compute_delay_cdf: empty start-time window");
  return {{lo, hi}};
}

double total_window_measure(const TimeWindows& windows) {
  double total = 0.0;
  for (const auto& [lo, hi] : windows) total += hi - lo;
  return total;
}

SourceCdfPartial::SourceCdfPartial(const std::vector<double>& grid,
                                   int max_hops)
    : unbounded(grid) {
  by_hops.reserve(max_hops);
  for (int k = 0; k < max_hops; ++k) by_hops.emplace_back(grid);
}

void SourceCdfPartial::clear() {
  for (MeasureCdfAccumulator& acc : by_hops) acc.clear();
  unbounded.clear();
  fixpoint_hops = 0;
  converged = true;
}

void SourceCdfPartial::merge_from(const SourceCdfPartial& other) {
  for (std::size_t k = 0; k < by_hops.size(); ++k)
    by_hops[k].merge(other.by_hops[k]);
  unbounded.merge(other.unbounded);
  fixpoint_hops = std::max(fixpoint_hops, other.fixpoint_hops);
  converged = converged && other.converged;
}

void SourceCdfWorkspace::recycle() noexcept { stale = engine.has_value(); }

SingleSourceEngine& SourceCdfWorkspace::engine_for(
    const TemporalGraph& graph, NodeId src, EngineMode mode) {
  if (!engine) {
    engine.emplace(graph, src, mode);
  } else if (stale) {
    engine->recycle(src);
  } else {
    engine->reset(src);
  }
  stale = false;
  return *engine;
}

SourceCdfWorkspace& SourceCdfSlot::workspace() {
  if (!taken && lender.checkout) taken = lender.checkout();
  if (!taken)
    taken = std::make_unique<SourceCdfWorkspace>(options.grid,
                                                 options.max_hops);
  taken->partial.clear();
  return *taken;
}

const SourceCdfPartial& process_source(
    const TemporalGraph& graph, NodeId src,
    const std::vector<NodeId>& endpoints,
    const std::vector<std::uint8_t>& is_endpoint, const TimeWindows& w,
    const DelayCdfOptions& options, SourceCdfSlot& slot) {
  SourceCdfWorkspace& ws = slot.workspace();
  if (use_incremental_accumulation(options))
    process_source_incremental(graph, src, endpoints, is_endpoint, w, options,
                               ws, slot.stats);
  else
    process_source_direct(graph, src, endpoints, w, options, slot.stats,
                          ws.partial);
  return ws.partial;
}

OrderedCdfFolder::OrderedCdfFolder(const std::vector<double>& grid,
                                   int max_hops, std::size_t count)
    : total_(grid, max_hops), count_(count) {}

void OrderedCdfFolder::submit(std::size_t index,
                              const SourceCdfPartial& partial) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index != next_) {
    pending_.emplace(index, partial);
    return;
  }
  total_.merge_from(partial);
  ++next_;
  // Drain buffered successors now contiguous with the fold front.
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == next_) {
    total_.merge_from(it->second);
    ++next_;
    it = pending_.erase(it);
  }
}

SourceCdfPartial& OrderedCdfFolder::total() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (next_ != count_ || !pending_.empty())
    throw std::logic_error("OrderedCdfFolder: fold incomplete");
  return total_;
}

void for_each_source(unsigned num_threads, std::size_t count,
                     const std::function<void(std::size_t, unsigned)>& fn) {
  // Dynamic hand-out: expensive sources (dense neighborhoods, long
  // traces) do not serialize behind a strided static partition.
  std::optional<ThreadPool> local_pool;
  if (num_threads != 0) local_pool.emplace(num_threads);
  ThreadPool& pool = local_pool ? *local_pool : shared_thread_pool();
  pool.parallel_for(count, fn);
}

DelayCdfResult run_source_cdf(const DelayCdfOptions& options,
                              std::size_t count, const SourceCdfHook& hook,
                              const WorkspaceLender& lender) {
  // One slot per worker id: a local pool of num_threads workers hands
  // out ids below num_threads, the shared pool below its size.
  const unsigned workers = options.num_threads != 0
                               ? options.num_threads
                               : shared_thread_pool().num_workers();
  std::vector<SourceCdfSlot> slots;
  slots.reserve(workers);
  for (unsigned t = 0; t < workers; ++t)
    slots.push_back({{}, nullptr, options, lender, nullptr});
  OrderedCdfFolder folder(options.grid, options.max_hops, count);
  for_each_source(options.num_threads, count,
                  [&](std::size_t i, unsigned worker) {
                    SourceCdfSlot& slot = slots[worker];
                    folder.submit(i, hook(i, slot));
                    slot.held.reset();
                  });

  EngineStats stats;
  for (SourceCdfSlot& slot : slots) {
    stats.merge(slot.stats);
    if (!slot.taken) continue;
    const SourceCdfWorkspace& ws = *slot.taken;
    if (ws.engine && !ws.stale) stats.merge(ws.engine->stats());
    if (lender.checkin) lender.checkin(std::move(slot.taken));
  }
  return finalize_delay_cdf(folder.total(), stats, options);
}

}  // namespace odtn
