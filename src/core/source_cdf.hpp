// The all-pairs executor (run_source_cdf): compute_delay_cdf,
// QueryEngine::run and IncrementalAllPairsEngine::all_pairs each pass
// it one per-source hook.
//
// One source's contribution to the all-pairs CDFs is integrated into a
// private zeroed SourceCdfPartial, and partials are folded into the
// running total in CANONICAL order: ascending endpoint index, one left
// chain. Floating-point addition is not associative, so this fold order
// -- not the execution order -- is the contract that makes results
// bit-identical across thread counts: however the sources were
// distributed over workers, the same per-source doubles are merged in
// the same sequence. Per-source partials themselves are bitwise
// reproducible anywhere because every worker runs the identical
// deterministic DP over the same contact array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/diameter.hpp"
#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"
#include "stats/measure_cdf.hpp"

namespace odtn {

/// Disjoint increasing start-time windows (resolved form of
/// DelayCdfOptions::{windows, t_lo, t_hi}).
using TimeWindows = std::vector<std::pair<double, double>>;

/// Resolves the options' start-time windows against the graph span: an
/// unset t_lo / t_hi is the trace's start / end. Throws
/// std::invalid_argument on overlapping/decreasing or non-finite
/// windows, a NaN or infinite t_lo or t_hi, an empty [t_lo, t_hi], and a
/// zero-measure one given explicitly (t_lo == t_hi, both set).
TimeWindows resolve_cdf_windows(const TemporalGraph& graph,
                                const DelayCdfOptions& options);

/// Total Lebesgue measure of the window union.
double total_window_measure(const TimeWindows& windows);

/// One source's contribution to the all-pairs accumulators: one
/// accumulator per hop budget plus the past-max_hops residual. Under the
/// incremental scheme by_hops[k-1] holds only the level-k delta (the
/// executor prefix-merges once after the fold); under the direct scheme
/// it holds the source's full hop-k integration.
struct SourceCdfPartial {
  std::vector<MeasureCdfAccumulator> by_hops;
  MeasureCdfAccumulator unbounded;
  int fixpoint_hops = 0;
  bool converged = true;

  SourceCdfPartial(const std::vector<double>& grid, int max_hops);

  /// Back to the zeroed state (grid and capacity kept) so one scratch
  /// partial serves many sources.
  void clear();

  /// Left-chain fold step: numerators/denominators add, fixpoint levels
  /// max, convergence ANDs. Adding onto a zeroed partial reproduces the
  /// operand bit-for-bit (0 + x == x exactly).
  void merge_from(const SourceCdfPartial& other);
};

/// One worker slot's recyclable state: the engine the incremental scheme
/// recycles across sources and the scratch partial a source fills.
struct SourceCdfWorkspace {
  std::optional<SingleSourceEngine> engine;
  /// The engine's counters belong to an earlier query (unreported).
  bool stale = false;
  SourceCdfPartial partial;

  SourceCdfWorkspace(const std::vector<double>& grid, int max_hops)
      : partial(grid, max_hops) {}

  /// Readies a workspace kept from an earlier query: the engine's
  /// counters restart on its next use (SingleSourceEngine::recycle).
  void recycle() noexcept;

  /// The engine bound to `src` at hop 0: built on first use, reset
  /// afterwards.
  SingleSourceEngine& engine_for(const TemporalGraph& graph, NodeId src,
                                 EngineMode mode);
};

/// Where an executor call's slots get workspaces (unset checkout: build
/// fresh) and return them when the call ends (unset checkin: drop).
struct WorkspaceLender {
  std::function<std::unique_ptr<SourceCdfWorkspace>()> checkout;
  std::function<void(std::unique_ptr<SourceCdfWorkspace>)> checkin;
};

/// One worker id's state within one run_source_cdf call (built by the
/// executor, so a nested call never shares one with its outer job).
struct SourceCdfSlot {
  /// This worker's counters (cache hits/misses/evictions, integrated
  /// pairs); the executor merges them into the result.
  EngineStats stats;
  /// Keeps a returned cache entry alive until the executor folded it.
  std::shared_ptr<const SourceCdfPartial> held;

  /// The worker's workspace with its partial cleared, taken from the
  /// lender on first use (an all-hit query takes none).
  SourceCdfWorkspace& workspace();

  const DelayCdfOptions& options;
  const WorkspaceLender& lender;
  std::unique_ptr<SourceCdfWorkspace> taken;
};

/// The per-source hook: source i's partial, either one the caller holds
/// (a cache hit, a clean live partial) or one it filled in the slot.
using SourceCdfHook =
    std::function<const SourceCdfPartial&(std::size_t, SourceCdfSlot&)>;

/// The one all-pairs executor: runs hook(i, slot) for every i in
/// [0, count) on options.num_threads workers, folds the partials in
/// ascending i, merges the slots' counters and finalizes.
DelayCdfResult run_source_cdf(const DelayCdfOptions& options,
                              std::size_t count, const SourceCdfHook& hook,
                              const WorkspaceLender& lender = {});

/// Runs fn(i, worker) for every i in [0, count) on `num_threads`
/// workers (0 = the shared pool), handing indices out dynamically. The
/// executor's fan-out, also used by the live engine's DP advance.
void for_each_source(unsigned num_threads, std::size_t count,
                     const std::function<void(std::size_t, unsigned)>& fn);

/// Integrates one source into the slot's workspace partial and returns
/// it. `is_endpoint` is a num_nodes-sized membership mask of `endpoints`
/// (used by the incremental scheme's change filter). The direct scheme
/// runs a fresh engine per source (reference semantics); the incremental
/// scheme recycles the workspace engine across calls.
const SourceCdfPartial& process_source(
    const TemporalGraph& graph, NodeId src,
    const std::vector<NodeId>& endpoints,
    const std::vector<std::uint8_t>& is_endpoint, const TimeWindows& w,
    const DelayCdfOptions& options, SourceCdfSlot& slot);

/// Thread-safe canonical-order folder: submit(i, partial) merges the
/// partials into one total in ascending index order no matter the
/// arrival order (out-of-order arrivals are buffered by copy until the
/// gap fills -- rare under the dynamic hand-out, impossible with one
/// worker). After every index in [0, count) was submitted exactly once,
/// total() is the left-chain fold.
class OrderedCdfFolder {
 public:
  OrderedCdfFolder(const std::vector<double>& grid, int max_hops,
                   std::size_t count);

  void submit(std::size_t index, const SourceCdfPartial& partial);

  /// The folded total; only meaningful once all `count` submissions
  /// happened (throws std::logic_error otherwise).
  SourceCdfPartial& total();

 private:
  SourceCdfPartial total_;
  std::size_t count_;
  std::mutex mutex_;
  std::size_t next_ = 0;
  std::map<std::size_t, SourceCdfPartial> pending_;
};

}  // namespace odtn
