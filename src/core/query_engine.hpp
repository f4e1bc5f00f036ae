// QueryEngine: the serving-path facade behind `odtn serve`. It owns (or
// borrows) a TemporalGraph -- typically a zero-copy snapshot view
// (trace/snapshot.hpp) -- and answers queries through a sharded,
// byte-budgeted LRU result cache (util/lru_cache.hpp).
//
// What is cached, and why the answers stay bit-identical:
//
//   The unit of caching is one source's PRE-FINALIZE SourceCdfPartial --
//   the raw difference-array lanes process_source produces. All-pairs
//   answers are the canonical ascending-endpoint left-chain fold of
//   those partials (core/source_cdf.hpp), so a run that pulls some
//   partials from cache and computes the rest folds THE SAME DOUBLES IN
//   THE SAME ORDER as a cold run: every CDF value,
//   diameter and denominator is bit-identical, whatever subset hit.
//   Finalization (prefix-merge + evaluation) always happens fresh on the
//   folded total. Only the instrumentation counters differ between warm
//   and cold runs -- a cache hit skips the propagation engine, so
//   contacts_examined et al. count only the computed sources, and the
//   cache_hits / cache_misses / cache_evictions counters say why.
//
// Cache keys bind the partial to everything that determines its bytes:
// the graph's fingerprint (node/contact counts, directedness, span bit
// patterns) and epoch, the engine mode, accumulation scheme, hop budget,
// the grid's exact bit patterns, the resolved start-time windows' bit
// patterns, and the source id. Engines
// over different graphs can therefore safely SHARE one cache (pass the
// same shared_ptr): keys from differently transformed traces never
// collide.
//
// Each verb does only the work its answer needs:
//
//   source_cdf / all_pairs  cache probe per source, then the Pareto
//                           (LD, EA) DP + CDF integration on a miss;
//   reachable_count         one hop-bounded earliest-arrival flood
//                           (sim/flooding.hpp), no frontiers at all;
//   journey                 one DP run (shortest hops per level, fastest
//                           off the final frontiers), no cache.
//
// A CDF query is one run_source_cdf call (core/source_cdf.hpp) whose
// hook is the cache probe / put around process_source. Its workspaces
// (SourceCdfWorkspace) outlive queries in a mutex-guarded free list: an
// executor slot checks one out on its first miss and returns it when
// the query ends; an empty list builds a fresh one. So concurrent
// queries and nested inline runs never share a workspace, and a
// recycled one reports a fresh one's EngineStats (recycle()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/diameter.hpp"
#include "core/journeys.hpp"
#include "core/source_cdf.hpp"
#include "core/temporal_graph.hpp"
#include "util/lru_cache.hpp"

namespace odtn {

/// The serve-path result cache: key = query fingerprint (binary string),
/// value = one source's pre-finalize CDF partial.
using ServeCache = ShardedLruCache<std::string, SourceCdfPartial>;

struct QueryEngineOptions {
  /// Delay grid for CDF queries (positive, strictly increasing). Must be
  /// non-empty; the CLI defaults to make_log_grid over the trace span.
  std::vector<double> grid;
  int max_hops = 10;
  int max_levels = 64;
  EngineMode engine = EngineMode::kPooled;
  CdfAccumulation accumulation = CdfAccumulation::kAuto;
  /// Total cache budget in bytes, split across cache_shards. 0 disables
  /// caching (every query computes cold).
  std::size_t cache_bytes = 256u << 20;
  std::size_t cache_shards = 8;
  /// Worker threads for all-pairs fan-out; 0 = shared pool.
  unsigned num_threads = 0;
};

class QueryEngine {
 public:
  /// Takes the graph by value: a snapshot view copies in O(1) (shared
  /// mapping + indexes), an owned graph moves. Pass `cache` to share one
  /// LRU across engines (nullptr: the engine builds a private cache from
  /// the options).
  QueryEngine(TemporalGraph graph, QueryEngineOptions options,
              std::shared_ptr<ServeCache> cache = nullptr);

  /// Delay CDF aggregated over all destinations for one source, message
  /// creation times uniform over [t_lo, t_hi] (an unset bound is the
  /// trace's start / end; resolve_cdf_windows validates set ones).
  /// Served from cache when this source was already computed under the
  /// same window -- including by a previous all_pairs call.
  DelayCdfResult source_cdf(NodeId source,
                            std::optional<double> t_lo = std::nullopt,
                            std::optional<double> t_hi = std::nullopt);

  /// All-pairs delay CDFs / (1-eps)-diameter over a window, folding
  /// cached and freshly computed per-source partials in canonical order
  /// (bit-identical to compute_delay_cdf on a cold cache, and to itself
  /// on any warm subset).
  DelayCdfResult all_pairs(std::optional<double> t_lo = std::nullopt,
                           std::optional<double> t_hi = std::nullopt);

  /// Number of nodes (excluding the source) reachable by a message
  /// created at `source` at time `t` with at most max_levels contacts:
  /// the nodes whose flooding optimum del(t) is finite. Throws
  /// std::invalid_argument for a bad source or a non-finite `t`.
  std::size_t reachable_count(NodeId source, double t) const;

  /// Journey optima (foremost/fastest/shortest) from source to
  /// destination, on a recycled engine workspace.
  JourneyOptima journey(NodeId source, NodeId destination) const;

  /// Appends one canonical-order contact batch to the served graph
  /// (TemporalGraph::append_contacts semantics) and bumps the cache-key
  /// prefix with the new graph epoch, so every pre-append cached partial
  /// becomes unreachable -- stale entries age out of the LRU instead of
  /// ever being served. Snapshot-view engines cannot ingest (the view is
  /// read-only); the underlying append throws std::logic_error. Not
  /// thread-safe against concurrent queries on this engine: callers
  /// serialize ingest against query execution (the serve loop does).
  /// Idle engine workspaces are dropped with the old graph.
  /// Returns the graph epoch after the append.
  std::uint64_t ingest(std::span<const Contact> batch);

  const TemporalGraph& graph() const noexcept { return graph_; }
  const QueryEngineOptions& options() const noexcept { return options_; }
  LruCacheStats cache_stats() const { return cache_->stats(); }

  /// Bytes charged to the cache per stored partial: the raw lanes
  /// ((max_hops+1) accumulators x (2*(grid+1)+1) doubles) plus a fixed
  /// bookkeeping estimate.
  std::size_t cached_partial_bytes() const noexcept;

 private:
  DelayCdfResult run(const std::vector<NodeId>& sources,
                     const DelayCdfOptions& options);
  DelayCdfOptions cdf_options(std::optional<double> t_lo,
                              std::optional<double> t_hi) const;
  std::string query_key(NodeId source, const TimeWindows& windows) const;
  void rebuild_key_prefix();

  /// The workspace free list (see the file comment).
  std::unique_ptr<SourceCdfWorkspace> checkout_workspace() const;
  void checkin_workspace(std::unique_ptr<SourceCdfWorkspace> workspace) const;

  TemporalGraph graph_;
  QueryEngineOptions options_;
  std::shared_ptr<ServeCache> cache_;
  std::string key_prefix_;  // graph fingerprint + engine/grid options
  std::vector<NodeId> all_nodes_;
  std::vector<std::uint8_t> is_endpoint_;  // all-ones mask over nodes
  mutable std::mutex workspace_mutex_;
  mutable std::vector<std::unique_ptr<SourceCdfWorkspace>> free_workspaces_;
};

}  // namespace odtn
