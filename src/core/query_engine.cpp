#include "core/query_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/flooding.hpp"

namespace odtn {
namespace {

void append_bytes(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

template <typename T>
void append_pod(std::string& out, T v) {
  append_bytes(out, &v, sizeof v);
}

/// Cheap fingerprint of the served graph: stable across copies, and any
/// trace transform (filter, window restriction, import) perturbs at least
/// one field.
std::string graph_fingerprint(const TemporalGraph& graph) {
  std::uint64_t start_bits = 0, end_bits = 0;
  const double start = graph.start_time(), end = graph.end_time();
  std::memcpy(&start_bits, &start, sizeof start_bits);
  std::memcpy(&end_bits, &end, sizeof end_bits);
  char buf[96];
  std::snprintf(buf, sizeof buf, "trace:n%zu:c%zu:d%d:s%016llx:e%016llx",
                graph.num_nodes(), graph.num_contacts(),
                graph.directed() ? 1 : 0,
                static_cast<unsigned long long>(start_bits),
                static_cast<unsigned long long>(end_bits));
  return buf;
}

}  // namespace

QueryEngine::QueryEngine(TemporalGraph graph, QueryEngineOptions options,
                         std::shared_ptr<ServeCache> cache)
    : graph_(std::move(graph)), options_(std::move(options)) {
  if (options_.grid.empty())
    throw std::invalid_argument("QueryEngine: empty delay grid");
  if (options_.max_hops < 1)
    throw std::invalid_argument("QueryEngine: max_hops must be >= 1");
  cache_ = cache ? std::move(cache)
                 : std::make_shared<ServeCache>(options_.cache_bytes,
                                                options_.cache_shards);
  rebuild_key_prefix();
  all_nodes_.resize(graph_.num_nodes());
  std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  is_endpoint_.assign(graph_.num_nodes(), 1);
}

// Everything that determines a partial's bytes, once per engine state.
// The tail appended per query (source + windows) is fixed-layout, so two
// keys agree iff every ingredient agrees -- no framing ambiguity. The
// graph epoch participates so an ingest invalidates every earlier key:
// stale partials become unreachable and age out of the LRU.
void QueryEngine::rebuild_key_prefix() {
  key_prefix_ = graph_fingerprint(graph_);
  key_prefix_ += ':';
  append_pod(key_prefix_, graph_.epoch());
  append_pod(key_prefix_, static_cast<std::uint8_t>(options_.engine));
  append_pod(key_prefix_,
             static_cast<std::uint8_t>(options_.accumulation));
  append_pod(key_prefix_, static_cast<std::int32_t>(options_.max_hops));
  append_pod(key_prefix_, static_cast<std::int32_t>(options_.max_levels));
  // The full grid by bit pattern, not a hash: a hash collision would
  // silently fold a partial integrated on a different grid.
  append_pod(key_prefix_, static_cast<std::uint64_t>(options_.grid.size()));
  append_bytes(key_prefix_, options_.grid.data(),
               options_.grid.size() * sizeof(double));
}

std::uint64_t QueryEngine::ingest(std::span<const Contact> batch) {
  const std::uint64_t epoch = graph_.append_contacts(batch);
  rebuild_key_prefix();
  const std::lock_guard<std::mutex> lock(workspace_mutex_);
  free_workspaces_.clear();
  return epoch;
}

std::unique_ptr<SourceCdfWorkspace> QueryEngine::checkout_workspace() const {
  std::unique_ptr<SourceCdfWorkspace> workspace;
  {
    const std::lock_guard<std::mutex> lock(workspace_mutex_);
    if (!free_workspaces_.empty()) {
      workspace = std::move(free_workspaces_.back());
      free_workspaces_.pop_back();
    }
  }
  if (!workspace)
    return std::make_unique<SourceCdfWorkspace>(options_.grid,
                                                options_.max_hops);
  workspace->recycle();
  return workspace;
}

void QueryEngine::checkin_workspace(
    std::unique_ptr<SourceCdfWorkspace> workspace) const {
  const std::lock_guard<std::mutex> lock(workspace_mutex_);
  free_workspaces_.push_back(std::move(workspace));
}

std::size_t QueryEngine::cached_partial_bytes() const noexcept {
  return (static_cast<std::size_t>(options_.max_hops) + 1) *
             (2 * (options_.grid.size() + 1) + 1) * sizeof(double) +
         64;
}

std::string QueryEngine::query_key(NodeId source,
                                   const TimeWindows& windows) const {
  std::string key = key_prefix_;
  append_pod(key, static_cast<std::uint32_t>(source));
  for (const auto& [lo, hi] : windows) {
    append_pod(key, lo);
    append_pod(key, hi);
  }
  return key;
}

DelayCdfOptions QueryEngine::cdf_options(std::optional<double> t_lo,
                                         std::optional<double> t_hi) const {
  DelayCdfOptions o;
  o.grid = options_.grid;
  o.max_hops = options_.max_hops;
  o.max_levels = options_.max_levels;
  o.t_lo = t_lo;
  o.t_hi = t_hi;
  o.num_threads = options_.num_threads;
  o.engine = options_.engine;
  o.accumulation = options_.accumulation;
  return o;
}

DelayCdfResult QueryEngine::run(const std::vector<NodeId>& sources,
                                const DelayCdfOptions& options) {
  const TimeWindows w = resolve_cdf_windows(graph_, options);
  const std::size_t partial_cost = cached_partial_bytes();
  const WorkspaceLender lender{
      [this] { return checkout_workspace(); },
      [this](auto workspace) { checkin_workspace(std::move(workspace)); }};

  // A cache probe in front of process_source. Hits and misses all land
  // in the executor's fold in ascending source order, so mixing them
  // changes no bit of the answer -- see the header's contract.
  return run_source_cdf(
      options, sources.size(),
      [&](std::size_t i, SourceCdfSlot& slot) -> const SourceCdfPartial& {
        const std::string key = query_key(sources[i], w);
        slot.held = cache_->get(key);
        if (slot.held) {
          ++slot.stats.cache_hits;
          return *slot.held;
        }
        ++slot.stats.cache_misses;
        const SourceCdfPartial& partial = process_source(
            graph_, sources[i], all_nodes_, is_endpoint_, w, options, slot);
        slot.stats.cache_evictions +=
            cache_->put(key, std::make_shared<SourceCdfPartial>(partial),
                        partial_cost + key.size());
        return partial;
      },
      lender);
}

DelayCdfResult QueryEngine::source_cdf(NodeId source,
                                       std::optional<double> t_lo,
                                       std::optional<double> t_hi) {
  if (source >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::source_cdf: bad source");
  return run({source}, cdf_options(t_lo, t_hi));
}

DelayCdfResult QueryEngine::all_pairs(std::optional<double> t_lo,
                                      std::optional<double> t_hi) {
  return run(all_nodes_, cdf_options(t_lo, t_hi));
}

std::size_t QueryEngine::reachable_count(NodeId source, double t) const {
  if (source >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::reachable_count: bad source");
  if (!std::isfinite(t))
    throw std::invalid_argument(
        "QueryEngine::reachable_count: non-finite start time");
  // Same hop cap, usability test (arrival <= contact end) and arrival
  // rule (max(arrival, begin)) as the DP's deliver_at(t): a node counts
  // iff its delivery function is finite at t.
  const FloodingResult f = flood(graph_, source, t, options_.max_levels);
  std::size_t reached = 0;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n)
    if (n != source && std::isfinite(f.best_arrival(n))) ++reached;
  return reached;
}

JourneyOptima QueryEngine::journey(NodeId source, NodeId destination) const {
  if (source >= graph_.num_nodes() || destination >= graph_.num_nodes())
    throw std::invalid_argument("QueryEngine::journey: bad node id");
  std::unique_ptr<SourceCdfWorkspace> workspace = checkout_workspace();
  SingleSourceEngine& engine =
      workspace->engine_for(graph_, source, options_.engine);
  const JourneyOptima j =
      compute_journeys(graph_, engine, options_.max_levels)[destination];
  checkin_workspace(std::move(workspace));
  return j;
}

}  // namespace odtn
