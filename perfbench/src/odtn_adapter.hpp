// The benchmark's only door into the odtn library.
//
// Every call the benchmark makes into src/ goes through this header, and
// odtn_adapter.cpp is the only file that includes an odtn header (the
// build links the library privately into the adapter alone). The surface
// is deliberately small and sticks to what the project keeps across its
// planned refactors: preset generation, the text trace reader/writer,
// snapshot encode/decode, the TemporalGraph constructor, the all-pairs
// compute_delay_cdf entry point, the single-source engine's
// reset/track_changes/step/stats, the QueryEngine queries and
// cache_stats, and the live-ingest session's feed/commit/all_pairs.
// Time windows are always explicit finite bounds or absent; the adapter
// never passes a NaN "unset" window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Preset { kInfocom05, kInfocom06, kRealityMining };

/// The preset's canonical generator seed (the default --seed).
std::uint64_t canonical_seed(Preset preset);

/// Node count of the preset's traces.
std::size_t preset_nodes(Preset preset);

/// A start-time window [lo, hi] with finite bounds.
struct Window {
  double lo = 0.0;
  double hi = 0.0;
};

/// What the benchmark keeps of a delay-CDF answer: a bitwise digest of
/// every value a user sees, plus the counters the ledger reads.
struct CdfAnswer {
  /// FNV-1a over the bit patterns of the grid, every per-hop and
  /// unbounded CDF value, the denominator, the fixpoint level, the
  /// convergence flag and the 0.01-diameter.
  std::uint64_t digest = 0;
  int diameter = 0;
  std::uint64_t pairs_integrated = 0;
};

struct GraphImpl;

/// An odtn TemporalGraph, owned (parsed or constructed) or a zero-copy
/// view of snapshot bytes.
class Graph {
 public:
  Graph();
  explicit Graph(std::unique_ptr<GraphImpl> impl);
  Graph(Graph&&) noexcept;
  Graph& operator=(Graph&&) noexcept;
  ~Graph();

  std::size_t num_nodes() const;
  std::size_t num_contacts() const;
  double start_time() const;
  double end_time() const;

  const GraphImpl& impl() const { return *impl_; }
  GraphImpl& impl() { return *impl_; }

 private:
  std::unique_ptr<GraphImpl> impl_;
};

/// A generated workload trace: the graph as generated, plus the bytes
/// the program under test receives.
struct GeneratedTrace {
  Graph graph;
  /// The preset's experimental devices under the relabelling, ascending.
  std::vector<std::uint32_t> internal_nodes;
  /// write_trace output: three header lines, then one contact per line
  /// in the graph's canonical contact order.
  std::string text;
  /// encode_snapshot output (only when requested).
  std::vector<std::uint8_t> snapshot;
};

/// Generates the preset's trace with its canonical seed and renames node
/// i to labels[i] (a permutation of the preset's nodes).
GeneratedTrace generate_trace(Preset preset,
                              const std::vector<std::uint32_t>& labels,
                              bool with_snapshot);

/// Parses trace text (read_trace, strict). Builds no index.
Graph parse_trace(std::string_view text);

/// Forces the lazily built per-node indexes the engines walk.
void build_index(const Graph& graph);

/// Adopts snapshot bytes as a zero-copy graph view (decode_snapshot).
Graph decode_snapshot(std::shared_ptr<const std::vector<std::uint8_t>> bytes);

/// A fresh owned graph over the first `num_contacts` contacts of `graph`
/// (TemporalGraph constructor), e.g. the prefix a live feed ingested.
Graph prefix_graph(const Graph& graph, std::size_t num_contacts);

struct CdfRequest {
  std::vector<double> grid;
  int max_hops = 10;
  /// Sources and destinations; empty = every node. Relays are never
  /// restricted.
  std::vector<std::uint32_t> endpoints;
  /// 0 = the shared pool (one worker per hardware thread).
  unsigned threads = 0;
  /// Absent = the whole trace span.
  std::optional<Window> window;
  /// Full re-integration at every hop budget (the accumulation order the
  /// live engine replays); the default is the hop-incremental scheme.
  bool direct_accumulation = false;
};

/// compute_delay_cdf.
CdfAnswer all_pairs_cdf(const Graph& graph, const CdfRequest& request);

/// SingleSourceEngine counters (cumulative since construction, except
/// arena_bytes_peak, which is a running maximum).
struct EngineCounters {
  std::uint64_t extensions = 0;
  std::uint64_t pairs_kept = 0;
  std::uint64_t pairs_dominated = 0;
  std::uint64_t arena_bytes_peak = 0;
};

struct EngineImpl;

/// One recycled single-source engine (the production pooled mode).
class Engine {
 public:
  explicit Engine(const Graph& graph);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// reset(source) followed by track_changes(true).
  void start(std::uint32_t source);
  /// One hop level; false once the fixpoint is reached.
  bool step();
  EngineCounters counters() const;

 private:
  std::unique_ptr<EngineImpl> impl_;
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

struct ServerImpl;

/// A QueryEngine with its result cache.
class Server {
 public:
  /// `cache` = false gives a cache-less engine whose every answer is
  /// computed cold.
  Server(Graph graph, std::vector<double> grid, int max_hops, bool cache);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  CdfAnswer source_cdf(std::uint32_t source, std::optional<Window> window);
  CdfAnswer all_pairs(std::optional<Window> window);
  std::size_t reachable_count(std::uint32_t source, double t) const;
  /// Digest of the journey optima (fastest duration and departure,
  /// shortest hop count).
  std::uint64_t journey(std::uint32_t source, std::uint32_t destination) const;
  CacheCounters cache_stats() const;

 private:
  std::unique_ptr<ServerImpl> impl_;
};

struct LiveImpl;

/// A LiveIngestSession over the whole trace span.
class LiveSession {
 public:
  LiveSession(std::vector<double> grid, int max_hops);
  ~LiveSession();
  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  void feed(std::string_view bytes);
  void commit_epoch();
  /// engine()->all_pairs() over everything ingested so far.
  CdfAnswer all_pairs();
  std::uint64_t below_watermark_drops() const;

 private:
  std::unique_ptr<LiveImpl> impl_;
};

}  // namespace perfbench
