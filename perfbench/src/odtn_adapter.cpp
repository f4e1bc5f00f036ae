// The only benchmark file that includes odtn headers; see the header.
#include "odtn_adapter.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <sstream>
#include <streambuf>
#include <stdexcept>

#include "core/diameter.hpp"
#include "core/incremental_engine.hpp"
#include "core/optimal_paths.hpp"
#include "core/query_engine.hpp"
#include "core/temporal_graph.hpp"
#include "trace/datasets.hpp"
#include "trace/live_ingest.hpp"
#include "trace/snapshot.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

struct GraphImpl {
  odtn::TemporalGraph graph;
};

namespace {

odtn::DatasetPreset preset_of(Preset preset) {
  switch (preset) {
    case Preset::kInfocom05: return odtn::dataset_infocom05();
    case Preset::kInfocom06: return odtn::dataset_infocom06();
    case Preset::kRealityMining: return odtn::dataset_reality_mining();
  }
  throw std::invalid_argument("unknown preset");
}

Graph wrap(odtn::TemporalGraph graph) {
  return Graph(std::make_unique<GraphImpl>(GraphImpl{std::move(graph)}));
}

class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

CdfAnswer answer_of(const odtn::DelayCdfResult& r) {
  CdfAnswer a;
  a.diameter = r.diameter(0.01);
  a.pairs_integrated = r.stats.cdf_pairs_integrated;
  Fnv1a h;
  h.add(r.grid);
  h.add(static_cast<std::uint64_t>(r.cdf_by_hops.size()));
  for (const std::vector<double>& cdf : r.cdf_by_hops) h.add(cdf);
  h.add(r.cdf_unbounded);
  h.add(r.denominator);
  h.add(static_cast<std::uint64_t>(r.fixpoint_hops));
  h.add(static_cast<std::uint64_t>(r.converged));
  h.add(static_cast<std::uint64_t>(a.diameter));
  a.digest = h.value();
  return a;
}

}  // namespace

std::uint64_t canonical_seed(Preset preset) { return preset_of(preset).seed; }

std::size_t preset_nodes(Preset preset) {
  const odtn::SyntheticTraceSpec spec = preset_of(preset).spec;
  return spec.num_internal + spec.num_external;
}

Graph::Graph() = default;
Graph::Graph(std::unique_ptr<GraphImpl> impl) : impl_(std::move(impl)) {}
Graph::Graph(Graph&&) noexcept = default;
Graph& Graph::operator=(Graph&&) noexcept = default;
Graph::~Graph() = default;

std::size_t Graph::num_nodes() const { return impl_->graph.num_nodes(); }
std::size_t Graph::num_contacts() const { return impl_->graph.num_contacts(); }
double Graph::start_time() const { return impl_->graph.start_time(); }
double Graph::end_time() const { return impl_->graph.end_time(); }

GeneratedTrace generate_trace(Preset preset,
                              const std::vector<std::uint32_t>& labels,
                              bool with_snapshot) {
  const odtn::DatasetPreset p = preset_of(preset);
  const odtn::SyntheticTrace generated = odtn::generate_trace(p.spec, p.seed);
  const odtn::TemporalGraph& g = generated.graph;
  if (labels.size() != g.num_nodes())
    throw std::invalid_argument("generate_trace: one label per node needed");
  std::vector<odtn::Contact> contacts = g.contacts_vector();
  for (odtn::Contact& c : contacts) {
    c.u = labels[c.u];
    c.v = labels[c.v];
  }
  odtn::TemporalGraph relabelled(g.num_nodes(), std::move(contacts),
                                 g.directed());
  GeneratedTrace out;
  std::ostringstream text;
  odtn::write_trace(text, relabelled);
  out.text = std::move(text).str();
  if (with_snapshot) out.snapshot = odtn::encode_snapshot(relabelled);
  for (const odtn::NodeId v : generated.internal_nodes())
    out.internal_nodes.push_back(labels[v]);
  std::sort(out.internal_nodes.begin(), out.internal_nodes.end());
  out.graph = wrap(std::move(relabelled));
  return out;
}

Graph parse_trace(std::string_view text) {
  // A read-only stream over the caller's bytes: no copy of the text.
  struct ViewBuf : std::streambuf {
    explicit ViewBuf(std::string_view v) {
      char* p = const_cast<char*>(v.data());
      setg(p, p, p + v.size());
    }
  } buf(text);
  std::istream in(&buf);
  return wrap(odtn::read_trace(in));
}

void build_index(const Graph& graph) {
  if (graph.num_nodes() > 0) (void)graph.impl().graph.neighbors_by_end(0);
}

Graph decode_snapshot(std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  return wrap(odtn::decode_snapshot(std::move(bytes)));
}

Graph prefix_graph(const Graph& graph, std::size_t num_contacts) {
  const odtn::TemporalGraph& g = graph.impl().graph;
  const std::span<const odtn::Contact> all = g.contacts();
  if (num_contacts > all.size())
    throw std::invalid_argument("prefix_graph: prefix longer than the trace");
  return wrap(odtn::TemporalGraph(
      g.num_nodes(), {all.begin(), all.begin() + num_contacts}, g.directed()));
}

CdfAnswer all_pairs_cdf(const Graph& graph, const CdfRequest& request) {
  odtn::DelayCdfOptions o;
  o.grid = request.grid;
  o.max_hops = request.max_hops;
  o.endpoints.assign(request.endpoints.begin(), request.endpoints.end());
  o.num_threads = request.threads;
  if (request.window) {
    o.t_lo = request.window->lo;
    o.t_hi = request.window->hi;
  }
  if (request.direct_accumulation)
    o.accumulation = odtn::CdfAccumulation::kDirect;
  return answer_of(odtn::compute_delay_cdf(graph.impl().graph, o));
}

struct EngineImpl {
  explicit EngineImpl(const odtn::TemporalGraph& graph) : engine(graph, 0) {}
  odtn::SingleSourceEngine engine;
};

Engine::Engine(const Graph& graph)
    : impl_(std::make_unique<EngineImpl>(graph.impl().graph)) {}
Engine::~Engine() = default;

void Engine::start(std::uint32_t source) {
  impl_->engine.reset(source);
  impl_->engine.track_changes(true);
}

bool Engine::step() { return impl_->engine.step(); }

EngineCounters Engine::counters() const {
  const odtn::EngineStats& s = impl_->engine.stats();
  return {s.contacts_examined, s.pairs_inserted, s.pairs_dominated,
          s.arena_bytes_peak};
}

struct ServerImpl {
  ServerImpl(odtn::TemporalGraph graph, odtn::QueryEngineOptions options)
      : engine(std::move(graph), std::move(options)) {}
  odtn::QueryEngine engine;
};

Server::Server(Graph graph, std::vector<double> grid, int max_hops,
               bool cache) {
  odtn::QueryEngineOptions o;
  o.grid = std::move(grid);
  o.max_hops = max_hops;
  if (!cache) o.cache_bytes = 0;
  impl_ = std::make_unique<ServerImpl>(std::move(graph.impl().graph),
                                       std::move(o));
}
Server::~Server() = default;

CdfAnswer Server::source_cdf(std::uint32_t source,
                             std::optional<Window> window) {
  return answer_of(window ? impl_->engine.source_cdf(source, window->lo,
                                                     window->hi)
                          : impl_->engine.source_cdf(source));
}

CdfAnswer Server::all_pairs(std::optional<Window> window) {
  return answer_of(window ? impl_->engine.all_pairs(window->lo, window->hi)
                          : impl_->engine.all_pairs());
}

std::size_t Server::reachable_count(std::uint32_t source, double t) const {
  return impl_->engine.reachable_count(source, t);
}

std::uint64_t Server::journey(std::uint32_t source,
                              std::uint32_t destination) const {
  const odtn::JourneyOptima j = impl_->engine.journey(source, destination);
  Fnv1a h;
  h.add(j.fastest_duration);
  h.add(j.fastest_departure);
  h.add(static_cast<std::uint64_t>(j.shortest_hops));
  return h.value();
}

CacheCounters Server::cache_stats() const {
  const odtn::LruCacheStats s = impl_->engine.cache_stats();
  return {s.hits, s.misses, s.evictions};
}

struct LiveImpl {
  explicit LiveImpl(odtn::IncrementalCdfOptions options)
      : session(std::move(options)) {}
  odtn::LiveIngestSession session;
};

LiveSession::LiveSession(std::vector<double> grid, int max_hops) {
  odtn::IncrementalCdfOptions o;
  o.grid = std::move(grid);
  o.max_hops = max_hops;
  impl_ = std::make_unique<LiveImpl>(std::move(o));
}
LiveSession::~LiveSession() = default;

void LiveSession::feed(std::string_view bytes) {
  impl_->session.feed(bytes.data(), bytes.size());
}

void LiveSession::commit_epoch() { (void)impl_->session.commit_epoch(); }

CdfAnswer LiveSession::all_pairs() {
  odtn::IncrementalAllPairsEngine* engine = impl_->session.engine();
  if (engine == nullptr)
    throw std::logic_error("LiveSession::all_pairs before the first commit");
  return answer_of(engine->all_pairs());
}

std::uint64_t LiveSession::below_watermark_drops() const {
  return impl_->session.stats().below_watermark;
}

}  // namespace perfbench
