#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kMinute = 60.0;
constexpr double kDay = 86400.0;

// Serve mix, per pass. Sorted by latency the mix is: repeats (cache hits,
// tens of microseconds, most of it the pool waking its workers), then
// first-time source CDFs, reach and journey queries (14 to 22 ms each),
// then the four all_pairs (hundreds of ms). p50 sits at rank 60 of 120,
// 30 ranks inside the 86 single-source engine queries; p90 sits at rank
// 108, 8 ranks below the all_pairs. Neither falls among the hits, whose
// latency is mostly the host's scheduler (see the README). First-time
// CDFs stay below the 41 internal devices, so one cold window always
// has a source left to ask.
constexpr int kRepeatCdfs = 30;
constexpr int kFirstCdfs = 40;
constexpr int kReaches = 23;
constexpr int kJourneys = 23;
constexpr int kWindows = 4;  // whole span + three days

constexpr double kBacklogShare = 0.9;
constexpr std::size_t kEpochContacts = 64;

/// SplitMix64: a fixed, portable generator, so inputs do not depend on
/// the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(1) over `nodes`, popularity ranks assigned by a seeded
/// permutation.
class ZipfNodes {
 public:
  ZipfNodes(std::vector<std::uint32_t> nodes, Rng& rng)
      : rank_to_node_(std::move(nodes)), cdf_(rank_to_node_.size()) {
    rng.shuffle(rank_to_node_);
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r)
      cdf_[r] = total += 1.0 / double(r + 1);
  }
  std::uint32_t draw(Rng& rng) const {
    const double u = rng.uniform() * cdf_.back();
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_node_[std::min(r, cdf_.size() - 1)];
  }

 private:
  std::vector<std::uint32_t> rank_to_node_;
  std::vector<double> cdf_;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  return lines;
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void append_doubles(std::string& out, const std::vector<double>& v) {
  for (const double x : v) append_pod(out, x);
}

/// Sources are the experimental devices: a single-source query from one
/// of them costs about ten times one from an external device, so drawing
/// from both would make p90 depend on how many were picked. The mix is
/// drawn once, in the canonical node names, and renamed by `labels`, so
/// every seed asks the same questions of the same (renamed) trace.
std::vector<Query> make_query_mix(const GeneratedTrace& trace,
                                  const std::vector<std::uint32_t>& labels) {
  Rng rng(canonical_seed(Preset::kInfocom05) ^ 0x5E2E0000C0FFEEull);
  const Graph& graph = trace.graph;
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint32_t> canonical_of(n);
  for (std::size_t i = 0; i < n; ++i)
    canonical_of[labels[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> internal;
  for (const std::uint32_t v : trace.internal_nodes)
    internal.push_back(canonical_of[v]);
  std::sort(internal.begin(), internal.end());
  const ZipfNodes zipf(std::move(internal), rng);

  enum class Slot { kRepeat, kFirst, kReach, kJourney };
  std::vector<Slot> slots;
  slots.insert(slots.end(), kRepeatCdfs, Slot::kRepeat);
  slots.insert(slots.end(), kFirstCdfs, Slot::kFirst);
  slots.insert(slots.end(), kReaches, Slot::kReach);
  slots.insert(slots.end(), kJourneys, Slot::kJourney);
  rng.shuffle(slots);
  // A repeat needs something asked before it.
  const auto first_repeat = std::find(slots.begin(), slots.end(), Slot::kRepeat);
  const auto first_first = std::find(slots.begin(), slots.end(), Slot::kFirst);
  if (first_repeat < first_first) std::iter_swap(first_repeat, first_first);
  const std::size_t last_first = static_cast<std::size_t>(
      slots.rend() - std::find(slots.rbegin(), slots.rend(), Slot::kFirst) - 1);

  // One all_pairs per window, inserted before slot positions[i]. The
  // last lands after the last first-time CDF, so every first-time CDF
  // still has an un-warmed window to draw from.
  std::vector<int> window_order(kWindows);
  for (int w = 0; w < kWindows; ++w) window_order[w] = w;
  rng.shuffle(window_order);
  std::vector<std::size_t> positions;
  for (int i = 0; i + 1 < kWindows; ++i)
    positions.push_back(rng.below(slots.size() + 1));
  positions.push_back(last_first + 1 + rng.below(slots.size() - last_first));
  std::sort(positions.begin(), positions.end());

  std::vector<std::uint8_t> asked(n * kWindows, 0);
  std::vector<std::uint8_t> warmed(kWindows, 0);
  const auto is_cached = [&](std::uint32_t s, int w) {
    return warmed[w] || asked[s * kWindows + w];
  };
  std::vector<Query> out;
  std::size_t next_all_pairs = 0;
  const double t0 = graph.start_time();
  const double span = graph.end_time() - t0;
  for (std::size_t i = 0; i <= slots.size(); ++i) {
    while (next_all_pairs < positions.size() && positions[next_all_pairs] == i) {
      Query q;
      q.kind = QueryKind::kAllPairs;
      q.window = window_order[next_all_pairs++];
      warmed[q.window] = 1;
      out.push_back(q);
    }
    if (i == slots.size()) break;
    Query q;
    q.source = zipf.draw(rng);
    switch (slots[i]) {
      case Slot::kRepeat: {
        q.repeat = true;
        q.window = static_cast<int>(rng.below(kWindows));
        int tries = 0;
        while (!is_cached(q.source, q.window) && ++tries < 100000) {
          q.source = zipf.draw(rng);
          q.window = static_cast<int>(rng.below(kWindows));
        }
        if (!is_cached(q.source, q.window))
          throw std::logic_error("serve mix: no repeatable query");
        break;
      }
      case Slot::kFirst: {
        std::vector<int> cold;
        for (int w = 0; w < kWindows; ++w)
          if (!warmed[w]) cold.push_back(w);
        q.window = cold[rng.below(cold.size())];
        while (asked[q.source * kWindows + q.window]) {
          q.source = zipf.draw(rng);
          q.window = cold[rng.below(cold.size())];
        }
        asked[q.source * kWindows + q.window] = 1;
        break;
      }
      case Slot::kReach:
        q.kind = QueryKind::kReach;
        q.t = t0 + rng.uniform() * span;
        break;
      case Slot::kJourney:
        q.kind = QueryKind::kJourney;
        q.destination = static_cast<std::uint32_t>(rng.below(n - 1));
        if (q.destination >= q.source) ++q.destination;
        break;
    }
    out.push_back(q);
  }
  for (Query& q : out) {
    q.source = labels[q.source];
    q.destination = labels[q.destination];
  }
  return out;
}

/// The node names under `seed`: a seeded permutation of the preset's
/// nodes, the identity for the canonical seed. See the header for why
/// the seed does not pick the generator's seed.
std::vector<std::uint32_t> node_labels(Preset preset, std::uint64_t seed) {
  std::vector<std::uint32_t> labels(preset_nodes(preset));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::uint32_t>(i);
  if (seed != canonical_seed(preset)) {
    Rng rng(seed);
    rng.shuffle(labels);
  }
  return labels;
}

}  // namespace

std::vector<double> log_grid(double lo, double hi, std::size_t points) {
  if (!(lo > 0.0 && hi > lo && points >= 2))
    throw std::invalid_argument("log_grid: need 0 < lo < hi, 2+ points");
  std::vector<double> g(points);
  const double a = std::log(lo);
  const double step = (std::log(hi) - a) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i)
    g[i] = std::exp(a + step * static_cast<double>(i));
  g.front() = lo;
  g.back() = hi;
  return g;
}

BatchInputs make_batch_inputs(std::uint64_t seed) {
  BatchInputs in;
  in.trace = generate_trace(Preset::kInfocom06,
                            node_labels(Preset::kInfocom06, seed), false);
  const Graph& g = in.trace.graph;
  const double duration = g.end_time() - g.start_time();
  in.request.grid = log_grid(2 * kMinute, std::max(duration, 4 * kMinute), 40);
  in.request.max_hops = 12;
  in.request.endpoints = in.trace.internal_nodes;
  return in;
}

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  const std::vector<std::uint32_t> labels = node_labels(Preset::kInfocom05, seed);
  in.trace = generate_trace(Preset::kInfocom05, labels, true);
  const Graph& g = in.trace.graph;
  const double t0 = g.start_time();
  const double span = g.end_time() - t0;
  in.grid = log_grid(2 * kMinute, std::max(span, 4 * kMinute), 40);
  in.windows.push_back(std::nullopt);
  for (int d = 0; d < kWindows - 1; ++d)
    in.windows.push_back(Window{t0 + span * d / (kWindows - 1),
                                t0 + span * (d + 1) / (kWindows - 1)});
  in.queries = make_query_mix(in.trace, labels);
  return in;
}

LiveInputs make_live_inputs(std::uint64_t seed) {
  LiveInputs in;
  in.trace = generate_trace(Preset::kRealityMining,
                            node_labels(Preset::kRealityMining, seed), false);
  in.grid = log_grid(2 * kMinute, 7 * kDay, 40);
  std::vector<std::string> lines = split_lines(in.trace.text);
  std::size_t header = 0;
  while (header < lines.size() && lines[header].starts_with("#")) ++header;
  const std::size_t contacts = lines.size() - header;
  if (contacts != in.trace.graph.num_contacts())
    throw std::logic_error("live feed: one line per contact expected");
  in.backlog_contacts =
      static_cast<std::size_t>(kBacklogShare * static_cast<double>(contacts));
  for (std::size_t i = 0; i < header + in.backlog_contacts; ++i)
    in.backlog += lines[i];
  for (std::size_t at = in.backlog_contacts; at < contacts;
       at += kEpochContacts) {
    const std::size_t end = std::min(at + kEpochContacts, contacts);
    std::string chunk;
    for (std::size_t i = at; i < end; ++i) chunk += lines[header + i];
    in.epochs.push_back(std::move(chunk));
    in.contacts_after.push_back(end);
  }
  return in;
}

std::string input_bytes(const BatchInputs& in) {
  std::string out = in.trace.text;
  append_doubles(out, in.request.grid);
  append_pod(out, in.request.max_hops);
  for (const std::uint32_t e : in.request.endpoints) append_pod(out, e);
  return out;
}

std::string input_bytes(const ServeInputs& in) {
  std::string out(in.trace.snapshot.begin(), in.trace.snapshot.end());
  append_doubles(out, in.grid);
  append_pod(out, in.max_hops);
  for (const std::optional<Window>& w : in.windows)
    if (w) {
      append_pod(out, w->lo);
      append_pod(out, w->hi);
    }
  for (const Query& q : in.queries) {
    append_pod(out, q.kind);
    append_pod(out, q.source);
    append_pod(out, q.destination);
    append_pod(out, q.window);
    append_pod(out, q.t);
    append_pod(out, q.repeat);
  }
  return out;
}

std::string input_bytes(const LiveInputs& in) {
  std::string out = in.backlog;
  for (const std::string& e : in.epochs) out += e;
  append_doubles(out, in.grid);
  append_pod(out, in.max_hops);
  return out;
}

}  // namespace perfbench
