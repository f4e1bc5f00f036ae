// Workload inputs, generated from --seed alone: the same seed gives the
// same bytes. The program under test only ever receives these generated
// bytes (trace text, snapshot bytes, query lists, feed chunks).
//
// The seed does not choose the trace generator's seed. Generator seeds
// change a synthetic trace's size and structure, and with them the work:
// over five generator seeds paper-infocom06's wall time spread 17%
// between quartiles, which would hide any regression smaller than that.
// Each workload instead generates its preset with the preset's canonical
// seed and renames the nodes by a permutation drawn from --seed (the
// canonical seed keeps every name). The serve query mix is drawn once
// in the canonical names and renamed the same way; the seed also draws
// which answers the checks sample. So every byte the program receives
// changes with the seed while the work stays the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "odtn_adapter.hpp"

namespace perfbench {

/// `points` log-spaced values from lo to hi inclusive (0 < lo < hi).
std::vector<double> log_grid(double lo, double hi, std::size_t points);

/// paper-infocom06: the Infocom06 preset analysed with the Figure 9
/// options (internal devices as endpoints, every node a relay, 12 hop
/// budgets) on the CLI's default grid (40 points, 2 min to the span).
struct BatchInputs {
  GeneratedTrace trace;
  CdfRequest request;  ///< threads = 0 (the shared pool)
};
BatchInputs make_batch_inputs(std::uint64_t seed);

enum class QueryKind : std::uint8_t { kSourceCdf, kAllPairs, kReach, kJourney };

struct Query {
  QueryKind kind = QueryKind::kSourceCdf;
  std::uint32_t source = 0;
  std::uint32_t destination = 0;  ///< kJourney
  int window = 0;                 ///< kSourceCdf / kAllPairs: 0 = whole span
  double t = 0.0;                 ///< kReach: message creation time
  /// kSourceCdf: whether this (source, window) was asked, or covered by
  /// an all_pairs, earlier in the mix -- a cache hit on a cold start.
  bool repeat = false;
};

/// serve-infocom05: an Infocom05 snapshot and one client's query mix,
/// replayed from a cold cache in every pass.
struct ServeInputs {
  GeneratedTrace trace;  ///< with snapshot bytes
  std::vector<double> grid;
  int max_hops = 10;
  /// Index 0 is the whole span (no explicit window); 1..3 are the days.
  std::vector<std::optional<Window>> windows;
  std::vector<Query> queries;
};
ServeInputs make_serve_inputs(std::uint64_t seed);

/// live-realitymining: the RealityMining preset as a feed. The first
/// 90% of contacts are the backlog; the rest arrive in 64-contact
/// epochs. Grid and hop budget are odtn tail's defaults.
struct LiveInputs {
  GeneratedTrace trace;
  std::vector<double> grid;
  int max_hops = 10;
  std::string backlog;              ///< headers + backlog contact lines
  std::size_t backlog_contacts = 0;
  std::vector<std::string> epochs;  ///< contact lines per epoch
  std::vector<std::size_t> contacts_after;  ///< ingested after epoch i
};
LiveInputs make_live_inputs(std::uint64_t seed);

/// The bytes each kind of input hands to the program, concatenated in a
/// fixed order (what the same-seed test compares).
std::string input_bytes(const BatchInputs& in);
std::string input_bytes(const ServeInputs& in);
std::string input_bytes(const LiveInputs& in);

}  // namespace perfbench
