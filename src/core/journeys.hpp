// The three classic journey-optimality notions in temporal networks
// (Bui-Xuan, Ferreira & Jarry [1], cited in paper §2/§4.4):
//
//   FOREMOST: arrive as early as possible from a given start time
//             (= the delivery function del(t) of §4.3);
//   FASTEST:  minimize the journey's own duration (arrival - departure),
//             regardless of when it happens;
//   SHORTEST: use as few hops as possible, regardless of time.
//
// Fastest and shortest fall out of the library's Pareto frontiers:
// fastest is the minimum of max(0, EA - LD) over the frontier, and
// shortest is the first hop level at which the destination becomes
// reachable at all. Foremost is a point query on del, which hop-bounded
// flooding (sim/flooding.hpp) answers without the frontiers. This header
// packages them as a single per-source analysis.
#pragma once

#include <limits>
#include <vector>

#include "core/optimal_paths.hpp"
#include "core/temporal_graph.hpp"

namespace odtn {

/// Journey optima from one source to one destination.
struct JourneyOptima {
  /// Minimum achievable journey duration (0 when a fully
  /// contemporaneous connection exists at some instant);
  /// +infinity when the destination is never reachable.
  double fastest_duration = std::numeric_limits<double>::infinity();

  /// Departure time of one fastest journey (meaningful when reachable).
  double fastest_departure = 0.0;

  /// Minimum number of hops of ANY journey, at any time; 0 for the
  /// source itself, -1 when unreachable.
  int shortest_hops = -1;

  bool reachable() const noexcept { return shortest_hops >= 0; }
};

/// Per-destination journey optima from `source`. Runs the hop-indexed
/// engine once (shortest hops are read off the level at which each
/// destination first becomes reachable; fastest journeys off the final
/// frontier).
std::vector<JourneyOptima> compute_journeys(const TemporalGraph& graph,
                                            NodeId source,
                                            int max_levels = 64);

/// Same, on a caller-owned engine over `graph` at hop 0 (just built or
/// reset to the journeys' source), so a server can recycle one engine
/// workspace across queries. Throws std::logic_error if the engine
/// already stepped.
std::vector<JourneyOptima> compute_journeys(const TemporalGraph& graph,
                                            SingleSourceEngine& engine,
                                            int max_levels = 64);

/// Foremost arrival: earliest delivery at `destination` of a message
/// created at `start_time` with at most `max_levels` contacts (the
/// engine's del(t), computed by flooding; provided for API symmetry
/// with the other two notions).
double foremost_arrival(const TemporalGraph& graph, NodeId source,
                        NodeId destination, double start_time,
                        int max_levels = 64);

}  // namespace odtn
