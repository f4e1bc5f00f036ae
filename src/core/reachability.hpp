// Temporal reachability analysis.
//
// Complements the delay-CDF machinery with coarser connectivity
// questions: which pairs can EVER communicate from a given instant, how
// does that fraction evolve over the trace, and how large is the
// "temporal out-component" of each node. Questions about every start
// time derive from the delivery-function frontiers (one engine fixpoint
// per source); out-components from one start time need only one
// hop-bounded flood per source (sim/flooding.hpp).
#pragma once

#include <utility>
#include <vector>

#include "core/temporal_graph.hpp"

namespace odtn {

/// last_departure[s][d]: the latest message-creation time at s for
/// which SOME time-respecting path to d exists (-infinity when d is
/// never reachable from s; +infinity on the diagonal). A pair (s, d) is
/// reachable from start time t iff t <= last_departure[s][d].
std::vector<std::vector<double>> last_departure_matrix(
    const TemporalGraph& graph, int max_levels = 64);

/// Fraction of ordered pairs (s != d) reachable from each start time in
/// `start_times` -- the temporal analogue of a static graph's
/// "fraction of connected pairs", decaying to 0 at the trace end.
std::vector<double> reachability_ratio(const TemporalGraph& graph,
                                       const std::vector<double>& start_times,
                                       int max_levels = 64);

/// Sizes of every node's temporal out-component from start time t
/// (number of OTHER nodes reachable). The minimum over sources tells
/// whether the network is temporally connected from t.
std::vector<std::size_t> out_component_sizes(const TemporalGraph& graph,
                                              double start_time,
                                              int max_levels = 64);

/// Convenience for §5.3.1-style analyses: the daily windows
/// [hour_lo, hour_hi) (hours in [0, 24], hour_lo < hour_hi) intersected
/// with [t_lo, t_hi], as disjoint increasing intervals suitable for
/// DelayCdfOptions::windows.
std::vector<std::pair<double, double>> daily_time_windows(double t_lo,
                                                          double t_hi,
                                                          double hour_lo,
                                                          double hour_hi);

}  // namespace odtn
