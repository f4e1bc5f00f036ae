#include "core/reachability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/optimal_paths.hpp"
#include "sim/flooding.hpp"
#include "util/time_format.hpp"

namespace odtn {

std::vector<std::vector<double>> last_departure_matrix(
    const TemporalGraph& graph, int max_levels) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::vector<double>> matrix(
      n, std::vector<double>(n, -std::numeric_limits<double>::infinity()));
  for (NodeId src = 0; src < n; ++src) {
    SingleSourceEngine engine(graph, src);
    engine.run_to_fixpoint(max_levels);
    for (NodeId dst = 0; dst < n; ++dst)
      matrix[src][dst] = engine.frontier_view(dst).last_departure();
  }
  return matrix;
}

std::vector<double> reachability_ratio(const TemporalGraph& graph,
                                       const std::vector<double>& start_times,
                                       int max_levels) {
  const std::size_t n = graph.num_nodes();
  if (n < 2) return std::vector<double>(start_times.size(), 0.0);
  const auto matrix = last_departure_matrix(graph, max_levels);
  std::vector<double> out;
  out.reserve(start_times.size());
  for (double t : start_times) {
    std::size_t reachable = 0;
    for (NodeId s = 0; s < n; ++s)
      for (NodeId d = 0; d < n; ++d)
        if (s != d && t <= matrix[s][d]) ++reachable;
    out.push_back(static_cast<double>(reachable) /
                  static_cast<double>(n * (n - 1)));
  }
  return out;
}

std::vector<std::size_t> out_component_sizes(const TemporalGraph& graph,
                                              double start_time,
                                              int max_levels) {
  std::vector<std::size_t> sizes(graph.num_nodes(), 0);
  for (NodeId src = 0; src < graph.num_nodes(); ++src) {
    const FloodingResult f = flood(graph, src, start_time, max_levels);
    for (NodeId dst = 0; dst < graph.num_nodes(); ++dst)
      if (dst != src && std::isfinite(f.best_arrival(dst))) ++sizes[src];
  }
  return sizes;
}

std::vector<std::pair<double, double>> daily_time_windows(double t_lo,
                                                          double t_hi,
                                                          double hour_lo,
                                                          double hour_hi) {
  if (!(t_lo <= t_hi) || !(0.0 <= hour_lo) || !(hour_lo < hour_hi) ||
      !(hour_hi <= 24.0))
    throw std::invalid_argument("daily_time_windows: bad arguments");
  std::vector<std::pair<double, double>> windows;
  const double first_day = std::floor(t_lo / kDay);
  for (double day = first_day;; day += 1.0) {
    const double lo = day * kDay + hour_lo * kHour;
    const double hi = day * kDay + hour_hi * kHour;
    if (lo > t_hi) break;
    const double clipped_lo = std::max(lo, t_lo);
    const double clipped_hi = std::min(hi, t_hi);
    if (clipped_lo < clipped_hi) windows.emplace_back(clipped_lo, clipped_hi);
  }
  return windows;
}

}  // namespace odtn
