// The three workloads. Each builds its inputs from the seed, runs an
// untimed warm-up pass, then timed passes until --seconds have gone by,
// and checks its outputs after the timed phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 0;
  bool seed_given = false;  ///< false: use the preset's canonical seed
  double seconds = 20.0;
  /// Traced run: alternate traced and untraced passes, add the
  /// attribution pass, and report the per-layer ledger.
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans
};

struct Report {
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed output checks plus thrown calls
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< one line each, for people

  bool correct() const { return failed == 0; }
};

struct Workload {
  const char* name;
  Report (*run)(const RunOptions&);
};

/// paper-infocom06, serve-infocom05, live-realitymining.
const std::vector<Workload>& workloads();

}  // namespace perfbench
