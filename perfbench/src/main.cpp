// perfbench: the odtn end-to-end benchmark, one workload per process.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// Prints one line per metric ("name value unit"), the output checks, and
// as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ledger (and writes the spans to --spans when given). Exit code 0 when
// a result was printed, 2 on a usage error, 1 when the run broke off.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\nworkloads:\n",
               why);
  for (const perfbench::Workload& w : perfbench::workloads())
    std::fprintf(stderr, "  %s\n", w.name);
  return 2;
}

void print_json(const Report& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const Metric& m : trace ? r.per_layer : r.end_to_end) {
    std::printf("%s\"%s\": {\"value\": ", sep, m.name.c_str());
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      opt.seed_given = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds >= 0.0)) return usage("--seconds must be >= 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str()))
      return usage(("bad number for " + arg).c_str());
  }
  for (const perfbench::Workload& w : perfbench::workloads()) {
    if (workload != w.name) continue;
    try {
      const Report r = w.run(opt);
      std::printf("workload %s seed %llu%s\n", w.name,
                  static_cast<unsigned long long>(r.seed),
                  opt.trace ? " (traced)" : "");
      for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
      for (const Metric& m : opt.trace ? r.per_layer : r.end_to_end)
        std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      std::printf("  %-30s %.6g ratio\n", "failed_ratio",
                  static_cast<double>(r.failed) /
                      static_cast<double>(r.attempted ? r.attempted : 1));
      print_json(r, opt.trace);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name, e.what());
      return 1;
    }
  }
  return usage(workload.empty() ? "--workload is required"
                                : ("unknown workload " + workload).c_str());
}
