// Benchmark-side tracing: spans recorded around the calls into each odtn
// layer, kept in memory and written out when the run ends.
//
// A span's name is "<layer>.<operation>"; the layer is the part before
// the first dot. A layer's self time is its spans' durations minus the
// parts of those intervals their child spans cover.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string "<layer>.<operation>"
  double start = 0.0;     ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  long request = 0;  ///< shared by every span of one request
};

class Tracer {
 public:
  Tracer();

  /// Seconds since construction (steady clock).
  double now() const;

  /// Recording is switched per pass, so one run can alternate traced
  /// and untraced passes and compare them.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index, or -1 when disabled.
  int open(const char* name, long request, int parent);
  void close(int id, double end);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
};

/// Times one call. The clock is read whether or not the tracer records,
/// so the untraced passes measure their latencies the same way.
class Span {
 public:
  Span(Tracer& tracer, const char* name, long request, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Index to pass as a child's parent (-1 when not recording).
  int id() const { return id_; }
  /// Ends the span now (idempotent) and returns its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  int id_;
  double start_;
  double elapsed_ = -1.0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// Self time summed per layer.
std::map<std::string, double> layer_self_times(
    const std::vector<SpanRecord>& spans);

/// Durations of the spans with exactly this name, in recording order.
std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name);

/// Writes the spans and the per-layer self times as one JSON document.
/// Returns false when the file cannot be written.
bool write_spans_json(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace perfbench
