#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::open(const char* name, long request, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, now(), 0.0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id, double end) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
}

Span::Span(Tracer& tracer, const char* name, long request, int parent)
    : tracer_(tracer),
      id_(tracer.open(name, request, parent)),
      start_(id_ >= 0 ? tracer.spans()[static_cast<std::size_t>(id_)].start
                      : tracer.now()) {}

Span::~Span() { stop(); }

double Span::stop() {
  if (elapsed_ < 0.0) {
    const double end = tracer_.now();
    tracer_.close(id_, end);
    elapsed_ = end - start_;
  }
  return elapsed_;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union built so far
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(b, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> layer_self_times(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(s.end - s.start);
  return out;
}

bool write_spans_json(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"layer_self_s\": {");
  const char* sep = "";
  for (const auto& [layer, seconds] : layer_self_times(spans)) {
    std::fprintf(f, "%s\"%s\": %.9f", sep, layer.c_str(), seconds);
    sep = ", ";
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"request\": %ld}%s\n",
                 i, s.name, s.start, s.end, s.parent, s.request,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
