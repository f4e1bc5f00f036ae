// Unit tests of the benchmark itself (not of odtn):
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "sample_stats.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(SampleStats, PercentileInterpolatesLinearly) {
  const std::vector<double> v = {5, 1, 4, 2, 3};  // sorted: 1 2 3 4 5
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 10}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({7}, 0.9), 7.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(SampleStats, QuartilesMatchPythonExclusiveMethod) {
  // Expected values from Python's statistics.quantiles(data, n=4).
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q10[0], 2.75);
  EXPECT_DOUBLE_EQ(q10[1], 5.5);
  EXPECT_DOUBLE_EQ(q10[2], 8.25);
  const auto q2 = quartiles({3, 1});
  EXPECT_DOUBLE_EQ(q2[0], 0.5);
  EXPECT_DOUBLE_EQ(q2[1], 2.0);
  EXPECT_DOUBLE_EQ(q2[2], 3.5);
  const auto q5 = quartiles({10, 20, 40, 80, 160});
  EXPECT_DOUBLE_EQ(q5[0], 15.0);
  EXPECT_DOUBLE_EQ(q5[1], 40.0);
  EXPECT_DOUBLE_EQ(q5[2], 120.0);
  EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // Root [0, 10]; children [1, 4] and [3, 6] overlap (union 5 s), and
  // [9, 12] sticks out of the root (1 s inside it). A grandchild does
  // not count against the root.
  const std::vector<SpanRecord> spans = {
      {"a.root", 0, 10, -1, 0},  {"b.one", 1, 4, 0, 0},
      {"b.two", 3, 6, 0, 0},     {"c.late", 9, 12, 0, 0},
      {"d.grandchild", 1, 2, 1, 0},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  const auto layers = layer_self_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("a"), 4.0);
  EXPECT_DOUBLE_EQ(layers.at("b"), 5.0);
  EXPECT_EQ(durations(spans, "b.two"), std::vector<double>{3.0});
}

TEST(Spans, DisabledTracerStillTimes) {
  Tracer tracer;
  Span span(tracer, "x.y", 0);
  EXPECT_EQ(span.id(), -1);
  EXPECT_GE(span.stop(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());
  tracer.set_enabled(true);
  {
    Span parent(tracer, "x.parent", 1);
    Span child(tracer, "x.child", 1, parent.id());
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_LE(tracer.spans()[1].end, tracer.spans()[0].end);
}

TEST(Inputs, SameSeedSameBytes) {
  EXPECT_EQ(input_bytes(make_serve_inputs(11)), input_bytes(make_serve_inputs(11)));
  EXPECT_NE(input_bytes(make_serve_inputs(11)), input_bytes(make_serve_inputs(12)));
  EXPECT_EQ(input_bytes(make_live_inputs(11)), input_bytes(make_live_inputs(11)));
  EXPECT_NE(input_bytes(make_live_inputs(11)), input_bytes(make_live_inputs(12)));
  EXPECT_EQ(input_bytes(make_batch_inputs(11)), input_bytes(make_batch_inputs(11)));
}

TEST(Inputs, ServeMixHasTheDesignedShape) {
  const ServeInputs in = make_serve_inputs(5);
  int repeats = 0, firsts = 0, all_pairs = 0, others = 0;
  for (const Query& q : in.queries) {
    if (q.kind == QueryKind::kAllPairs) ++all_pairs;
    else if (q.kind != QueryKind::kSourceCdf) ++others;
    else if (q.repeat) ++repeats;
    else ++firsts;
  }
  EXPECT_EQ(repeats, 30);
  EXPECT_EQ(firsts, 40);
  EXPECT_EQ(all_pairs, 4);
  EXPECT_EQ(others, 46);
  ASSERT_EQ(in.windows.size(), 4u);
  EXPECT_FALSE(in.windows[0].has_value());
}

// Seeds rename nodes; they must not change which questions are asked.
TEST(Inputs, ServeMixIsTheSameUpToRenaming) {
  const ServeInputs a = make_serve_inputs(5);
  const ServeInputs b = make_serve_inputs(6);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  int renamed = 0;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const Query& qa = a.queries[i];
    const Query& qb = b.queries[i];
    EXPECT_EQ(qa.kind, qb.kind);
    EXPECT_EQ(qa.window, qb.window);
    EXPECT_EQ(qa.t, qb.t);
    EXPECT_EQ(qa.repeat, qb.repeat);
    renamed += qa.source != qb.source;
  }
  EXPECT_GT(renamed, 0);
}

TEST(Inputs, LiveFeedSplitsEveryContactOnce) {
  const LiveInputs in = make_live_inputs(3);
  ASSERT_FALSE(in.epochs.empty());
  EXPECT_EQ(in.contacts_after.back(), in.trace.graph.num_contacts());
  std::size_t lines = 0;
  for (const std::string& e : in.epochs)
    for (const char c : e) lines += c == '\n';
  EXPECT_EQ(in.backlog_contacts + lines, in.trace.graph.num_contacts());
}

// The benchmark may only use library surface the project keeps. These
// names are deleted or reshaped by planned refactors (the fragments are
// split so this file does not match itself).
TEST(Sources, NameNoRetiredApi) {
  const std::vector<std::string> banned = {
      std::string("source") + "_batch",   std::string("shard") + "ing",
      std::string("Sharded") + "Engine",  std::string("sharded") + "_engine",
      std::string("Shard") + "Request",   std::string("k") + "Indexed",
      std::string("Batched") + "Source",  std::string("batched") + "_engine",
      std::string("process") + "_source", std::string("kWhole") + "Span",
      std::string("quiet") + "_NaN",      std::string("NA") + "N(",
  };
  const std::filesystem::path root = PERFBENCH_DIR;
  int scanned = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    const std::string name = entry.path().filename().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".py" && name != "CMakeLists.txt")
      continue;
    std::ifstream f(entry.path());
    std::stringstream text;
    text << f.rdbuf();
    ++scanned;
    for (const std::string& b : banned)
      EXPECT_EQ(text.str().find(b), std::string::npos)
          << entry.path() << " names " << b;
  }
  EXPECT_GE(scanned, 10);
}

}  // namespace
}  // namespace perfbench
