#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "inputs.hpp"
#include "odtn_adapter.hpp"
#include "sample_stats.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"trace.parse_s", "s"},
    {"trace.snapshot_load_s", "s"},
    {"trace.feed_ms_p50", "ms"},
    {"graph.index_s", "s"},
    {"engine.self_s", "s"},
    {"engine.share", "ratio"},
    {"engine.source_ms_p50", "ms"},
    {"engine.source_ms_max", "ms"},
    {"engine.levels_max", "count"},
    {"engine.step_ms_p50", "ms"},
    {"engine.extensions", "count"},
    {"engine.pairs_kept", "count"},
    {"engine.pairs_dominated", "count"},
    {"engine.yield", "ratio"},
    {"engine.arena_bytes_peak", "bytes"},
    {"cdf.self_s", "s"},
    {"cdf.pairs_integrated", "count"},
    {"pool.efficiency", "ratio"},
    {"pool.cpu_inflation", "ratio"},
    {"query.hit_ratio", "ratio"},
    {"query.hits", "count"},
    {"query.misses", "count"},
    {"query.evictions", "count"},
    {"query.cdf_hit_us_p50", "us"},
    {"query.cdf_miss_ms_p50", "ms"},
    {"query.all_pairs_ms_p50", "ms"},
    {"query.reach_ms_p50", "ms"},
    {"query.journey_ms_p50", "ms"},
    {"incremental.append_ms_p50", "ms"},
    {"incremental.all_pairs_ms_p50", "ms"},
    {"incremental.pairs_integrated", "count"},
    {"incremental.bootstrap_s", "s"},
    {"ledger.coverage", "ratio"},
    {"ledger.tracing_overhead", "ratio"},
    {"ledger.traced_wall_s", "s"},
    {"warmup.first_pass_ratio", "ratio"},
};

constexpr std::size_t kMaxNotes = 20;
constexpr int kMaxLevels = 64;  // compute_delay_cdf's default level cap

double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Resident high-water mark of the process so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

void note(Report& r, std::string line) {
  if (r.notes.size() < kMaxNotes) r.notes.push_back(std::move(line));
}

/// Compares `got` with `want`; a mismatch is one failed output check.
void expect_equal(Report& r, std::uint64_t got, std::uint64_t want,
                  const std::string& what) {
  if (got == want) return;
  ++r.failed;
  note(r, "MISMATCH " + what);
}

/// Timings of one pass. `setup` and `wall` are disjoint: set-up is
/// reported as setup_s, the timed part as wall_s and cpu_s.
struct PassTimes {
  double total = 0.0;  ///< whole pass, set-up included
  double setup = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  bool traced = false;
};

struct PassLog {
  PassTimes warmup;
  std::vector<PassTimes> passes;
  double peak_rss_mb = 0.0;  ///< at the end of the timed phase

  std::vector<double> field(double PassTimes::*f, bool traced) const {
    std::vector<double> out;
    for (const PassTimes& p : passes)
      if (p.traced == traced) out.push_back(p.*f);
    return out;
  }
  double traced_total() const {
    double sum = 0.0;
    for (const PassTimes& p : passes)
      if (p.traced) sum += p.total;
    return sum;
  }
};

/// The warm-up pass (index -1, never traced), then timed passes until
/// `seconds` have gone by and at least `min_passes` ran. A traced run
/// records spans on even passes only, so its odd passes measure the same
/// work untraced. A pass that throws counts as one failed operation.
template <typename Pass>
PassLog run_passes(const RunOptions& opt, Tracer& tracer, Report& report,
                   int min_passes, Pass&& pass) {
  PassLog log;
  const auto guarded = [&](int index) -> std::optional<PassTimes> {
    try {
      // Each pass starts from a trimmed heap, so what earlier passes left
      // in the allocator's free lists does not add to its peak.
      malloc_trim(0);
      const double begin = tracer.now();
      PassTimes t = pass(index);
      t.total = tracer.now() - begin;
      t.traced = tracer.enabled();
      return t;
    } catch (const std::exception& e) {
      ++report.failed;
      note(report, "error in pass " + std::to_string(index) + ": " + e.what());
      return std::nullopt;
    }
  };
  tracer.set_enabled(false);
  if (auto t = guarded(-1)) log.warmup = *t;
  if (opt.trace) min_passes = std::max(min_passes, 4);
  const double deadline = tracer.now() + opt.seconds;
  for (int i = 0; i < min_passes || tracer.now() < deadline; ++i) {
    tracer.set_enabled(opt.trace && i % 2 == 0);
    if (auto t = guarded(i)) log.passes.push_back(*t);
  }
  tracer.set_enabled(false);
  if (log.passes.empty()) throw std::runtime_error("no pass completed");
  log.peak_rss_mb = peak_rss_mb();
  return log;
}

void add_end_to_end(Report& r, const PassLog& log,
                    const std::vector<double>& latencies_s) {
  std::string walls = "pass walls (s): warm-up " + std::to_string(log.warmup.wall);
  for (const PassTimes& p : log.passes)
    walls += (p.traced ? " t" : " ") + std::to_string(p.wall);
  note(r, walls);
  r.end_to_end = {
      {"setup_s", median(log.field(&PassTimes::setup, false)), "s"},
      {"wall_s", median(log.field(&PassTimes::wall, false)), "s"},
      {"cpu_s", median(log.field(&PassTimes::cpu, false)), "s"},
      {"latency_p50_ms", 1e3 * percentile(latencies_s, 0.5), "ms"},
      {"latency_p90_ms", 1e3 * percentile(latencies_s, 0.9), "ms"},
      {"peak_rss_mb", log.peak_rss_mb, "MB"},
  };
}

/// Fills the per-layer list from `values` (missing names read 0) plus
/// the ledger every traced run reports.
void add_per_layer(Report& r, std::map<std::string, double> values,
                   const Tracer& tracer, const PassLog& log,
                   double traced_wall) {
  double self_sum = 0.0;
  for (const auto& [layer, seconds] : layer_self_times(tracer.spans())) {
    self_sum += seconds;
    char line[128];
    std::snprintf(line, sizeof line, "layer %-12s self %10.4f s", layer.c_str(),
                  seconds);
    note(r, line);
  }
  const double untraced = median(log.field(&PassTimes::total, false));
  values["ledger.coverage"] = traced_wall > 0 ? self_sum / traced_wall : 0.0;
  values["ledger.tracing_overhead"] =
      median(log.field(&PassTimes::total, true)) / untraced;
  values["ledger.traced_wall_s"] = traced_wall;
  values["warmup.first_pass_ratio"] = log.warmup.total / untraced;
  for (const auto& [name, unit] : kLayerMetrics)
    r.per_layer.push_back({name, values[name], unit});
}

void finish_trace(Report& r, const RunOptions& opt, const Tracer& tracer) {
  if (opt.spans_path.empty()) return;
  if (write_spans_json(opt.spans_path, tracer.spans()))
    note(r, "spans written to " + opt.spans_path);
  else
    note(r, "could not write spans to " + opt.spans_path);
}

std::uint64_t seed_for(const RunOptions& opt, Preset preset) {
  return opt.seed_given ? opt.seed : canonical_seed(preset);
}

// --- paper-infocom06 ---------------------------------------------------

Report run_paper(const RunOptions& opt) {
  Report r;
  r.seed = seed_for(opt, Preset::kInfocom06);
  const BatchInputs in = make_batch_inputs(r.seed);
  Tracer tracer;
  Graph graph;
  std::vector<std::uint64_t> digests;

  const PassLog log = run_passes(opt, tracer, r, 3, [&](int i) {
    ++r.attempted;
    PassTimes t;
    {
      Span parse(tracer, "trace.parse", i);
      graph = parse_trace(in.trace.text);
      t.setup = parse.stop();
    }
    {
      Span index(tracer, "graph.index", i);
      build_index(graph);
      t.setup += index.stop();
    }
    const double cpu0 = cpu_seconds();
    Span request(tracer, "pool.all_pairs", i);
    digests.push_back(all_pairs_cdf(graph, in.request).digest);
    t.wall = request.stop();
    t.cpu = cpu_seconds() - cpu0;
    return t;
  });
  add_end_to_end(r, log, log.field(&PassTimes::wall, false));

  // The reference: the same request on one thread, after the timed
  // phase. A traced run also splits that thread's time between the
  // engine and the rest of compute_delay_cdf.
  CdfRequest one_thread = in.request;
  one_thread.threads = 1;
  std::map<std::string, double> layer;
  double traced_wall = log.traced_total();
  tracer.set_enabled(opt.trace);
  const double attribution_begin = tracer.now();
  const double cpu0 = cpu_seconds();
  Span reference_span(tracer, "cdf.all_pairs_1t", -1);
  const CdfAnswer reference = all_pairs_cdf(graph, one_thread);
  const double wall_1t = reference_span.stop();
  const double cpu_1t = cpu_seconds() - cpu0;
  for (std::size_t i = 0; i < digests.size(); ++i)
    expect_equal(r, digests[i], reference.digest,
                 "paper request " + std::to_string(i) +
                     ": nproc-thread digest differs from 1-thread digest");
  note(r, "check: " + std::to_string(digests.size()) +
              " nproc-thread answers against the 1-thread answer, diameter " +
              std::to_string(reference.diameter));

  if (opt.trace) {
    std::unique_ptr<Engine> engine;
    {
      Span construct(tracer, "engine.construct", -1);
      engine = std::make_unique<Engine>(graph);
    }
    std::vector<double> source_s;
    const double engine_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    int levels_max = 0;
    for (const std::uint32_t src : in.request.endpoints) {
      Span source(tracer, "engine.source", src);
      engine->start(src);
      int levels = 0;
      while (levels < kMaxLevels) {
        ++levels;
        Span step(tracer, "engine.step", src, source.id());
        if (!engine->step()) break;
      }
      levels_max = std::max(levels_max, levels);
      source_s.push_back(source.stop());
    }
    traced_wall += tracer.now() - attribution_begin;
    tracer.set_enabled(false);

    const EngineCounters c = engine->counters();
    // The split of the one-thread time is taken in CPU seconds of this
    // thread (the only worker at one thread): the engine pass and the
    // all-pairs reference run one after the other, and wall time lost to
    // other tenants of the host in either would leak into the difference.
    const double engine_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - engine_cpu0;
    const std::vector<SpanRecord>& spans = tracer.spans();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    layer["trace.parse_s"] = median(durations(spans, "trace.parse"));
    layer["graph.index_s"] = median(durations(spans, "graph.index"));
    layer["engine.self_s"] = engine_s;
    layer["engine.share"] = engine_s / cpu_1t;
    layer["engine.source_ms_p50"] = 1e3 * median(source_s);
    layer["engine.source_ms_max"] =
        1e3 * *std::max_element(source_s.begin(), source_s.end());
    layer["engine.levels_max"] = levels_max;
    layer["engine.step_ms_p50"] = 1e3 * median(durations(spans, "engine.step"));
    layer["engine.extensions"] = static_cast<double>(c.extensions);
    layer["engine.pairs_kept"] = static_cast<double>(c.pairs_kept);
    layer["engine.pairs_dominated"] = static_cast<double>(c.pairs_dominated);
    layer["engine.yield"] =
        c.extensions ? static_cast<double>(c.pairs_kept) /
                           static_cast<double>(c.extensions)
                     : 0.0;
    layer["engine.arena_bytes_peak"] = static_cast<double>(c.arena_bytes_peak);
    layer["cdf.self_s"] = cpu_1t - engine_s;
    layer["cdf.pairs_integrated"] =
        static_cast<double>(reference.pairs_integrated);
    const double wall_n = median(log.field(&PassTimes::wall, false));
    layer["pool.efficiency"] = wall_1t / (nproc * wall_n);
    layer["pool.cpu_inflation"] =
        median(log.field(&PassTimes::cpu, false)) / cpu_1t;
    add_per_layer(r, std::move(layer), tracer, log, traced_wall);
    finish_trace(r, opt, tracer);
  }
  return r;
}

// --- serve-infocom05 ---------------------------------------------------

const char* span_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSourceCdf: return "query.source_cdf";
    case QueryKind::kAllPairs: return "query.all_pairs";
    case QueryKind::kReach: return "query.reach";
    case QueryKind::kJourney: return "query.journey";
  }
  return "query.unknown";
}

Report run_serve(const RunOptions& opt) {
  Report r;
  r.seed = seed_for(opt, Preset::kInfocom05);
  const ServeInputs in = make_serve_inputs(r.seed);
  const auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(in.trace.snapshot);
  const std::size_t nq = in.queries.size();
  Tracer tracer;

  // Answers per pass and query: digests, or the reach count. Every pass
  // replays the same mix from a cold cache, so all rows must agree.
  constexpr std::uint64_t kThrew = 0;
  std::vector<std::vector<std::uint64_t>> answers;
  std::vector<double> latencies;
  std::map<QueryKind, std::vector<double>> by_kind;
  std::vector<double> cdf_hit_s;
  std::vector<double> cdf_miss_s;
  CacheCounters pass_cache;

  const PassLog log = run_passes(opt, tracer, r, 3, [&](int pass) {
    PassTimes t;
    std::unique_ptr<Server> server;
    {
      Span load(tracer, "trace.snapshot_load", -1);
      Graph graph = decode_snapshot(bytes);
      t.setup = load.stop();
      Span construct(tracer, "query.construct", -1);
      server = std::make_unique<Server>(std::move(graph), in.grid,
                                        in.max_hops, true);
      t.setup += construct.stop();
    }
    std::vector<std::uint64_t>& row = answers.emplace_back(nq, kThrew);
    const double cpu0 = cpu_seconds();
    const double wall0 = tracer.now();
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const Query& q = in.queries[qi];
      const long request = static_cast<long>(pass) * static_cast<long>(nq) +
                           static_cast<long>(qi);
      ++r.attempted;
      const std::uint64_t hits_before = server->cache_stats().hits;
      Span span(tracer, span_name(q.kind), request);
      try {
        switch (q.kind) {
          case QueryKind::kSourceCdf:
            row[qi] = server->source_cdf(q.source, in.windows[q.window]).digest;
            break;
          case QueryKind::kAllPairs:
            row[qi] = server->all_pairs(in.windows[q.window]).digest;
            break;
          case QueryKind::kReach:
            row[qi] = server->reachable_count(q.source, q.t);
            break;
          case QueryKind::kJourney:
            row[qi] = server->journey(q.source, q.destination);
            break;
        }
      } catch (const std::exception& e) {
        ++r.failed;
        note(r, std::string("error in ") + span_name(q.kind) + ": " + e.what());
      }
      const double s = span.stop();
      if (pass < 0) continue;  // the warm-up is checked, not timed
      latencies.push_back(s);
      by_kind[q.kind].push_back(s);
      if (q.kind == QueryKind::kSourceCdf)
        (server->cache_stats().hits > hits_before ? cdf_hit_s : cdf_miss_s)
            .push_back(s);
    }
    t.wall = tracer.now() - wall0;
    t.cpu = cpu_seconds() - cpu0;
    pass_cache = server->cache_stats();
    return t;
  });
  add_end_to_end(r, log, latencies);

  // Checks, untimed: every pass agrees with the first, every all_pairs
  // answer equals a cold compute_delay_cdf over its window, and a seeded
  // sample of source CDFs equals a cache-less engine's cold answer
  // (compute_delay_cdf restricts destinations to its endpoints, so it
  // cannot express one source against all destinations).
  const std::vector<std::uint64_t>& first = answers.front();
  for (std::size_t p = 1; p < answers.size(); ++p)
    for (std::size_t qi = 0; qi < nq; ++qi)
      expect_equal(r, answers[p][qi], first[qi],
                   "serve pass " + std::to_string(p) + " query " +
                       std::to_string(qi) + " differs from the first pass");
  std::vector<std::uint64_t> cold_all_pairs;
  for (const std::optional<Window>& w : in.windows) {
    CdfRequest req;
    req.grid = in.grid;
    req.max_hops = in.max_hops;
    req.window = w;
    cold_all_pairs.push_back(all_pairs_cdf(in.trace.graph, req).digest);
  }
  Server cold(prefix_graph(in.trace.graph, in.trace.graph.num_contacts()),
              in.grid, in.max_hops, false);
  std::size_t sampled = 0;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const Query& q = in.queries[qi];
    if (q.kind == QueryKind::kAllPairs) {
      expect_equal(r, first[qi], cold_all_pairs[q.window],
                   "serve all_pairs query " + std::to_string(qi));
    } else if (q.kind == QueryKind::kSourceCdf && qi % 8 == r.seed % 8) {
      ++sampled;
      expect_equal(r, first[qi],
                   cold.source_cdf(q.source, in.windows[q.window]).digest,
                   "serve source_cdf query " + std::to_string(qi));
    }
  }
  note(r, "check: " + std::to_string(answers.size()) +
              " passes agree; 4 all_pairs and " + std::to_string(sampled) +
              " sampled source_cdf answers against cold answers");

  if (opt.trace) {
    const std::vector<SpanRecord>& spans = tracer.spans();
    std::map<std::string, double> layer;
    layer["trace.snapshot_load_s"] =
        median(durations(spans, "trace.snapshot_load"));
    const double lookups = static_cast<double>(pass_cache.hits + pass_cache.misses);
    layer["query.hit_ratio"] =
        lookups > 0 ? static_cast<double>(pass_cache.hits) / lookups : 0.0;
    layer["query.hits"] = static_cast<double>(pass_cache.hits);
    layer["query.misses"] = static_cast<double>(pass_cache.misses);
    layer["query.evictions"] = static_cast<double>(pass_cache.evictions);
    layer["query.cdf_hit_us_p50"] = 1e6 * median_or_zero(cdf_hit_s);
    layer["query.cdf_miss_ms_p50"] = 1e3 * median_or_zero(cdf_miss_s);
    layer["query.all_pairs_ms_p50"] =
        1e3 * median_or_zero(by_kind[QueryKind::kAllPairs]);
    layer["query.reach_ms_p50"] = 1e3 * median_or_zero(by_kind[QueryKind::kReach]);
    layer["query.journey_ms_p50"] =
        1e3 * median_or_zero(by_kind[QueryKind::kJourney]);
    add_per_layer(r, std::move(layer), tracer, log, log.traced_total());
    finish_trace(r, opt, tracer);
  }
  return r;
}

// --- live-realitymining ------------------------------------------------

Report run_live(const RunOptions& opt) {
  Report r;
  r.seed = seed_for(opt, Preset::kRealityMining);
  const LiveInputs in = make_live_inputs(r.seed);
  Tracer tracer;

  // Digest per pass and epoch; epoch 0 is the backlog bootstrap.
  std::vector<std::vector<std::uint64_t>> answers;
  std::vector<double> latencies;
  double tail_pairs_integrated = 0.0;

  const PassLog log = run_passes(opt, tracer, r, 2, [&](int pass) {
    PassTimes t;
    std::vector<std::uint64_t>& row =
        answers.emplace_back(in.epochs.size() + 1, 0);
    std::unique_ptr<LiveSession> session;
    {
      ++r.attempted;
      Span boot(tracer, "incremental.bootstrap", 0);
      session = std::make_unique<LiveSession>(in.grid, in.max_hops);
      {
        Span feed(tracer, "trace.feed_backlog", 0, boot.id());
        session->feed(in.backlog);
      }
      {
        Span commit(tracer, "incremental.bootstrap_commit", 0, boot.id());
        session->commit_epoch();
      }
      Span answer(tracer, "incremental.bootstrap_all_pairs", 0, boot.id());
      row[0] = session->all_pairs().digest;
      answer.stop();
      t.setup = boot.stop();
    }
    double pairs = 0.0;
    const double cpu0 = cpu_seconds();
    const double wall0 = tracer.now();
    for (std::size_t e = 0; e < in.epochs.size(); ++e) {
      ++r.attempted;
      const long request = static_cast<long>(e) + 1;
      double s = 0.0;
      {
        Span feed(tracer, "trace.feed", request);
        session->feed(in.epochs[e]);
        s += feed.stop();
      }
      {
        Span commit(tracer, "incremental.append", request);
        session->commit_epoch();
        s += commit.stop();
      }
      Span answer(tracer, "incremental.all_pairs", request);
      const CdfAnswer a = session->all_pairs();
      s += answer.stop();
      row[e + 1] = a.digest;
      pairs += static_cast<double>(a.pairs_integrated);
      if (pass >= 0) latencies.push_back(s);
    }
    t.wall = tracer.now() - wall0;
    t.cpu = cpu_seconds() - cpu0;
    tail_pairs_integrated = pairs;
    if (const std::uint64_t drops = session->below_watermark_drops()) {
      ++r.failed;
      note(r, "live pass " + std::to_string(pass) + ": " +
                  std::to_string(drops) + " contacts dropped below the watermark");
    }
    return t;
  });
  add_end_to_end(r, log, latencies);

  // Checks, untimed: every pass agrees with the first, and the bootstrap,
  // three seeded epochs and the final epoch equal a cold
  // compute_delay_cdf on the ingested prefix (the incremental engine
  // replays the direct accumulation order, so they are bit-identical).
  const std::vector<std::uint64_t>& first = answers.front();
  for (std::size_t p = 1; p < answers.size(); ++p)
    for (std::size_t e = 0; e < first.size(); ++e)
      expect_equal(r, answers[p][e], first[e],
                   "live pass " + std::to_string(p) + " epoch " +
                       std::to_string(e) + " differs from the first pass");
  const std::size_t tail = in.epochs.size();
  std::vector<std::size_t> sampled = {0, tail};
  for (std::uint64_t k = 1; k <= 3; ++k)
    sampled.push_back(1 + (r.seed * 2654435761u + k * 40503u) % tail);
  std::sort(sampled.begin(), sampled.end());
  sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
  for (const std::size_t e : sampled) {
    const std::size_t n = e == 0 ? in.backlog_contacts : in.contacts_after[e - 1];
    CdfRequest req;
    req.grid = in.grid;
    req.max_hops = in.max_hops;
    req.direct_accumulation = true;
    expect_equal(r, first[e], all_pairs_cdf(prefix_graph(in.trace.graph, n), req).digest,
                 "live epoch " + std::to_string(e) +
                     " differs from a cold run on its prefix");
  }
  note(r, "check: " + std::to_string(answers.size()) + " passes agree; " +
              std::to_string(sampled.size()) +
              " epochs against cold prefix runs; no watermark drops");

  if (opt.trace) {
    const std::vector<SpanRecord>& spans = tracer.spans();
    std::map<std::string, double> layer;
    layer["trace.feed_ms_p50"] = 1e3 * median(durations(spans, "trace.feed"));
    layer["incremental.append_ms_p50"] =
        1e3 * median(durations(spans, "incremental.append"));
    layer["incremental.all_pairs_ms_p50"] =
        1e3 * median(durations(spans, "incremental.all_pairs"));
    layer["incremental.pairs_integrated"] = tail_pairs_integrated;
    layer["incremental.bootstrap_s"] =
        median(durations(spans, "incremental.bootstrap"));
    add_per_layer(r, std::move(layer), tracer, log, log.traced_total());
    finish_trace(r, opt, tracer);
  }
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-infocom06", run_paper},
      {"serve-infocom05", run_serve},
      {"live-realitymining", run_live},
  };
  return all;
}

}  // namespace perfbench
