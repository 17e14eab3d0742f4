#include "measure.hpp"

#include "db/database.hpp"
#include "engine/engine.hpp"
#include "parse/parser.hpp"
#include "term/canon.hpp"

namespace wb {

std::vector<Tally::Slice> Tally::slices() const {
  std::vector<Slice> out;
  double slice_start = 0;
  for (std::size_t b = 0; b < samples.size(); b += kSliceSamples) {
    const std::size_t e = std::min(samples.size(), b + kSliceSamples);
    if (e - b < kSliceSamples && !out.empty()) break;
    Slice sl;
    sl.samples = e - b;
    std::vector<double> lat;
    std::uint64_t ok = 0, res = 0;
    for (std::size_t i = b; i < e; ++i) {
      lat.push_back(samples[i].latency_ms);
      ok += samples[i].ok ? 1 : 0;
      res += samples[i].resolutions;
    }
    const double dur = samples[e - 1].done_s - slice_start;
    slice_start = samples[e - 1].done_s;
    if (dur > 0) {
      sl.qps = static_cast<double>(ok) / dur;
      sl.lips = static_cast<double>(res) / dur;
    }
    sl.p50_ms = percentile(lat, 50);
    sl.p99_ms = percentile(lat, 99);
    out.push_back(sl);
  }
  return out;
}

double Tally::qps() const {
  std::vector<double> v;
  for (const Slice& s : slices()) v.push_back(s.qps);
  return median(v);
}

MetricSheet end_to_end_sheet(const Tally& t, double setup_s,
                             const std::string& latency_source) {
  const std::vector<Tally::Slice> slices = t.slices();
  std::vector<double> qps, lips, p50, p99;
  for (const Tally::Slice& s : slices) {
    qps.push_back(s.qps);
    lips.push_back(s.lips);
    p50.push_back(s.p50_ms);
    p99.push_back(s.p99_ms);
  }
  const std::size_t per_slice = slices.empty() ? 0 : slices.front().samples;
  const std::string over =
      "median of " + std::to_string(slices.size()) + " slices of " +
      std::to_string(per_slice) + " samples (" +
      std::to_string(t.samples.size()) + " in the run)";
  MetricSheet s;
  s["qps"] = {median(qps), "1/s", over};
  s["latency_p50_ms"] = {median(p50), "ms", latency_source + ", " + over};
  s["latency_p99_ms"] = {
      median(p99), "ms",
      latency_source + ", " + over + "; " +
          std::to_string(per_slice - per_slice * 99 / 100) +
          " per slice beyond p99"};
  s["lips"] = {median(lips), "1/s",
               "engine resolutions per wall second, " + over};
  s["setup_s"] = {setup_s, "s", ""};
  s["rss_peak_mb"] = {rss_peak_mb(), "MiB", ""};
  return s;
}

bool matches_reference(const ReferenceTable& ref, const PoolEntry& e,
                       const ace::QueryResult& r, std::string* why) {
  const auto it = ref.find(reference_key(e));
  if (it == ref.end()) {
    *why = "no reference answer for " + e.query;
    return false;
  }
  if (!r.completed()) {
    *why = std::string(ace::query_outcome_name(r.outcome)) + " on " +
           r.query + (r.error.empty() ? "" : ": " + r.error);
    return false;
  }
  const Expected& x = it->second;
  if (r.solutions.size() != x.count || answer_digest(r.solutions) != x.digest) {
    *why = "wrong answer to " + r.query + " (" +
           std::to_string(r.solutions.size()) + " solutions, expected " +
           std::to_string(x.count) + ")";
    return false;
  }
  return true;
}

bool RunResult::check(const ReferenceTable& ref, const PoolEntry& e,
                      const ace::QueryResult& r) {
  ++checked;
  std::string why;
  if (matches_reference(ref, e, r, &why)) return true;
  ++mismatched;
  if (mismatched <= 10) notes.push_back(why);
  return false;
}

namespace {

double per(std::uint64_t count, std::uint64_t runs) {
  return runs > 0 ? static_cast<double>(count) / static_cast<double>(runs)
                  : 0;
}

}  // namespace

void put_pass_counts(MetricSheet& sheet, const PassCounts& pass) {
  const ace::Counters& c = pass.stats;
  const std::uint64_t n = pass.runs;
  const std::string u = "count/query";
  sheet["term.unify_steps"] = {per(c.unify_steps, n), u, ""};
  sheet["term.heap_cells"] = {per(c.heap_cells, n), u, ""};
  sheet["builtins.calls"] = {per(c.builtin_calls, n), u, ""};
  sheet["engine.resolutions"] = {per(c.resolutions, n), u, ""};
  sheet["engine.choicepoints"] = {per(c.choicepoints, n), u, ""};
  sheet["engine.backtrack_frames"] = {per(c.backtrack_frames, n), u, ""};
  sheet["andp.parcall_frames"] = {per(c.parcall_frames, n), u, ""};
  sheet["andp.markers"] = {per(c.input_markers + c.end_markers, n), u, ""};
  sheet["andp.opt_merges"] = {per(c.lpco_merges + c.pdo_merges, n), u, ""};
  sheet["orp.copied_cells"] = {per(c.copied_cells, n), u, ""};
  sheet["orp.sharing_sessions"] = {per(c.sharing_sessions, n), u, ""};
  sheet["orp.steals"] = {per(c.public_node_takes, n), u,
                         "alternatives taken from shared choice points"};
  sheet["sim.vt_makespan"] = {per(pass.virtual_time, n), "vt/query", ""};
  for (std::size_t i = 0; i < ace::kNumCostCats; ++i) {
    const char* cat = ace::cost_cat_name(static_cast<ace::CostCat>(i));
    sheet[std::string("sim.vt.") + cat] = {per(pass.attrib.at[i], n),
                                           "vt/query", ""};
  }
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> list = [] {
    const std::string cq = "count/query";
    std::vector<LayerMetric> m = {
        {"parse.query_us", "us"},
        {"parse.consult_ms", "ms"},
        {"term.unify_steps", cq},
        {"term.heap_cells", cq},
        {"term.canon_key_us", "us"},
        {"db.write_us_p50", "us"},
        {"db.write_us_p99", "us"},
        {"db.read_us_p50", "us"},
        {"db.limbo_depth", "count"},
        {"db.index_versions", "count"},
        {"db.epoch_lag", "count"},
        {"builtins.calls", cq},
        {"engine.resolutions", cq},
        {"engine.choicepoints", cq},
        {"engine.backtrack_frames", cq},
        {"engine.run_us_p50", "us"},
        {"andp.parcall_frames", cq},
        {"andp.markers", cq},
        {"andp.opt_merges", cq},
        {"andp.wall_ratio", "ratio"},
        {"orp.copied_cells", cq},
        {"orp.sharing_sessions", cq},
        {"orp.steals", cq},
        {"orp.wall_ratio", "ratio"},
        {"tab.hit_ratio", "ratio"},
        {"tab.invalidations", cq},
        {"tab.bytes", "bytes"},
        {"sim.vt_makespan", "vt/query"},
    };
    for (std::size_t i = 0; i < ace::kNumCostCats; ++i) {
      m.push_back({std::string("sim.vt.") +
                       ace::cost_cat_name(static_cast<ace::CostCat>(i)),
                   "vt/query"});
    }
    const std::vector<LayerMetric> tail = {
        {"sim.wall_ns_per_vt", "ns/vt"},
        {"analysis.purity_rebuild_us", "us"},
        {"serve.queue_us_p50", "us"},
        {"serve.acquire_us_p50", "us"},
        {"serve.parse_us_p50", "us"},
        {"serve.run_us_p50", "us"},
        {"serve.render_us_p50", "us"},
        {"serve.pool_hit_ratio", "ratio"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cache_bypass_ratio", "ratio"},
        {"serve.cache_invalidations", cq},
        {"serve.rejected", cq},
        {"runtime.thread_speedup_2", "ratio"},
        {"trace.qps_untraced", "1/s"},
        {"trace.qps_traced", "1/s"},
        {"trace.overhead_ratio", "ratio"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  }();
  return list;
}

void fill_unexercised(MetricSheet& sheet, WorkloadId w) {
  for (const LayerMetric& m : layer_metrics()) {
    if (sheet.count(m.name) == 0) {
      sheet[m.name] = {0, m.unit,
                       std::string("not exercised by ") + workload_name(w)};
    }
  }
}

void ParseProbe::run(SpanLog& spans, const std::string& query,
                     std::int64_t parent, std::uint64_t qid) {
  const Clock::time_point p0 = Clock::now();
  const ace::TermTemplate tmpl = ace::parse_term_text(syms, query);
  const Clock::time_point p1 = Clock::now();
  const std::string key = ace::canonical_template_key(tmpl);
  const Clock::time_point p2 = Clock::now();
  spans.add("parse.query", spans.at(p0), spans.at(p1), parent, qid);
  spans.add("term.canon_key", spans.at(p1), spans.at(p2), parent, qid);
  parse_us.push_back(static_cast<double>(ns_between(p0, p1)) / 1e3);
  canon_us.push_back(static_cast<double>(ns_between(p1, p2)) / 1e3);
}

namespace {

// Wall time of one fixed and-parallel query on the real-thread driver at
// 1 agent over 2 agents (median of several runs each). Every answer is
// checked against the closed form.
double thread_speedup_2(RunResult& out) {
  const PoolEntry probe{"fib", "fibp(15, F).", Kind::PureRead, 1, false};
  const ReferenceTable ref = {
      {reference_key(probe), {1, answer_digest({"F = 610"})}}};
  ace::Database db;
  load_batch_program(db, "fib");
  auto engine_for = [&db](unsigned agents) {
    return std::make_unique<ace::Engine>(
        db, ace::EngineConfig{.mode = ace::EngineMode::Andp,
                              .agents = agents,
                              .use_threads = true});
  };
  auto one = engine_for(1);
  auto two = engine_for(2);
  std::vector<double> wall1, wall2;
  for (int rep = 0; rep < 7; ++rep) {
    for (auto* eng : {one.get(), two.get()}) {
      const Clock::time_point t0 = Clock::now();
      const ace::QueryResult r = eng->query(probe.query);
      (eng == one.get() ? wall1 : wall2)
          .push_back(seconds_between(t0, Clock::now()));
      out.check(ref, probe, r);
    }
  }
  const double w2 = median(wall2);
  return w2 > 0 ? median(wall1) / w2 : 0;
}

}  // namespace

void finish_traced_run(const RunOptions& opt, const Tally& traced,
                       const ParseProbe& probe, const SpanLog& spans,
                       RunResult& out) {
  MetricSheet& m = out.per_layer;
  m["parse.query_us"] = {median(probe.parse_us), "us", "parse_term_text"};
  m["term.canon_key_us"] = {median(probe.canon_us), "us",
                            "canonical_template_key"};
  m["runtime.thread_speedup_2"] = {thread_speedup_2(out), "ratio",
                                   "fibp(15) real threads, 1 over 2 agents"};
  m["trace.qps_untraced"] = {out.tally.qps(), "1/s", ""};
  m["trace.qps_traced"] = {traced.qps(), "1/s", ""};
  m["trace.overhead_ratio"] = {out.tally.qps() / traced.qps(), "ratio",
                               "untraced over traced qps"};
  const std::string path =
      opt.out_dir + "/spans-" + workload_name(opt.workload) + ".json";
  out.notes.push_back(spans.write_json(path) ? "spans written to " + path
                                             : "could not write spans to " +
                                                   path);
  out.self_time = spans.self_time_by_layer();
}

}  // namespace wb
