// Measurement plumbing shared by the batch and serving drivers: the
// end-to-end tally, answer checking, deterministic per-layer counts, and
// the fixed list of per-layer metrics every traced run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "engine/result.hpp"
#include "term/symtab.hpp"

namespace wb {

struct RunOptions {
  WorkloadId workload = WorkloadId::BatchAndp;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  ReferenceTable reference;
  std::string out_dir;  // span files land here
};

// End-to-end accounting of one timed phase: one sample per response, in
// completion order. The figures are medians over consecutive slices of
// kSliceSamples responses, so a stretch of seconds in which the host runs
// slower moves them less than whole-run averages would; every slice still
// has enough samples for ten to lie beyond its p99.
constexpr std::size_t kSliceSamples = 1000;

struct Tally {
  struct Sample {
    double done_s = 0;  // completion, seconds since begin()
    double latency_ms = 0;
    bool ok = false;
    std::uint64_t resolutions = 0;
  };
  struct Slice {
    std::size_t samples = 0;
    double qps = 0;   // matching responses per wall second
    double lips = 0;  // engine resolutions per wall second
    double p50_ms = 0;
    double p99_ms = 0;
  };

  Clock::time_point start = Clock::now();
  std::vector<Sample> samples;

  void begin() { start = Clock::now(); }
  void add(Clock::time_point done, double latency_ms, bool ok,
           std::uint64_t resolutions) {
    samples.push_back(
        {seconds_between(start, done), latency_ms, ok, resolutions});
  }
  // Full slices only, unless the phase had fewer samples than one slice.
  std::vector<Slice> slices() const;
  double qps() const;  // median over slices
};

// qps, latency_p50_ms, latency_p99_ms, lips, setup_s, rss_peak_mb.
// `latency_source` says how the latency samples were taken.
MetricSheet end_to_end_sheet(const Tally& t, double setup_s,
                             const std::string& latency_source);

// True when `r` completed with exactly the expected answer. A mismatch
// is described in `why`.
bool matches_reference(const ReferenceTable& ref, const PoolEntry& e,
                       const ace::QueryResult& r, std::string* why);

// Engine counters, virtual time and attribution summed over a fixed set
// of engine runs; divided by `runs` they give per-query counts that
// repeat exactly for the same inputs.
struct PassCounts {
  ace::Counters stats;
  ace::AttribBreakdown attrib;
  std::uint64_t virtual_time = 0;
  std::uint64_t runs = 0;

  void add(const ace::QueryResult& r) {
    stats.add(r.stats);
    for (std::size_t i = 0; i < attrib.at.size(); ++i) {
      attrib.at[i] += r.attrib.at[i];
    }
    virtual_time += r.virtual_time;
    ++runs;
  }
};

// Fills the counter-derived per-layer metrics (term, builtins, engine
// counts, andp/orp machinery, sim.*) from a pass.
void put_pass_counts(MetricSheet& sheet, const PassCounts& pass);

// Every per-layer metric the traced run reports, with its unit. A traced
// run that did not fill one reports it as 0 with a note saying the
// workload does not exercise that layer.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& layer_metrics();
void fill_unexercised(MetricSheet& sheet, WorkloadId w);

// Times parse_term_text and canonical_template_key on a request text,
// with a private symbol table so the probe never touches a served
// database, as spans "parse.query" and "term.canon_key".
struct ParseProbe {
  ace::SymbolTable syms;
  std::vector<double> parse_us, canon_us;

  void run(SpanLog& spans, const std::string& query, std::int64_t parent,
           std::uint64_t qid);
};

// Result of one workload run.
struct RunResult {
  Tally tally;  // the untraced timed phase
  std::string latency_source;
  double setup_s = 0;
  // Every response checked against its reference (warm-up, timed phases
  // and probes) and how many of them did not match.
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  MetricSheet per_layer;  // traced runs only
  std::map<std::string, SpanLog::LayerRow> self_time;  // traced runs only
  std::vector<std::string> notes;

  // Checks `r` against the reference answer of `e`, counting the result;
  // the first mismatches are kept as notes.
  bool check(const ReferenceTable& ref, const PoolEntry& e,
             const ace::QueryResult& r);
};

// The part every traced run shares: the tracing overhead (untraced over
// traced qps), the real-thread probe, the parse probe's medians, and the
// span log, written to the output directory and summarised as self time.
void finish_traced_run(const RunOptions& opt, const Tally& traced,
                       const ParseProbe& probe, const SpanLog& spans,
                       RunResult& out);

RunResult run_batch(const RunOptions& opt);
RunResult run_serve(const RunOptions& opt);

}  // namespace wb
