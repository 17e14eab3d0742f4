// wallbench: the wall-clock benchmark driver.
//
//   wallbench --workload batch_andp|batch_orp|serve_mixed --seed N
//             --seconds S --trace 0|1 --reference FILE --out-dir DIR
//   wallbench --self-test --reference FILE
//   wallbench --write-reference FILE
//   wallbench --calibrate
//
// A run prints its host stamp, every metric as "name = value unit", and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. It exits 1 when any response differs from its reference
// answer and 2 on a usage or set-up error. run.py builds and invokes it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "db/database.hpp"
#include "measure.hpp"
#include "support/diag.hpp"

namespace {

using namespace wb;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "wallbench: %s\n", why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string metrics_json(const MetricSheet& sheet) {
  std::string out = "{";
  for (const auto& [name, m] : sheet) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + fmt_double(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void print_sheet(const MetricSheet& sheet) {
  for (const auto& [name, m] : sheet) {
    std::printf("  %-30s = %-14.6g %s%s%s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
}

// Per-slice series of a timed phase as a JSON array: shows whether the
// host's speed moved during the run.
template <typename Field>
std::string slice_series(const Tally& t, Field field) {
  std::string out;
  for (const Tally::Slice& s : t.slices()) {
    out += (out.empty() ? "" : ", ") + fmt_double(field(s));
  }
  return "[" + out + "]";
}

int run_workload(const RunOptions& opt) {
  const HostStamp host = host_stamp();
  std::printf("wallbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              host.nproc, host.cpu_model.c_str(), host.compiler.c_str(),
              host.build_type.c_str());

  RunResult r = opt.workload == WorkloadId::ServeMixed ? run_serve(opt)
                                                       : run_batch(opt);
  const MetricSheet e2e = end_to_end_sheet(r.tally, r.setup_s, r.latency_source);
  const double fail_ratio =
      r.checked > 0 ? static_cast<double>(r.mismatched) /
                          static_cast<double>(r.checked)
                    : 0;
  std::printf("end-to-end%s:\n", opt.trace ? " (untraced half of the run)" : "");
  print_sheet(e2e);
  std::printf("  %-30s = %-14.6g ratio  # %llu of %llu responses checked\n",
              "fail_ratio", fail_ratio,
              static_cast<unsigned long long>(r.mismatched),
              static_cast<unsigned long long>(r.checked));
  if (opt.trace) {
    fill_unexercised(r.per_layer, opt.workload);
    std::printf("per-layer (traced run):\n");
    print_sheet(r.per_layer);
    std::printf("self time by layer (traced phase):\n");
    std::printf("  %-10s %10s %14s %14s\n", "layer", "spans", "total_ms",
                "self_ms");
    for (const auto& [layer, row] : r.self_time) {
      std::printf("  %-10s %10llu %14.3f %14.3f\n", layer.c_str(),
                  static_cast<unsigned long long>(row.spans),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(row.self_ns) / 1e6);
    }
  }
  for (const std::string& note : r.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  const MetricSheet& reported = opt.trace ? r.per_layer : e2e;
  const bool correct = r.mismatched == 0 && r.checked > 0;
  const std::string record =
      opt.out_dir + "/result-" + workload_name(opt.workload) + "-seed" +
      std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") + ".json";
  std::ofstream(record)
      << "{\"workload\": \"" << workload_name(opt.workload)
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": {\"nproc\": "
      << host.nproc << ", \"cpu\": \"" << json_escape(host.cpu_model)
      << "\", \"compiler\": \"" << json_escape(host.compiler)
      << "\", \"build_type\": \"" << host.build_type
      << "\"}, \"samples\": " << r.tally.samples.size()
      << ", \"slice_qps\": "
      << slice_series(r.tally, [](const Tally::Slice& s) { return s.qps; })
      << ", \"slice_p99_ms\": "
      << slice_series(r.tally, [](const Tally::Slice& s) { return s.p99_ms; })
      << ", \"end_to_end\": " << metrics_json(e2e)
      << ", \"per_layer\": " << metrics_json(r.per_layer) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.checked),
              static_cast<unsigned long long>(r.mismatched),
              metrics_json(reported).c_str());
  return correct ? 0 : 1;
}

// Checks the benchmark's own guarantees; prints each failure.
int self_test(const std::string& reference_path) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what.c_str());
      ++failures;
    }
  };
  for (WorkloadId w : {WorkloadId::BatchAndp, WorkloadId::BatchOrp,
                       WorkloadId::ServeMixed}) {
    const std::string name = workload_name(w);
    expect(stream_text(w, 7, 2000) == stream_text(w, 7, 2000),
           name + ": the same seed gives a byte-identical stream");
    expect(stream_text(w, 7, 2000) != stream_text(w, 8, 2000),
           name + ": different seeds give different streams");
  }
  // Raw-sample percentiles: ordered, never above the maximum, and p99 of
  // 1000 samples leaves at least 10 beyond it.
  std::vector<double> v;
  ace::SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<double>(rng.below(24048) + 1));
  }
  const double mx = *std::max_element(v.begin(), v.end());
  const double p50 = percentile(v, 50), p99 = percentile(v, 99);
  expect(p50 <= p99 && p99 <= mx, "p50 <= p99 <= max");
  expect(count_above(v, 99) >= 10, "at least 10 samples above p99 of 1000");
  expect(percentile({1, 2, 3, 4}, 50) == 2 && percentile({5}, 99) == 5,
         "nearest-rank percentiles");
  std::printf("percentiles: p50=%g p99=%g max=%g (n=%zu, %zu above p99)\n",
              p50, p99, mx, v.size(), count_above(v, 99));

  const ReferenceTable ref = load_reference(reference_path);
  for (WorkloadId w : {WorkloadId::BatchAndp, WorkloadId::BatchOrp,
                       WorkloadId::ServeMixed}) {
    for (const PoolEntry& e : pool(w)) {
      const auto it = ref.find(reference_key(e));
      if (it == ref.end()) {
        expect(false, "reference answer for " + e.query);
        continue;
      }
      const std::string why = closed_form_mismatch(e, it->second);
      expect(why.empty(), e.query + ": " + why);
    }
  }
  std::set<std::string> names;
  for (const LayerMetric& m : layer_metrics()) {
    expect(names.insert(m.name).second, "unique layer metric " + m.name);
  }
  std::printf("self-test: %s (%d failures)\n", failures ? "FAILED" : "ok",
              failures);
  return failures == 0 ? 0 : 1;
}

// Median wall time of every pool entry on each engine of its workload:
// the table the pool sizes were chosen from.
int calibrate() {
  for (WorkloadId w : {WorkloadId::BatchAndp, WorkloadId::BatchOrp,
                       WorkloadId::ServeMixed}) {
    std::printf("%s\n", workload_name(w));
    ace::Database serve_db;
    if (w == WorkloadId::ServeMixed) load_serve_database(serve_db);
    for (const PoolEntry& e : pool(w)) {
      if (e.kind == Kind::Write) continue;
      ace::Database own;
      ace::Database* db = &serve_db;
      if (w != WorkloadId::ServeMixed) {
        load_batch_program(own, e.scope);
        db = &own;
      }
      std::printf("  %-12s %-26s w=%u", e.scope.c_str(), e.query.c_str(),
                  e.weight);
      for (const ace::EngineConfig& cfg : timed_engines(w)) {
        ace::Engine eng(*db, cfg);
        ace::QueryBudget b;
        b.max_solutions = e.all_solutions ? SIZE_MAX : 1;
        std::vector<double> ms;
        std::uint64_t res = 0;
        for (int rep = 0; rep < 5; ++rep) {
          const Clock::time_point t0 = Clock::now();
          const ace::QueryResult r = eng.query(e.query, b);
          ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
          res = r.stats.resolutions;
        }
        std::printf("  %s %.3f ms (%llu res)", ace::engine_mode_name(cfg.mode),
                    median(ms), static_cast<unsigned long long>(res));
      }
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string reference_path, write_path, workload;
  bool do_self_test = false, do_calibrate = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--reference") {
      reference_path = value();
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else if (a == "--write-reference") {
      write_path = value();
    } else if (a == "--self-test") {
      do_self_test = true;
    } else if (a == "--calibrate") {
      do_calibrate = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  try {
    if (do_calibrate) return calibrate();
    if (!write_path.empty()) return write_reference(write_path) ? 0 : 1;
    if (reference_path.empty()) usage("--reference is required");
    if (do_self_test) return self_test(reference_path);
    const auto w = parse_workload(workload);
    if (!w) usage("--workload must be batch_andp, batch_orp or serve_mixed");
    if (!have_seed) usage("--seed is required");
    if (!(opt.seconds > 0)) usage("--seconds must be positive");
    if (opt.out_dir.empty()) usage("--out-dir is required");
    opt.workload = *w;
    opt.reference = load_reference(reference_path);
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 2;
  }
}
