// serve_mixed: one generator thread keeps a fixed number of requests in
// flight against a sharded, cache-fronted QueryService (closed loop: a new
// request goes out only when one completes). Every response is checked.
#include <memory>
#include <thread>

#include "analysis/absint.hpp"
#include "analysis/purity.hpp"
#include "db/database.hpp"
#include "measure.hpp"
#include "serve/service.hpp"
#include "support/diag.hpp"
#include "support/strutil.hpp"

namespace wb {
namespace {

constexpr std::size_t kSetupReps = 7;
constexpr unsigned kShards = 2;
constexpr unsigned kDispatchPerShard = 1;
constexpr std::size_t kInFlight = 4;
// Smaller than the pool's distinct cacheable queries, so the LRU evicts
// the tail while the popular queries stay resident.
constexpr std::size_t kCacheCapacity = 32;
constexpr unsigned kGeneratorThreads = 1;

ace::ServiceOptions service_options() {
  ace::ServiceOptions o;
  o.shards = kShards;
  o.dispatch_threads = kDispatchPerShard;
  o.queue_capacity = 2 * kInFlight;
  o.pool_capacity = 4;
  o.result_cache_capacity = kCacheCapacity;
  return o;
}

// The database and the service over it; the service is declared last so
// it stops before the database goes away.
struct ServeSetup {
  std::unique_ptr<ace::Database> db;
  std::unique_ptr<ace::QueryService> service;
  double consult_ms = 0;
};

// Set-up `rep` loads the database on the rep-th CPU, so the median over
// set-ups spans the host's CPUs; the service's threads start after the
// CPU mask is restored.
std::unique_ptr<ServeSetup> build_setup(std::size_t rep) {
  auto s = std::make_unique<ServeSetup>();
  s->db = std::make_unique<ace::Database>();
  {
    CpuRotor pin(rep);
    pin.advance();
    const Clock::time_point t0 = Clock::now();
    load_serve_database(*s->db);
    s->consult_ms = seconds_between(t0, Clock::now()) * 1e3;
  }
  s->service = std::make_unique<ace::QueryService>(*s->db, service_options());
  return s;
}

struct InFlight {
  ace::QueryService::Ticket ticket;
  Clock::time_point sent;
  Request req;
};

// What the traced phase gathers beyond the tally.
struct TraceData {
  SpanLog spans;
  ParseProbe probe;
  // Service phases: queue and render of every response; acquire, parse
  // and run of the responses that ran an engine (a cache hit skips them).
  std::vector<double> queue_us, render_us, acquire_us, sparse_us, run_us;
  double wall_ns = 0;                 // engine run time of those responses
  std::uint64_t virtual_time = 0;
  double limbo = 0, versions = 0, lag = 0;
  std::uint64_t health_samples = 0;
};

class ServeDriver {
 public:
  ServeDriver(const RunOptions& opt, RunResult& out)
      : opt_(opt), out_(out), entries_(pool(WorkloadId::ServeMixed)) {}

  void run() {
    const unsigned nproc = std::thread::hardware_concurrency();
    const unsigned threads = kGeneratorThreads + kShards * kDispatchPerShard;
    if (threads > nproc) {
      throw ace::AceError(ace::strf(
          "refusing serve_mixed: %u generator + service threads exceed "
          "nproc = %u",
          threads, nproc));
    }
    std::vector<double> setup_s, consult_ms;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      setup_.reset();  // tear the previous one down outside the timing
      const Clock::time_point t0 = Clock::now();
      setup_ = build_setup(rep);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      consult_ms.push_back(setup_->consult_ms);
    }
    out_.setup_s = median(setup_s);
    ace::QueryService& svc = *setup_->service;

    // Warm-up: every read of the pool once, one at a time, in pool order.
    // It fills the engine pools, the memo tables and the result cache, and
    // its engine runs give per-query counts that repeat exactly.
    PassCounts pass;
    for (const PoolEntry& e : entries_) {
      if (e.kind == Kind::Write) continue;
      ace::QueryResult r = svc.run(request_for({0, "warmup", e.query}));
      out_.check(opt_.reference, e, r);
      if (!r.cache_hit) pass.add(r);
    }

    RequestStream stream(WorkloadId::ServeMixed, opt_.seed);
    std::map<Kind, std::vector<double>> by_kind;  // client latency, us
    if (!opt_.trace) {
      timed_phase(stream, opt_.seconds, out_.tally, by_kind, nullptr);
      return;
    }
    // Traced run: half untraced (the reference for the tracing overhead),
    // half traced, then the probes.
    timed_phase(stream, opt_.seconds / 2, out_.tally, by_kind, nullptr);
    const ace::ServeMetricsSnapshot m0 = svc.metrics_snapshot();
    const ace::tab::TableSpace::Stats tab0 = svc.tables().stats();
    Tally traced;
    TraceData td;
    std::map<Kind, std::vector<double>> traced_by_kind;
    timed_phase(stream, opt_.seconds / 2, traced, traced_by_kind, &td);
    const ace::ServeMetricsSnapshot m1 = svc.metrics_snapshot();
    const ace::tab::TableSpace::Stats tab1 = svc.tables().stats();

    MetricSheet& m = out_.per_layer;
    put_pass_counts(m, pass);
    const double n = static_cast<double>(traced.samples.size());
    m["parse.consult_ms"] = {median(consult_ms), "ms", "whole database"};
    m["db.write_us_p50"] = {percentile(by_kind[Kind::Write], 50), "us",
                            sample_note(by_kind[Kind::Write])};
    m["db.write_us_p99"] = {percentile(by_kind[Kind::Write], 99), "us",
                            sample_note(by_kind[Kind::Write])};
    m["db.read_us_p50"] = {percentile(by_kind[Kind::DynRead], 50), "us",
                           sample_note(by_kind[Kind::DynRead])};
    const double hs = static_cast<double>(td.health_samples);
    m["db.limbo_depth"] = {td.limbo / hs, "count", "mean of samples"};
    m["db.index_versions"] = {td.versions / hs, "count", "mean of samples"};
    m["db.epoch_lag"] = {td.lag / hs, "count", "mean of samples"};
    m["engine.run_us_p50"] = {median(td.run_us), "us",
                              "PhaseNanos::run_ns of engine runs"};
    m["tab.hit_ratio"] = {ratio(tab1.hits - tab0.hits,
                                tab1.misses - tab0.misses),
                          "ratio", ""};
    m["tab.invalidations"] = {
        static_cast<double>(tab1.invalidations - tab0.invalidations) / n,
        "count/query", ""};
    m["tab.bytes"] = {static_cast<double>(tab1.bytes), "bytes", "at the end"};
    m["sim.wall_ns_per_vt"] = {
        td.wall_ns / static_cast<double>(td.virtual_time), "ns/vt",
        "wall-clock, so it does not repeat exactly"};
    m["serve.queue_us_p50"] = {median(td.queue_us), "us", ""};
    m["serve.acquire_us_p50"] = {median(td.acquire_us), "us", "engine runs"};
    m["serve.parse_us_p50"] = {median(td.sparse_us), "us", "engine runs"};
    m["serve.run_us_p50"] = {median(td.run_us), "us", "engine runs"};
    m["serve.render_us_p50"] = {median(td.render_us), "us", ""};
    m["serve.pool_hit_ratio"] = {ratio(m1.pool_hits - m0.pool_hits,
                                       m1.pool_misses - m0.pool_misses),
                                 "ratio", ""};
    m["serve.cache_hit_ratio"] = {ratio(m1.cache_hits - m0.cache_hits,
                                        m1.cache_misses - m0.cache_misses),
                                  "ratio", ""};
    const std::uint64_t bypass = m1.cache_bypasses - m0.cache_bypasses;
    m["serve.cache_bypass_ratio"] = {
        ratio(bypass, m1.cache_hits - m0.cache_hits + m1.cache_misses -
                          m0.cache_misses),
        "ratio", "bypassed over all requests"};
    m["serve.cache_invalidations"] = {
        static_cast<double>(m1.cache_invalidations - m0.cache_invalidations) /
            n,
        "count/query", ""};
    m["serve.rejected"] = {static_cast<double>(m1.rejected - m0.rejected) / n,
                           "count/query", ""};
    m["analysis.purity_rebuild_us"] = {purity_rebuild_us(), "us",
                                       "from_database + analyze_purity"};
    finish_traced_run(opt_, traced, td.probe, td.spans, out_);
  }

 private:
  static double ratio(std::uint64_t part, std::uint64_t rest) {
    const std::uint64_t all = part + rest;
    return all > 0 ? static_cast<double>(part) / static_cast<double>(all) : 0;
  }

  static std::string sample_note(const std::vector<double>& v) {
    return "n=" + std::to_string(v.size()) + " untraced samples";
  }

  static ace::QueryRequest request_for(const Request& r) {
    return ace::QueryRequestBuilder(r.query)
        .engine(timed_engines(WorkloadId::ServeMixed)[0])
        .tenant(r.tenant)
        .build();
  }

  void timed_phase(RequestStream& stream, double seconds, Tally& t,
                   std::map<Kind, std::vector<double>>& by_kind,
                   TraceData* td) {
    ace::QueryService& svc = *setup_->service;
    t.begin();
    std::vector<InFlight> inflight;
    std::uint64_t done = 0;
    bool draining = false;
    for (;;) {
      if (!draining && seconds_between(t.start, Clock::now()) >= seconds) {
        draining = true;
      }
      while (!draining && inflight.size() < kInFlight) {
        Request req = stream.next();
        // In the generator thread, as root spans of their own.
        if (td != nullptr) td->probe.run(td->spans, req.query, -1, 0);
        InFlight f;
        f.sent = Clock::now();
        f.ticket = svc.submit(request_for(req));
        f.req = std::move(req);
        inflight.push_back(std::move(f));
      }
      if (inflight.empty()) break;
      // Poll every in-flight future so each completion is timed when it
      // happens, not when an older request finishes.
      bool any = false;
      for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].ticket.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point now = Clock::now();
        complete(inflight[i], now, t, by_kind, td, ++done);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
        any = true;
      }
      if (!any) std::this_thread::yield();
    }
  }

  void complete(InFlight& f, Clock::time_point now, Tally& t,
                std::map<Kind, std::vector<double>>& by_kind, TraceData* td,
                std::uint64_t done) {
    const ace::QueryResult r = f.ticket.result.get();
    const PoolEntry& e = entries_[f.req.entry];
    const bool ok = out_.check(opt_.reference, e, r);
    const std::uint64_t ns = ns_between(f.sent, now);
    t.add(now, static_cast<double>(ns) / 1e6, ok, r.stats.resolutions);
    by_kind[e.kind].push_back(static_cast<double>(ns) / 1e3);
    if (td == nullptr) return;

    const std::int64_t root = td->spans.add(
        "serve.request", td->spans.at(f.sent), td->spans.at(now), -1, r.id);
    // The service's own phase boundaries, laid end to end from submission.
    const ace::PhaseNanos& p = r.phases;
    std::uint64_t cursor = td->spans.at(f.sent);
    const bool ran = !r.cache_hit;
    auto phase = [&](const char* name, std::uint64_t phase_ns,
                     std::vector<double>& samples, bool sample) {
      td->spans.add(name, cursor, cursor + phase_ns, root, r.id);
      cursor += phase_ns;
      if (sample) samples.push_back(static_cast<double>(phase_ns) / 1e3);
    };
    phase("serve.queue", p.queue_ns, td->queue_us, true);
    phase("serve.acquire", p.acquire_ns, td->acquire_us, ran);
    phase("parse.serve_query", p.parse_ns, td->sparse_us, ran);
    phase("engine.run", p.run_ns, td->run_us, ran);
    phase("serve.render", p.render_ns, td->render_us, true);
    if (ran) {
      td->wall_ns += static_cast<double>(p.run_ns);
      td->virtual_time += r.virtual_time;
    }
    if (done % 16 == 0) {
      const ace::Database::HealthStats h = setup_->db->health_stats();
      td->limbo += static_cast<double>(h.limbo_depth);
      td->versions += static_cast<double>(h.index_versions);
      td->lag += static_cast<double>(h.epoch_lag);
      ++td->health_samples;
    }
  }

  // The purity re-analysis the service runs after a write, timed on the
  // live database while the service is idle.
  double purity_rebuild_us() {
    ace::Database& db = *setup_->db;
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const ace::AbsProgram prog =
          ace::AbsProgram::from_database(db.syms(), db);
      const ace::PuritySummary summary = ace::analyze_purity(prog, db.syms());
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    return median(us);
  }

  const RunOptions& opt_;
  RunResult& out_;
  const std::vector<PoolEntry>& entries_;
  std::unique_ptr<ServeSetup> setup_;
};

}  // namespace

RunResult run_serve(const RunOptions& opt) {
  RunResult out;
  out.latency_source = "client wall time, submit to result";
  ServeDriver(opt, out).run();
  return out;
}

}  // namespace wb
