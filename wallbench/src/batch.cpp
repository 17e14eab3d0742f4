// batch_andp and batch_orp: one client runs the seeded query stream
// through ace::Engine::query, each query on every engine the workload
// names, and checks every answer.
#include <memory>

#include "builtins/lib.hpp"
#include "db/database.hpp"
#include "measure.hpp"
#include "workloads/programs.hpp"

namespace wb {
namespace {

constexpr int kSetupReps = 15;

// The workload's databases, each with one warm engine per timed
// configuration.
struct BatchSetup {
  std::vector<std::unique_ptr<ace::Database>> dbs;
  // engines[d][k] runs timed_engines(w)[k] on dbs[d].
  std::vector<std::vector<std::unique_ptr<ace::Engine>>> engines;
  std::map<std::string, std::size_t> db_of;  // program -> database index
  double consult_ms = 0;

  std::vector<std::unique_ptr<ace::Engine>>& engines_for(
      const PoolEntry& e) {
    return engines[db_of.at(e.scope)];
  }
};

std::unique_ptr<BatchSetup> build_setup(WorkloadId w) {
  auto s = std::make_unique<BatchSetup>();
  for (const std::vector<std::string>& programs : batch_databases(w)) {
    auto db = std::make_unique<ace::Database>();
    const Clock::time_point t0 = Clock::now();
    ace::load_library(*db);
    for (const std::string& p : programs) {
      db->consult(ace::workload(p).source);
      s->db_of[p] = s->dbs.size();
    }
    s->consult_ms += seconds_between(t0, Clock::now()) * 1e3;
    s->engines.emplace_back();
    for (const ace::EngineConfig& cfg : timed_engines(w)) {
      s->engines.back().push_back(std::make_unique<ace::Engine>(*db, cfg));
    }
    s->dbs.push_back(std::move(db));
  }
  return s;
}

ace::QueryBudget budget_for(const PoolEntry& e) {
  ace::QueryBudget b;
  b.max_solutions = e.all_solutions ? SIZE_MAX : 1;
  return b;
}

// What the traced phase gathers beyond the tally.
struct TraceData {
  SpanLog spans;
  ParseProbe probe;
  std::vector<double> engine_us;
  // Wall seconds per engine index, and the virtual time they ran.
  std::vector<double> engine_wall_s;
  double wall_ns = 0;
  std::uint64_t virtual_time = 0;
};

class BatchDriver {
 public:
  BatchDriver(const RunOptions& opt, RunResult& out)
      : opt_(opt), out_(out), entries_(pool(opt.workload)) {}

  void run() {
    std::vector<double> setup_s, consult_ms;
    {
      CpuRotor rotor;  // each set-up on the next CPU
      for (int rep = 0; rep < kSetupReps; ++rep) {
        setup_.reset();  // tear the previous one down outside the timing
        rotor.advance();
        const Clock::time_point t0 = Clock::now();
        setup_ = build_setup(opt_.workload);
        setup_s.push_back(seconds_between(t0, Clock::now()));
        consult_ms.push_back(setup_->consult_ms);
      }
    }
    out_.setup_s = median(setup_s);

    // Warm-up: every pool entry once on every engine. It also yields the
    // per-query counts, which repeat exactly for a given pool.
    PassCounts pass;
    for (const PoolEntry& e : entries_) {
      auto& engines = setup_->engines_for(e);
      for (auto& eng : engines) {
        ace::QueryResult r = eng->query(e.query, budget_for(e));
        check(e, r);
        pass.add(r);
      }
    }

    RequestStream stream(opt_.workload, opt_.seed);
    if (!opt_.trace) {
      timed_phase(stream, opt_.seconds, out_.tally, nullptr);
      return;
    }
    // Traced run: half untraced (the reference for the tracing
    // overhead), half traced, then the probes.
    timed_phase(stream, opt_.seconds / 2, out_.tally, nullptr);
    Tally traced;
    TraceData td;
    td.engine_wall_s.assign(timed_engines(opt_.workload).size(), 0);
    timed_phase(stream, opt_.seconds / 2, traced, &td);

    MetricSheet& m = out_.per_layer;
    put_pass_counts(m, pass);
    if (opt_.workload == WorkloadId::BatchOrp) {
      m["orp.wall_ratio"] = {orp_wall_ratio(), "ratio",
                             "orp x4 over orp x1 wall, one pool pass"};
    } else {
      m["andp.wall_ratio"] = {td.engine_wall_s[1] / td.engine_wall_s[0],
                              "ratio", "andp x4 over seq wall, traced phase"};
    }
    m["parse.consult_ms"] = {median(consult_ms), "ms", "all programs"};
    m["engine.run_us_p50"] = {median(td.engine_us), "us",
                              "span around Engine::query"};
    m["sim.wall_ns_per_vt"] = {
        td.wall_ns / static_cast<double>(td.virtual_time), "ns/vt",
        "wall-clock, so it does not repeat exactly"};
    put_db_health(m);
    finish_traced_run(opt_, traced, td.probe, td.spans, out_);
  }

 private:
  bool check(const PoolEntry& e, const ace::QueryResult& r) {
    return out_.check(opt_.reference, e, r);
  }

  void timed_phase(RequestStream& stream, double seconds, Tally& t,
                   TraceData* td) {
    CpuRotor rotor;
    t.begin();
    std::uint64_t qid = 0;
    while (seconds_between(t.start, Clock::now()) < seconds) {
      rotor.tick(Clock::now());
      const Request req = stream.next();
      const PoolEntry& e = entries_[req.entry];
      auto& engines = setup_->engines_for(e);
      ++qid;
      std::int64_t parent = -1;
      if (td != nullptr) {
        // Open the request span first so children can point at it.
        const std::uint64_t now = td->spans.now_ns();
        parent = td->spans.add("batch.request", now, now, -1, qid);
        td->probe.run(td->spans, req.query, parent, qid);
      }
      for (std::size_t k = 0; k < engines.size(); ++k) {
        // The call runs the whole engine (virtual driver) on this thread,
        // so its CPU time is the submit-to-result time the host let it
        // run: on a shared host, hypervisor steal of a few milliseconds
        // would otherwise set p99 on its own.
        const double c0 = thread_cpu_ms();
        const Clock::time_point t0 = Clock::now();
        ace::QueryResult r = engines[k]->query(req.query, budget_for(e));
        const Clock::time_point t1 = Clock::now();
        const double latency_ms = thread_cpu_ms() - c0;
        const bool ok = check(e, r);
        t.add(t1, latency_ms, ok, r.stats.resolutions);
        if (td != nullptr) {
          td->spans.add("engine.query", td->spans.at(t0), td->spans.at(t1),
                        parent, qid);
          const std::uint64_t ns = ns_between(t0, t1);
          td->engine_us.push_back(static_cast<double>(ns) / 1e3);
          td->engine_wall_s[k] += static_cast<double>(ns) / 1e9;
          td->wall_ns += static_cast<double>(ns);
          td->virtual_time += r.virtual_time;
        }
      }
      if (td != nullptr) {
        td->spans.close(parent, td->spans.now_ns());
      }
    }
  }

  // One pass over the pool on orp x4 and on orp x1 (same flags): the wall
  // cost or-parallel sharing adds per unit of work.
  double orp_wall_ratio() {
    double wall4 = 0, wall1 = 0;
    for (const PoolEntry& e : entries_) {
      ace::EngineConfig one = timed_engines(opt_.workload)[0];
      one.agents = 1;
      ace::Engine eng1(*setup_->dbs[setup_->db_of.at(e.scope)], one);
      ace::Engine& eng4 = *setup_->engines_for(e)[0];
      eng1.query(e.query, budget_for(e));  // warm the new engine
      Clock::time_point t0 = Clock::now();
      ace::QueryResult r4 = eng4.query(e.query, budget_for(e));
      Clock::time_point t1 = Clock::now();
      ace::QueryResult r1 = eng1.query(e.query, budget_for(e));
      Clock::time_point t2 = Clock::now();
      check(e, r4);
      check(e, r1);
      wall4 += seconds_between(t0, t1);
      wall1 += seconds_between(t1, t2);
    }
    return wall4 / wall1;
  }

  void put_db_health(MetricSheet& m) {
    double limbo = 0, lag = 0, versions = 0;
    for (const auto& db : setup_->dbs) {
      const ace::Database::HealthStats h = db->health_stats();
      limbo += static_cast<double>(h.limbo_depth);
      lag += static_cast<double>(h.epoch_lag);
      versions = static_cast<double>(h.index_versions);  // process-wide
    }
    m["db.limbo_depth"] = {limbo, "count", "summed over the databases"};
    m["db.epoch_lag"] = {lag, "count", "summed over the databases"};
    m["db.index_versions"] = {versions, "count", "process-wide"};
  }

  const RunOptions& opt_;
  RunResult& out_;
  const std::vector<PoolEntry>& entries_;
  std::unique_ptr<BatchSetup> setup_;
};

}  // namespace

RunResult run_batch(const RunOptions& opt) {
  RunResult out;
  out.latency_source = "thread CPU time of each call";
  BatchDriver(opt, out).run();
  return out;
}

}  // namespace wb
