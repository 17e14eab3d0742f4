#include "corpus.hpp"

#include <cstdio>
#include <fstream>
#include <set>

#include "builtins/lib.hpp"
#include "common.hpp"
#include "db/database.hpp"
#include "support/diag.hpp"
#include "support/strutil.hpp"
#include "workloads/graphs.hpp"
#include "workloads/programs.hpp"

namespace wb {

std::optional<WorkloadId> parse_workload(const std::string& name) {
  if (name == "batch_andp") return WorkloadId::BatchAndp;
  if (name == "batch_orp") return WorkloadId::BatchOrp;
  if (name == "serve_mixed") return WorkloadId::ServeMixed;
  return std::nullopt;
}

const char* workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::BatchAndp: return "batch_andp";
    case WorkloadId::BatchOrp: return "batch_orp";
    case WorkloadId::ServeMixed: return "serve_mixed";
  }
  return "?";
}

namespace {

// Deterministic programs are asked for their first solution; the search
// programs enumerate all of them.
PoolEntry first(const std::string& scope, const std::string& q) {
  return {scope, q, Kind::PureRead, 1, false};
}
PoolEntry all(const std::string& scope, const std::string& q) {
  return {scope, q, Kind::PureRead, 1, true};
}

// Sizes keep every program's share of a round's run time within a few
// times of the others' (see `wallbench --calibrate`).
std::vector<PoolEntry> make_andp_pool() {
  return {
      first("takeuchi", "takeuchi(9, 6, 2, A)."),
      first("takeuchi", "takeuchi(7, 4, 1, A)."),
      first("hanoi", "htop(6, Len)."),
      first("hanoi", "htop(7, Len)."),
      first("fib", "fibp(10, F)."),
      first("fib", "fibp(11, F)."),
      first("matrix", "matrix(5, S)."),
      first("matrix", "matrix(6, S)."),
      first("quick_sort", "quick_sort(40, S)."),
      first("quick_sort", "quick_sort(60, S)."),
      first("bt_cluster", "bt_cluster(30, Out)."),
      first("bt_cluster", "bt_cluster(45, Out)."),
      first("pderiv", "pderiv(4, 5, S)."),
      first("pderiv", "pderiv(3, 4, S)."),
      first("annotator", "annotator(12, Out)."),
      first("annotator", "annotator(18, Out)."),
      first("map1", "map1(6, 6, Out)."),
      first("map1", "map1(8, 8, Out)."),
      first("occur", "occur(40, Cs)."),
      first("occur", "occur(60, Cs)."),
      first("nrev", "nrev_top(30, Last)."),
      first("nrev", "nrev_top(45, Last)."),
  };
}

std::vector<PoolEntry> make_orp_pool() {
  return {
      // Search: sharing pays.
      all("queens1", "queens1(5, Qs)."),
      all("queens1", "queens1(6, Qs)."),
      all("queens2", "queens2(5, Qs)."),
      all("queens2", "queens2(6, Qs)."),
      first("puzzle", "puzzle(S)."),
      all("members", "members(12, V, R)."),
      all("members", "members(8, V, R)."),
      all("maps", "maps(Cs)."),
      all("ancestors", "anc(2, X)."),
      all("ancestors", "anc(4, X)."),
      // Deterministic: copying only costs.
      first("hanoi", "htop(5, Len)."),
      first("hanoi", "htop(6, Len)."),
      first("fib", "fibp(9, F)."),
      first("fib", "fibp(10, F)."),
      first("annotator", "annotator(8, Out)."),
      first("bt_cluster", "bt_cluster(12, Out)."),
      first("quick_sort", "quick_sort(16, S)."),
  };
}

// serve_mixed: corpus programs that share no predicate names, so they load
// into one database.
const char* const kServePrograms[] = {
    "takeuchi", "fib",        "hanoi",   "nrev", "queens1",
    "quick_sort", "bt_cluster", "members", "maps",
};

// Graph edge sets of the tabled family, each loaded under its own
// predicate names (tc_<g>, path_<g>, sg_<g>, edge_<g>).
struct GraphSet {
  const char* suffix;
  std::string edges;
};
std::vector<GraphSet> serve_graphs() {
  return {{"c64", ace::chain_edges(64)},
          {"g8", ace::grid_edges(8)},
          {"r64", ace::random_edges(64, 96, 7)}};
}

// `tmpl` with every `mark` character replaced by `with`.
std::string substitute(const std::string& tmpl, char mark,
                       const std::string& with) {
  std::string out;
  for (char c : tmpl) {
    if (c == mark) {
      out += with;
    } else {
      out += c;
    }
  }
  return out;
}

std::string graph_text(const GraphSet& g) {
  std::string text = substitute(
      ":- table tc_$/2, path_$/2, sg_$/2.\n"
      "tc_$(X, Y) :- tc_$(X, Z), edge_$(Z, Y).\n"
      "tc_$(X, Y) :- edge_$(X, Y).\n"
      "path_$(X, Y) :- edge_$(X, Y).\n"
      "path_$(X, Y) :- edge_$(X, Z), path_$(Z, Y).\n"
      "sg_$(X, X).\n"
      "sg_$(X, Y) :- edge_$(P, X), sg_$(P, Q), edge_$(Q, Y).\n",
      '$', g.suffix);
  // The generators emit "edge(a, b)." lines.
  text += substitute(g.edges, '(', std::string("_") + g.suffix + "(");
  return text;
}

// Dynamic key/value predicates kv<N>/2 hold kv<N>(K, V) for K in 1..N.
const unsigned kKvSizes[] = {32, 256, 2048};

long kv_value(long key) { return (key * 7919) % 10007; }

// A write template with its '@' placeholders replaced by `key`.
std::string fill_key(const std::string& tmpl, std::uint64_t key) {
  return substitute(tmpl, '@', std::to_string(key));
}

std::string kv_text() {
  std::string text = ":- dynamic kv32/2, kv256/2, kv2048/2.\n";
  for (unsigned n : kKvSizes) {
    for (unsigned k = 1; k <= n; ++k) {
      text += ace::strf("kv%u(%u, %ld).\n", n, k, kv_value(k));
    }
  }
  return text;
}

PoolEntry serve(Kind kind, const std::string& q, unsigned weight) {
  return {"serve", q, kind, weight, true};
}

// Weights make the pure reads skewed: a few popular queries and a long
// tail, so the result cache (smaller than the distinct key set) sees both
// hits and misses. Writes are about a tenth of each round.
std::vector<PoolEntry> make_serve_pool() {
  std::vector<PoolEntry> p;
  const unsigned skew[] = {8, 6, 5, 4, 3, 3, 2, 2, 2, 2};
  const char* pure[] = {
      "fibp(10, F).",          "htop(5, Len).",
      "nrev_top(20, Last).",   "takeuchi(6, 3, 0, A).",
      "quick_sort(20, S).",    "fibp(8, F).",
      "bt_cluster(10, Out).",  "queens1(5, Qs).",
      "members(6, V, R).",     "htop(4, Len).",
      "fibp(9, F).",           "fibp(11, F).",
      "fibp(12, F).",          "fibp(13, F).",
      "htop(6, Len).",         "htop(7, Len).",
      "nrev_top(10, Last).",   "nrev_top(30, Last).",
      "nrev_top(40, Last).",   "takeuchi(7, 4, 1, A).",
      "takeuchi(8, 4, 0, A).", "quick_sort(10, S).",
      "quick_sort(30, S).",    "bt_cluster(5, Out).",
      "bt_cluster(15, Out).",  "queens1(4, Qs).",
      "queens1(6, Qs).",       "members(4, V, R).",
      "members(8, V, R).",     "maps(Cs).",
  };
  std::size_t rank = 0;
  for (const char* q : pure) {
    p.push_back(serve(Kind::PureRead, q, rank < 10 ? skew[rank] : 1));
    ++rank;
  }
  for (const char* g : {"c64", "g8", "r64"}) {
    p.push_back(serve(Kind::Tabled, ace::strf("tc_%s(1, X).", g), 2));
    p.push_back(serve(Kind::Tabled, ace::strf("path_%s(1, X).", g), 1));
  }
  p.push_back(serve(Kind::Tabled, "sg_g8(28, X).", 1));
  p.push_back(serve(Kind::Tabled, "sg_c64(40, X).", 1));
  const unsigned keys[][3] = {{3, 17, 29}, {5, 100, 250}, {7, 1024, 2000}};
  for (std::size_t i = 0; i < 3; ++i) {
    for (unsigned k : keys[i]) {
      p.push_back(serve(Kind::DynRead,
                        ace::strf("kv%u(%u, V).", kKvSizes[i], k), 2));
    }
  }
  for (unsigned n : kKvSizes) {
    p.push_back(serve(Kind::Write,
                      ace::strf("assertz(kv%u(@, w)), retract(kv%u(@, w)).",
                                n, n),
                      4));
  }
  return p;
}

}  // namespace

const std::vector<PoolEntry>& pool(WorkloadId w) {
  static const std::vector<PoolEntry> andp = make_andp_pool();
  static const std::vector<PoolEntry> orp = make_orp_pool();
  static const std::vector<PoolEntry> srv = make_serve_pool();
  switch (w) {
    case WorkloadId::BatchAndp: return andp;
    case WorkloadId::BatchOrp: return orp;
    case WorkloadId::ServeMixed: return srv;
  }
  return andp;
}

std::vector<ace::EngineConfig> timed_engines(WorkloadId w) {
  ace::EngineConfig seq;
  switch (w) {
    case WorkloadId::BatchAndp: {
      ace::EngineConfig andp{.mode = ace::EngineMode::Andp, .agents = 4,
                             .lpco = true, .shallow = true, .pdo = true};
      return {seq, andp};
    }
    case WorkloadId::BatchOrp:
      return {ace::EngineConfig{
          .mode = ace::EngineMode::Orp, .agents = 4, .lao = true}};
    case WorkloadId::ServeMixed: return {seq};
  }
  return {seq};
}

const std::vector<std::vector<std::string>>& batch_databases(WorkloadId w) {
  static const std::vector<std::vector<std::string>> andp = {
      {"takeuchi", "hanoi", "fib", "matrix", "quick_sort", "bt_cluster",
       "pderiv", "annotator", "map1", "occur", "nrev"}};
  static const std::vector<std::vector<std::string>> orp = {
      {"queens1", "puzzle", "members", "maps", "ancestors", "hanoi", "fib",
       "annotator", "bt_cluster", "quick_sort"},
      {"queens2"}};
  return w == WorkloadId::BatchOrp ? orp : andp;
}

void load_batch_program(ace::Database& db, const std::string& scope) {
  ace::load_library(db);
  db.consult(ace::workload(scope).source);
}

void load_serve_database(ace::Database& db) {
  ace::load_library(db);
  for (const char* name : kServePrograms) {
    db.consult(ace::workload(name).source);
  }
  for (const GraphSet& g : serve_graphs()) db.consult(graph_text(g));
  db.consult(kv_text());
}

RequestStream::RequestStream(WorkloadId w, std::uint64_t seed)
    : workload_(w), rng_(seed) {
  const std::vector<PoolEntry>& p = pool(w);
  for (std::size_t i = 0; i < p.size(); ++i) {
    deck_.insert(deck_.end(), p[i].weight, i);
  }
  pos_ = deck_.size();  // shuffle on first draw
}

Request RequestStream::next() {
  if (pos_ == deck_.size()) {
    for (std::size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.below(i)]);
    }
    pos_ = 0;
  }
  Request r;
  r.entry = deck_[pos_++];
  const PoolEntry& e = pool(workload_)[r.entry];
  r.query = e.query;
  if (workload_ == WorkloadId::ServeMixed) {
    r.tenant = ace::strf("t%02u", static_cast<unsigned>(rng_.below(16)));
  }
  if (e.kind == Kind::Write) {
    // A fresh key per write: the pair is net-zero and never matches a
    // key any read asks for.
    r.query = fill_key(e.query, 1000000 + writes_++);
  }
  return r;
}

std::string stream_text(WorkloadId w, std::uint64_t seed, std::size_t n) {
  RequestStream s(w, seed);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    Request r = s.next();
    out += r.tenant + "\t" + r.query + "\n";
  }
  return out;
}

// ---- Reference answers ----------------------------------------------------

std::string reference_key(const PoolEntry& e) {
  return e.scope + "\t" + e.query;
}

ReferenceTable load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ace::AceError("cannot read reference answers: " + path);
  ReferenceTable table;
  std::size_t lineno = 0;
  for (std::string line; std::getline(in, line);) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    // scope TAB count TAB digest TAB query
    std::vector<std::string> f;
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i) {
      const std::size_t tab = line.find('\t', pos);
      if (tab == std::string::npos) break;
      f.push_back(line.substr(pos, tab - pos));
      pos = tab + 1;
    }
    if (f.size() != 3) {
      throw ace::AceError(ace::strf("%s:%zu: malformed reference line",
                                    path.c_str(), lineno));
    }
    Expected x;
    x.count = std::stoul(f[1]);
    x.digest = f[2];
    table[f[0] + "\t" + line.substr(pos)] = x;
  }
  return table;
}

namespace {

// The first argument of a query text as an integer, e.g. the 12 of
// "fibp(12, F).".
long first_int_arg(const std::string& q) {
  return std::stol(q.substr(q.find('(') + 1));
}

}  // namespace

std::string closed_form_mismatch(const PoolEntry& e, const Expected& x) {
  const std::string& q = e.query;
  auto expect_one = [&](const std::string& solution) -> std::string {
    Expected want{1, answer_digest({solution})};
    if (x.count == want.count && x.digest == want.digest) return "";
    return "closed form says \"" + solution + "\"";
  };
  if (q.rfind("fibp(", 0) == 0) {
    long n = first_int_arg(q), a = 0, b = 1;
    for (long i = 0; i < n; ++i) {
      const long c = a + b;
      a = b;
      b = c;
    }
    return expect_one("F = " + std::to_string(a));
  }
  if (q.rfind("htop(", 0) == 0) {
    return expect_one("Len = " +
                      std::to_string((1L << first_int_arg(q)) - 1));
  }
  if (q.rfind("nrev_top(", 0) == 0) {
    return expect_one("Last = " + std::to_string(first_int_arg(q)));
  }
  if (q.rfind("queens1(", 0) == 0 || q.rfind("queens2(", 0) == 0) {
    static const std::map<long, std::size_t> kQueens = {
        {4, 2}, {5, 10}, {6, 4}, {7, 40}, {8, 92}};
    const auto it = kQueens.find(first_int_arg(q));
    if (it == kQueens.end() || it->second == x.count) return "";
    return ace::strf("closed form says %zu solutions", it->second);
  }
  if (q.rfind("kv", 0) == 0 && e.kind == Kind::DynRead) {
    return expect_one("V = " + std::to_string(kv_value(first_int_arg(q))));
  }
  return "";
}

namespace {

struct Answer {
  bool completed = false;
  std::string error;
  Expected got;
};

Answer run_one(ace::Engine& eng, const PoolEntry& e, const std::string& q) {
  ace::QueryBudget budget;
  budget.max_solutions = e.all_solutions ? SIZE_MAX : 1;
  ace::QueryResult r = eng.query(q, budget);
  Answer a;
  a.completed = r.completed();
  a.error = r.error;
  a.got.count = r.solutions.size();
  a.got.digest = answer_digest(std::move(r.solutions));
  return a;
}

}  // namespace

bool write_reference(const std::string& path) {
  bool ok = true;
  std::set<std::string> written;  // pools may share a query
  std::string out =
      "# Reference answers of the wall-clock benchmark, one per pool entry:\n"
      "# scope TAB solution-count TAB digest TAB query. The digest is\n"
      "# FNV-1a 64 over the sorted solution strings. Regenerate with\n"
      "# `python3 wallbench/run.py --write-reference`.\n";
  auto record = [&](const PoolEntry& e, const std::vector<Answer>& answers) {
    const Answer& ref = answers.front();
    if (!ref.completed) {
      std::fprintf(stderr, "reference: %s did not complete: %s\n",
                   e.query.c_str(), ref.error.c_str());
      ok = false;
      return;
    }
    for (const Answer& a : answers) {
      if (!a.completed || a.got.count != ref.got.count ||
          a.got.digest != ref.got.digest) {
        std::fprintf(stderr, "reference: engines disagree on %s\n",
                     e.query.c_str());
        ok = false;
      }
    }
    const std::string why = closed_form_mismatch(e, ref.got);
    if (!why.empty()) {
      std::fprintf(stderr, "reference: %s: %s\n", e.query.c_str(),
                   why.c_str());
      ok = false;
    }
    if (!written.insert(reference_key(e)).second) return;
    out += ace::strf("%s\t%zu\t%s\t%s\n", e.scope.c_str(), ref.got.count,
                     ref.got.digest.c_str(), e.query.c_str());
  };

  for (WorkloadId w : {WorkloadId::BatchAndp, WorkloadId::BatchOrp}) {
    for (const PoolEntry& e : pool(w)) {
      ace::Database db;
      load_batch_program(db, e.scope);
      std::vector<Answer> answers;
      ace::Engine seq(db);
      answers.push_back(run_one(seq, e, e.query));
      for (const ace::EngineConfig& cfg : timed_engines(w)) {
        ace::Engine eng(db, cfg);
        answers.push_back(run_one(eng, e, e.query));
      }
      record(e, answers);
    }
  }
  ace::Database db;
  load_serve_database(db);
  ace::Engine seq(db);
  std::uint64_t fresh = 999000;
  for (const PoolEntry& e : pool(WorkloadId::ServeMixed)) {
    const std::string q =
        e.kind == Kind::Write ? fill_key(e.query, fresh++) : e.query;
    record(e, {run_one(seq, e, q)});
  }
  if (!ok) return false;
  std::ofstream f(path);
  f << out;
  return static_cast<bool>(f);
}

}  // namespace wb
