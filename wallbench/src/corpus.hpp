// What the benchmark runs: the three workloads' query pools, the programs
// behind them, the seeded request streams, and the reference answers every
// response is checked against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "support/rng.hpp"

namespace wb {

enum class WorkloadId { BatchAndp, BatchOrp, ServeMixed };

std::optional<WorkloadId> parse_workload(const std::string& name);
const char* workload_name(WorkloadId w);

// What a served request does; the batch workloads only use PureRead.
enum class Kind { PureRead, Tabled, DynRead, Write };

// One distinct query of a workload's pool. For writes, `query` is a
// template whose '@' is replaced by a fresh key per request.
struct PoolEntry {
  std::string scope;  // program name (batch) or "serve"
  std::string query;
  Kind kind = Kind::PureRead;
  unsigned weight = 1;  // copies per round of the stream
  bool all_solutions = true;
};

const std::vector<PoolEntry>& pool(WorkloadId w);

// The engines each request of a workload runs on, in order: batch_andp
// runs seq then andp x4 (LPCO, SHALLOW, PDO); batch_orp runs orp x4 with
// LAO; serve_mixed submits seq requests.
std::vector<ace::EngineConfig> timed_engines(WorkloadId w);

// Loads the library plus the program a batch pool entry's scope names.
void load_batch_program(ace::Database& db, const std::string& scope);

// The databases a batch workload runs on, each a list of programs: the
// programs of one database define no predicate in common, so a client
// keeps one warm engine per configuration and database. (queens1 and
// queens2 both define qsafe/3, differently.)
const std::vector<std::vector<std::string>>& batch_databases(WorkloadId w);
// Loads the serve_mixed database: library, corpus programs, three renamed
// tabled graph programs and the dynamic key/value predicates.
void load_serve_database(ace::Database& db);

// The seeded request stream. Every round is a seeded shuffle of the whole
// pool (each entry `weight` times), so every seed draws the same mix in a
// different order. The same seed always yields the same stream.
struct Request {
  std::size_t entry = 0;  // index into pool(w)
  std::string tenant;     // serve_mixed only
  std::string query;      // the text the program receives
};

class RequestStream {
 public:
  RequestStream(WorkloadId w, std::uint64_t seed);
  Request next();

 private:
  WorkloadId workload_;
  ace::SplitMix64 rng_;
  std::vector<std::size_t> deck_;
  std::size_t pos_ = 0;
  std::uint64_t writes_ = 0;
};

// The first `n` requests of a stream, one line each (tenant TAB query).
std::string stream_text(WorkloadId w, std::uint64_t seed, std::size_t n);

// ---- Reference answers ----------------------------------------------------
struct Expected {
  std::size_t count = 0;
  std::string digest;  // answer_digest() of the solutions
};

// Keyed by reference_key(entry).
using ReferenceTable = std::map<std::string, Expected>;

std::string reference_key(const PoolEntry& e);

// Reads the checked-in table; throws ace::AceError on a malformed file.
ReferenceTable load_reference(const std::string& path);

// Cross-checks `e`'s expected answer against a closed form where one
// exists (fibp, hanoi moves, queens counts, key/value facts, nrev).
// Returns an empty string when it agrees or no closed form applies,
// otherwise what disagrees.
std::string closed_form_mismatch(const PoolEntry& e, const Expected& x);

// Runs every pool entry of every workload on the sequential engine,
// cross-checks it on the workload's parallel engines and against closed
// forms, and writes the table to `path`. Returns false when any check
// disagrees (the file is then not written).
bool write_reference(const std::string& path);

}  // namespace wb
