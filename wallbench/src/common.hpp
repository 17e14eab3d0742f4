// Shared pieces of the wall-clock benchmark: clocks, raw-sample
// percentiles, the order-insensitive answer digest, the metric sheet the
// driver prints, the host stamp, and the in-memory span recorder of the
// traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Nearest-rank percentile over every raw sample (no buckets): the value at
// rank ceil(p/100 * n). Never exceeds the maximum sample. Empty input
// yields 0.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

// Number of samples strictly above the p-th percentile.
std::size_t count_above(const std::vector<double>& samples, double p);

// Order-insensitive digest of a solution list: FNV-1a 64 over the sorted
// solution strings, '\n'-separated. Rendered as 16 hex digits.
std::string answer_digest(std::vector<std::string> solutions);

// One named measurement as the driver prints it.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

// Ordered name -> metric map; the driver prints it as text lines and as
// the "metrics" object of the final JSON line.
using MetricSheet = std::map<std::string, Metric>;

// Host identity recorded with every result.
struct HostStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
HostStamp host_stamp();

// CPU time the calling thread has used, in milliseconds. It leaves out
// the intervals in which the thread was not running, including time the
// hypervisor gave the virtual CPU to another guest.
double thread_cpu_ms();

// Peak resident set size of this process, in MiB.
double rss_peak_mb();

// Moves the calling thread round-robin over the CPUs it may run on. On a
// shared host each virtual CPU's speed drifts independently for seconds at
// a time, and a single-threaded loop would otherwise stay on one of them;
// rotating averages the drift over all of them. The destructor restores
// the original CPU mask.
class CpuRotor {
 public:
  static constexpr std::chrono::milliseconds kStep{50};

  // The first advance() moves to the `first`-th allowed CPU (modulo their
  // count).
  explicit CpuRotor(std::size_t first = 0);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  // Moves to the next CPU.
  void advance();
  // Moves to the next CPU when kStep has passed since the last move.
  void tick(Clock::time_point now) {
    if (now - last_ >= kStep) {
      last_ = now;
      advance();
    }
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point last_;
};

// In-memory span recorder for the traced run. Spans nest by explicit
// parent ids; they are written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;  // "<layer>.<operation>"
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  // index of the parent span, -1 = root
    std::uint64_t query = 0;   // query id shared by one request's spans
  };

  SpanLog() : origin_(Clock::now()) {}

  // Span timestamps are nanoseconds since the log was created.
  std::uint64_t at(Clock::time_point t) const { return ns_between(origin_, t); }
  std::uint64_t now_ns() const { return at(Clock::now()); }

  // Records a finished span and returns its index (usable as a parent).
  std::int64_t add(std::string name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent,
                   std::uint64_t query);

  // Sets the end of a span recorded before its children.
  void close(std::int64_t id, std::uint64_t end_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  // Per layer (the name up to its first '.'): span count, total time and
  // self time (duration minus the time its direct children cover).
  struct LayerRow {
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, LayerRow> self_time_by_layer() const;

  // Writes every span as one JSON document. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Formats a double with enough digits to round-trip.
std::string fmt_double(double v);

}  // namespace wb
