#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wb {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::size_t count_above(const std::vector<double>& samples, double p) {
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

std::string answer_digest(std::vector<std::string> solutions) {
  std::sort(solutions.begin(), solutions.end());
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& s : solutions) {
    for (unsigned char c : s) mix(c);
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

HostStamp host_stamp() {
  HostStamp h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_model();
  h.compiler = WALLBENCH_COMPILER;
  h.build_type = WALLBENCH_BUILD_TYPE;
  return h;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double rss_peak_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotor::CpuRotor(std::size_t first) : last_(Clock::now()) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
  if (!cpus_.empty()) next_ = first % cpus_.size();
}

CpuRotor::~CpuRotor() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotor::advance() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_], &mask);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof mask, &mask);
}

std::int64_t SpanLog::add(std::string name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t parent,
                          std::uint64_t query) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, query});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanLog::LayerRow> SpanLog::self_time_by_layer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    LayerRow& r = rows[s.name.substr(0, s.name.find('.'))];
    r.spans += 1;
    r.total_ns += dur;
    r.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return rows;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace wb
