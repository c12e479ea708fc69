#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory_resource>
#include <numeric>
#include <unordered_map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void use_one_cpu() {
  mallopt(M_ARENA_MAX, 1);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Report::check(bool ok, const std::string& what) {
  attempted++;
  if (!ok) {
    failed++;
    std::fprintf(stderr, "[perfbench] check failed: %s\n", what.c_str());
  }
}

namespace {

volatile std::uint64_t probe_sink;

/// The probe's own memory, so that its time does not depend on the state of
/// the process heap: inside the service, whose heap the eval cache fills,
/// the same work on malloc'd memory read 2.5x slower than in `tune`.
constexpr std::size_t kProbeBytes = std::size_t{4} << 20;
alignas(64) std::byte probe_memory[kProbeBytes];

/// The probe's fixed work, about 4 ms on the reference machine: a sort of
/// 16k random keys and a 4k-entry hash table, both cache-resident, then 40k
/// inserts and 40k lookups in a hash table of about 1.5 MB, which misses the
/// caches.  The second part is what lets the probe follow the slow spells:
/// the cache-resident part alone slowed about half as much as `tune` did.
std::uint64_t probe_work() {
  std::pmr::monotonic_buffer_resource arena(probe_memory, kProbeBytes,
                                            std::pmr::null_memory_resource());
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::pmr::vector<std::uint64_t> keys(16384, &arena);
  for (std::uint64_t& key : keys) {
    x = mix_seed(x, 1);
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> small(&arena);
  small.reserve(8192);
  for (std::size_t i = 0; i < 4096; ++i) small[keys[4 * i] >> 20] += i;
  std::uint64_t acc = 0;
  for (const auto& [key, value] : small) acc += key ^ value;

  std::pmr::unordered_map<std::uint64_t, std::uint64_t> large(&arena);
  large.reserve(65536);
  for (int i = 0; i < 40000; ++i) {
    x = mix_seed(x, 2);
    large[x & 0xFFFFF] += 1;
  }
  for (int i = 0; i < 40000; ++i) {
    x = mix_seed(x, 2);
    const auto it = large.find(x & 0xFFFFF);
    if (it != large.end()) acc += it->second;
  }
  return acc;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void SpeedProbe::tick() {
  if (last_ < 0 || now_s() - last_ >= kProbeInterval) run();
}

void SpeedProbe::run() {
  // The first run in the process pays the page faults of the probe's memory;
  // it stays untimed.
  static const std::uint64_t warm = probe_work();
  probe_sink = warm;
  const double t0 = thread_cpu_s();
  probe_sink = probe_work();
  seconds_ += thread_cpu_s() - t0;
  runs_++;
  last_ = now_s();
}

double SpeedProbe::slowdown() const {
  if (runs_ == 0) return 1;
  return seconds_ / static_cast<double>(runs_) / kReferenceProbeSeconds;
}

SetUpTimer::SetUpTimer() {
  for (int i = 0; i < kProbes; ++i) probe_.run();
  start_ = now_s();
}

double SetUpTimer::seconds() {
  const double seconds = now_s() - start_;
  for (int i = 0; i < kProbes; ++i) probe_.run();
  return seconds / probe_.slowdown();
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  const double slowdown = e2e.probe.slowdown();
  char line[200];
  std::snprintf(line, sizeof line,
                "speed probe %.6g ms mean over %llu runs (reference %.6g ms): times "
                "scaled by 1/%.4f",
                e2e.probe.seconds() / static_cast<double>(std::max<std::uint64_t>(
                                          1, e2e.probe.runs())) * 1e3,
                static_cast<unsigned long long>(e2e.probe.runs()),
                SpeedProbe::kReferenceProbeSeconds * 1e3, slowdown);
  report.note(line);
  report.add("setup_s", median(e2e.setup_seconds), "s");
  report.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.add("throughput_per_s", e2e.work / e2e.seconds * slowdown, "1/s");
  report.add("latency_ms", e2e.latency_s / slowdown * 1e3, "ms");
}

void check_layers_add_up(Report& report, const std::string& what, double end_to_end_s,
                         double layers_s) {
  const double residual = end_to_end_s - layers_s;
  const double share = end_to_end_s > 0 ? residual / end_to_end_s : 1;
  char line[240];
  std::snprintf(line, sizeof line,
                "layer residual (%s): end-to-end %.6g s, layers %.6g s, residual %.6g s "
                "(%.2f%%, gate 10%%)",
                what.c_str(), end_to_end_s, layers_s, residual, share * 100);
  report.note(line);
  report.check(std::abs(share) <= 0.10, "layer self times do not add up for " + what);
}

}  // namespace perfbench
