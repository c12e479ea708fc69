#pragma once
// Shared plumbing of the perfbench harness: command-line options, clocks,
// order statistics, process counters and the result record every workload
// fills in.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Steady-clock seconds since an arbitrary epoch.
double now_s();
/// CPU seconds consumed by every thread of the process so far.
double process_cpu_s();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// Run the rest of the process on one CPU: restrict the calling thread, and
/// every thread it starts afterwards, to the last CPU it may run on, and
/// malloc to one arena.  Call it before starting any thread.  On a shared
/// virtual machine a hand-off between threads on different virtual CPUs
/// waits until the host runs the woken CPU, which made the thread-heavy
/// workloads swing by up to 5x between identical runs; on one CPU every
/// hand-off is a local context switch.  With per-thread arenas the peak RSS
/// depended on which threads happened to collide on an arena lock.
void use_one_cpu();

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);

/// splitmix64: derives independent seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports.  `metrics` goes into the JSON result line; `notes`
/// are printed as human-readable lines above it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one checked operation; a false `ok` counts as a failure and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// How fast the machine runs right now, measured by a fixed piece of work
/// that belongs to the benchmark (random keys, a sort, hash tables) and
/// runs in memory of its own.
///
/// On a virtual machine whose host is shared, the same code runs up to 1.5x
/// slower for tens of seconds at a time, on every virtual CPU at once.  A
/// 30-s run catches one or two such spells, so its raw times moved 15-20%
/// (IQR / median) from run to run.  The probe runs between units of the
/// workload's own work, spread evenly over the timed loop, and meets the
/// same spells.  Dividing the run's times by the probe's mean slowdown cut
/// the spread of 30-s windows of long `tune` recordings from 7-14% to 2-3%.
/// The probe's code never changes with the library, so a change to the
/// program moves the scaled figures as it moves the raw ones.
class SpeedProbe {
 public:
  static constexpr double kProbeInterval = 0.1;
  /// The probe's time on the reference machine: the calm figure on the
  /// 4-vCPU virtual machine (Intel Xeon) the benchmark was tuned on.
  static constexpr double kReferenceProbeSeconds = 4e-3;

  /// Run the probe if kProbeInterval seconds of wall time have passed since
  /// it last ran.  Call it between units of work, never inside one.
  void tick();
  /// Run the probe now, timed in CPU seconds of the calling thread.
  void run();
  /// CPU seconds spent in the probe.
  double seconds() const { return seconds_; }
  std::uint64_t runs() const { return runs_; }
  /// Mean probe time over kReferenceProbeSeconds: 1.5 means the machine ran
  /// 1.5x slower than the reference.  1 before the first run.
  double slowdown() const;

 private:
  double last_ = -1;
  double seconds_ = 0;
  std::uint64_t runs_ = 0;
};

/// What an untraced run measured, reduced to the end-to-end metrics every
/// workload reports (see BENCHMARK.json).  Every time is scaled to the
/// reference machine by the probes that ran beside it (SpeedProbe).
struct EndToEnd {
  std::vector<double> setup_seconds;  ///< one per set-up repetition, scaled
  double work = 0;       ///< units of work completed in the timed loop
  double seconds = 0;    ///< wall seconds the timed loop spent on that work
  double latency_s = 0;  ///< the workload's latency figure, raw
  SpeedProbe probe;      ///< probes run during the timed loop
  /// Peak RSS of the timed loop, read before the run's own bookkeeping.
  double peak_rss_mb = 0;
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

/// The traced run's gate: layer self times must add back up to the
/// end-to-end time they split, within 10% (ROADMAP item 1).  Counted as one
/// check and printed with its residual.
void check_layers_add_up(Report& report, const std::string& what, double end_to_end_s,
                         double layers_s);

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupRepetitions = 3;

/// Wall time of one set-up repetition, scaled to the reference machine by
/// probes run right before it starts and right after it ends.
class SetUpTimer {
 public:
  /// Probe, then start the clock.
  SetUpTimer();
  /// Stop the clock, probe, and return the scaled seconds.
  double seconds();

 private:
  static constexpr int kProbes = 4;  ///< probe runs on each side
  SpeedProbe probe_;
  double start_ = 0;
};

}  // namespace perfbench
