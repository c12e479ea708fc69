// perfbench: the tunespace repository benchmark.
//
//   perfbench --workload <construct|tune|service> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Runs one workload for --seconds, checks its outputs, and prints every
// metric as a "name value unit" line followed, as the last line of stdout,
// by one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer (trace.hpp) and reports the
// per-layer ones, writing the spans to <work-dir>/trace-<workload>.csv.
// Every workload prints every metric of the selected kind; a layer the
// workload does not exercise reads 0.  Names and units match BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Name {
  const char* name;
  const char* unit;
};

constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},
};

constexpr Name kPerLayer[] = {
    {"expr.parse_s", "s"},
    {"expr.fold_s", "s"},
    {"expr.decompose_s", "s"},
    {"expr.recognize_s", "s"},
    {"expr.fallbacks", "count"},
    {"solver.solve_s", "s"},
    {"solver.nodes", "count"},
    {"solver.checks", "count"},
    {"solver.block_checks", "count"},
    {"solver.rows_per_node", "ratio"},
    {"solver.lane_fill", "ratio"},
    {"solver.tasks", "count"},
    {"solver.parallelism", "ratio"},
    {"searchspace.index_s", "s"},
    {"searchspace.bytes", "bytes"},
    {"tuner.optimizers_s", "s"},
    {"tuner.optimizers.random-sampling_s", "s"},
    {"tuner.optimizers.genetic-algorithm_s", "s"},
    {"tuner.optimizers.simulated-annealing_s", "s"},
    {"tuner.optimizers.hill-climbing_s", "s"},
    {"tuner.optimizers.differential-evolution_s", "s"},
    {"tuner.optimizers.nsga2_s", "s"},
    {"tuner.optimizers.surrogate_s", "s"},
    {"tuner.session_s", "s"},
    {"tuner.session.requests", "count"},
    {"tuner.session.evaluations", "count"},
    {"tuner.session.useful_ratio", "ratio"},
    {"tuner.kernels_s", "s"},
    {"tuner.service.open_us", "us"},
    {"tuner.service.suggest_us", "us"},
    {"tuner.service.report_us", "us"},
    {"tuner.service.close_us", "us"},
    {"tuner.service.cache_hit_ratio", "ratio"},
    {"tuner.protocol.codec_us", "us"},
    {"tuner.protocol.frame_bytes", "bytes"},
    {"tuner.protocol.http_bytes", "bytes"},
    {"tuner.server.frame_us", "us"},
    {"tuner.server.http_us", "us"},
    {"tuner.server.queue_us", "us"},
    {"process.cpu_s", "s"},
    {"process.parallelism", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <construct|tune|service> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               argv0);
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Print the metrics of the selected kind, in list order, then the JSON
/// result line.  A metric the workload did not report reads 0.
template <std::size_t N>
void print_result(const Report& report, const Name (&names)[N]) {
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    double value = 0;
    for (const Metric& m : report.metrics) {
      if (m.name == names[i].name) value = m.value;
    }
    std::printf("%-44s %.6g %s\n", names[i].name, value, names[i].unit);
    if (i > 0) json += ", ";
    json += '"';
    json += names[i].name;
    json += "\": {\"value\": ";
    json += json_number(value);
    json += ", \"unit\": \"";
    json += names[i].unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(arg, "--work-dir") == 0) {
      options.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return usage(argv[0]);

  trace::recorder().enable(options.trace);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Report report;
  try {
    if (options.workload == "construct") {
      report = run_construct(options);
    } else if (options.workload == "tune") {
      report = run_tune(options);
    } else if (options.workload == "service") {
      report = run_service(options);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  const double fail_ratio =
      report.attempted ? static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 0;
  char line[160];
  std::snprintf(line, sizeof line, "fail_ratio %.6g ratio (%llu of %llu operations)",
                fail_ratio, static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
  report.note(line);

  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload + ".csv";
    if (!trace::recorder().write_csv(path)) {
      std::fprintf(stderr, "[perfbench] could not write %s\n", path.c_str());
    }
    if (trace::recorder().dropped() > 0) {
      std::fprintf(stderr, "[perfbench] %llu spans over the memory cap were dropped\n",
                   static_cast<unsigned long long>(trace::recorder().dropped()));
    }
    print_result(report, kPerLayer);
  } else {
    print_result(report, kEndToEnd);
  }
  return 0;
}
