// Figure 5: construction performance on the eight real-world spaces for the
// five methods.
//   A: per-space times + scaling fit vs #valid configurations
//   B: scaling fit vs Cartesian size
//   C: per-method time distributions
//   D: time vs sparsity (fraction constrained)
//   E: time vs number of tunable parameters
//   F: total time per method with speedups
//
// Brute force on ATF PRL 8x8 sweeps a 2.4e9 Cartesian product (~minutes);
// set TUNESPACE_BENCH_FAST=1 to skip brute force on spaces > 1e8.
//
// Optimized and ATF take milliseconds per space, so each is timed best of
// kBestOf runs; the three slower methods keep one run.  The per-space and
// total seconds per method go to BENCH_construction.json, with
// total_atf_speedup (ATF total / optimized total), the figure
// compare_baselines.py gates.
//
// CI gate:  bench_fig5_realworld --check-order
// exits non-zero unless the Fig. 5F totals keep the paper's ordering:
// optimized < ATF < original < pyATF < brute force.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>

#include "bench_common.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/stats.hpp"
#include "tunespace/util/table.hpp"

using namespace tunespace;

namespace {

constexpr int kBestOf = 5;

/// The paper's Fig. 5F ordering, fastest first.
const char* const kPaperOrder[] = {"optimized", "ATF", "original", "pyATF",
                                   "brute-force"};

const bench::MethodSeries* find_series(const std::vector<bench::MethodSeries>& series,
                                       const std::string& name) {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void write_json(const std::vector<bench::MethodSeries>& series,
                const std::vector<std::vector<std::string>>& space_names,
                double atf_speedup) {
  std::FILE* f = std::fopen("BENCH_construction.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write BENCH_construction.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"construction\",\n");
  std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
  std::fprintf(f, "  \"best_of\": %d,\n", kBestOf);
  std::fprintf(f, "  \"total_atf_speedup\": %.2f,\n", atf_speedup);
  std::fprintf(f, "  \"methods\": [\n");
  for (std::size_t m = 0; m < series.size(); ++m) {
    const bench::MethodSeries& s = series[m];
    std::fprintf(f, "    {\"name\": \"%s\", \"total_seconds\": %.6f, \"spaces\": [",
                 s.name.c_str(), s.total());
    for (std::size_t i = 0; i < s.seconds.size(); ++i) {
      std::fprintf(f, "%s{\"name\": \"%s\", \"seconds\": %.6f}", i ? ", " : "",
                   space_names[m][i].c_str(), s.seconds[i]);
    }
    std::fprintf(f, "]}%s\n", m + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_construction.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool check_order = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-order") == 0) {
      check_order = true;
    } else {
      std::fprintf(stderr, "usage: %s [--check-order]\n", argv[0]);
      return 2;
    }
  }

  auto spaces = spaces::all_realworld();
  auto methods = tuner::construction_methods(false);
  const std::uint64_t brute_cap = bench::fast_mode() ? 100000000ULL : UINT64_MAX;

  std::vector<bench::MethodSeries> series;
  std::vector<std::vector<std::string>> space_names;  // per method, per time
  // Per-space rows for the detail table.
  util::Table detail({"space", "method", "time", "#valid", "sparsity", "#params"});

  for (const auto& method : methods) {
    bench::MethodSeries s;
    s.name = method.name;
    space_names.emplace_back();
    const int runs = method.name == "optimized" || method.name == "ATF" ? kBestOf : 1;
    for (const auto& rw : spaces) {
      if (method.name == "brute-force" && rw.spec.cartesian_size() > brute_cap) {
        std::cerr << "[fig5] skipping brute-force on " << rw.name
                  << " (TUNESPACE_BENCH_FAST=1)\n";
        continue;
      }
      auto run = bench::timed_construct(rw.spec, method);
      for (int r = 1; r < runs; ++r) {
        run.seconds =
            std::min(run.seconds, bench::timed_construct(rw.spec, method).seconds);
      }
      s.seconds.push_back(run.seconds);
      space_names.back().push_back(rw.name);
      s.valid_sizes.push_back(static_cast<double>(run.solutions));
      s.cartesian.push_back(static_cast<double>(rw.spec.cartesian_size()));
      const double sparsity = 1.0 - static_cast<double>(run.solutions) /
                                        static_cast<double>(rw.spec.cartesian_size());
      detail.add_row({rw.name, method.name, util::fmt_seconds(run.seconds),
                      util::fmt_count(run.solutions), util::fmt_double(sparsity, 4),
                      std::to_string(rw.spec.num_params())});
      std::cerr << "[fig5] " << method.name << " on " << rw.name << ": "
                << util::fmt_seconds(run.seconds) << "\n";
    }
    series.push_back(std::move(s));
  }

  bench::section("Fig. 5: per-space construction times (all views' raw data)");
  detail.print(std::cout);

  bench::section("Fig. 5A: scaling fits vs #valid configurations");
  bench::print_scaling_fits(series, /*vs_valid=*/true);

  bench::section("Fig. 5B: scaling fits vs Cartesian size");
  bench::print_scaling_fits(series, /*vs_valid=*/false);

  bench::section("Fig. 5C: distribution of construction times per method");
  bench::print_time_distributions(series);

  const bench::MethodSeries* optimized = find_series(series, "optimized");
  const bench::MethodSeries* atf = find_series(series, "ATF");
  bench::section("Fig. 5: optimized vs ATF per space (best of " +
                 std::to_string(kBestOf) + ")");
  util::Table versus({"space", "optimized", "ATF", "ATF / optimized"});
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    versus.add_row({spaces[i].name, util::fmt_seconds(optimized->seconds[i]),
                    util::fmt_seconds(atf->seconds[i]),
                    util::fmt_double(atf->seconds[i] / optimized->seconds[i], 2) + "x"});
  }
  versus.print(std::cout);

  bench::section("Fig. 5F: total construction time over the eight spaces");
  bench::print_totals(series, "optimized");
  std::cout << "\n(paper reference speedups vs optimized: brute-force ~20643x, "
               "ATF ~44x, pyATF ~891x, original ~2643x; this reproduction "
               "preserves the ordering, not the Python-vs-C++ magnitudes)\n";

  write_json(series, space_names, atf->total() / optimized->total());

  if (check_order) {
    for (std::size_t i = 0; i + 1 < std::size(kPaperOrder); ++i) {
      const bench::MethodSeries* faster = find_series(series, kPaperOrder[i]);
      const bench::MethodSeries* slower = find_series(series, kPaperOrder[i + 1]);
      if (!(faster->total() < slower->total())) {
        std::fprintf(stderr, "FAIL: Fig. 5F order: %s total %.6fs not below %s %.6fs\n",
                     faster->name.c_str(), faster->total(), slower->name.c_str(),
                     slower->total());
        return 1;
      }
    }
    std::printf(
        "Fig. 5F ordering holds: optimized < ATF < original < pyATF < brute-force\n");
  }
  return 0;
}
