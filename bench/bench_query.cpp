// SubSpace restriction benchmark: restricting a resolved space vs a full
// re-solve with the restriction added as a constraint, on the real-world
// gemm and hotspot spaces.  Emitted as BENCH_query.json.
//
// The paper's point is that the space is constructed *once*; tune-time
// restrictions (hardware caps discovered at runtime, pinned parameters)
// should then cost a scan of the stored space, not another solve.  For
// every scenario the harness (1) resolves the parent space, (2) builds the
// restricted SubSpace, (3) re-solves the spec with an equivalent constraint
// expression appended, and (4) verifies they agree: the view row-for-row
// against a brute-force filter of the parent, and as a configuration set
// against the re-solved space (a re-solve may enumerate in a different
// order because the added constraint shifts the solver's variable
// ordering).  Any disagreement is a hard failure regardless of flags.
//
// CI gate:  bench_query --min-speedup <x>
// exits non-zero when (total re-solve seconds) / (total restrict seconds)
// across the scenarios drops below <x> — restriction must stay at least <x>
// times faster than re-solving.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"

using namespace tunespace;
using searchspace::SubSpace;
namespace query = tunespace::searchspace::query;

namespace {

struct Scenario {
  std::string name;
  std::string space;           ///< realworld space name
  query::Predicate predicate;  ///< the restriction under test
  std::string expression;      ///< equivalent constraint expression (re-solve)
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;
  all.push_back({"pin-MWG-MDIMC", "GEMM",
                 query::eq("MWG", 64) && query::in_set("MDIMC", {8, 16}),
                 "MWG == 64 and MDIMC in (8, 16)"});
  all.push_back({"range-KWG", "GEMM", query::between("KWG", 16, 32),
                 "16 <= KWG <= 32"});
  all.push_back({"pin-bsx-tsx", "Hotspot",
                 query::eq("block_size_x", 32) && query::between("tile_size_x", 1, 3),
                 "block_size_x == 32 and 1 <= tile_size_x <= 3"});
  all.push_back({"smem-cap", "Hotspot",
                 query::eq("sh_power", 1) && query::between("blocks_per_sm", 1, 4),
                 "sh_power == 1 and 1 <= blocks_per_sm <= 4"});
  return all;
}

/// Sorted canonical config renderings, for order-insensitive comparison
/// against a re-solved space.
std::vector<std::string> sorted_configs(const SubSpace& view) {
  std::vector<std::string> out;
  out.reserve(view.size());
  for (std::size_t r = 0; r < view.size(); ++r) {
    out.push_back(view.problem().config_to_string(view.config(r)));
  }
  std::sort(out.begin(), out.end());
  return out;
}
std::vector<std::string> sorted_configs(const searchspace::SearchSpace& space) {
  return sorted_configs(SubSpace(space));
}

/// Brute-force reference: parent rows matching the compiled predicate, by a
/// full packed-column sweep outside the view machinery.
std::vector<std::size_t> brute_force_rows(const searchspace::SearchSpace& space,
                                          const query::Predicate& pred) {
  const query::CompiledPredicate compiled = query::compile(pred, space.problem());
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < space.size(); ++r) {
    bool keep = true;
    for (const query::ParamMask& mask : compiled.masks) {
      const std::uint32_t vi = space.value_index(r, mask.param);
      if (!std::binary_search(mask.allowed.begin(), mask.allowed.end(), vi)) {
        keep = false;
        break;
      }
    }
    if (keep) rows.push_back(r);
  }
  return rows;
}

struct CaseReport {
  std::string name;
  std::string space;
  std::size_t rows_parent = 0;
  std::size_t rows_out = 0;
  double restrict_seconds = 0;
  double resolve_seconds = 0;
  bool identical = true;
  double restrict_speedup() const {
    return restrict_seconds > 0 ? resolve_seconds / restrict_seconds : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  double gate_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      gate_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--min-speedup <x>]\n", argv[0]);
      return 2;
    }
  }

  const int repeats = 5;
  bench::section("SubSpace restriction vs full re-solve");

  // Resolve each parent space once (the construct-once premise).
  std::vector<spaces::RealWorldSpace> worlds;
  std::vector<searchspace::SearchSpace> parents;
  for (auto& rw : spaces::all_realworld()) {
    if (rw.name == "GEMM" || rw.name == "Hotspot") {
      util::WallTimer timer;
      parents.emplace_back(rw.spec);
      std::fprintf(stderr, "[query] %s resolved in %s\n", rw.name.c_str(),
                   util::fmt_seconds(timer.seconds()).c_str());
      worlds.push_back(std::move(rw));
    }
  }

  std::vector<CaseReport> reports;
  bool all_identical = true;
  util::Table table({"case", "space", "rows", "restrict", "re-solve", "speedup",
                     "identical"});
  for (const Scenario& sc : scenarios()) {
    std::size_t world = 0;
    while (worlds[world].name != sc.space) ++world;
    const searchspace::SearchSpace& parent = parents[world];

    CaseReport report;
    report.name = sc.name;
    report.space = sc.space;
    report.rows_parent = parent.size();

    // The first repeat also derives the parent's summary; the min is taken
    // over the repeats after it as well.
    SubSpace view(parent);
    for (int rep = 0; rep < repeats; ++rep) {
      util::WallTimer timer;
      SubSpace restricted = SubSpace::filter(parent, sc.predicate);
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < report.restrict_seconds) {
        report.restrict_seconds = seconds;
      }
      if (rep == 0) view = restricted;
    }
    report.rows_out = view.size();

    // Full re-solve with the equivalent constraint appended.  Also a min
    // over repeats: a single noisy re-solve would inflate the gated
    // speedup ratio and could mask a restriction regression.
    tuner::TuningProblem restricted_spec = worlds[world].spec;
    restricted_spec.add_constraint(sc.expression);
    const int resolve_repeats = 3;
    util::WallTimer timer;
    searchspace::SearchSpace resolved(restricted_spec);
    report.resolve_seconds = timer.seconds();
    for (int rep = 1; rep < resolve_repeats; ++rep) {
      timer.reset();
      searchspace::SearchSpace again(restricted_spec);
      const double seconds = timer.seconds();
      if (seconds < report.resolve_seconds) report.resolve_seconds = seconds;
    }

    // Identity: the view == brute force row-for-row, and == the re-solved
    // space as a configuration set.
    const auto brute = brute_force_rows(parent, sc.predicate);
    report.identical = brute.size() == view.size();
    for (std::size_t r = 0; report.identical && r < brute.size(); ++r) {
      report.identical = brute[r] == view.parent_row(r);
    }
    report.identical =
        report.identical && sorted_configs(view) == sorted_configs(resolved);
    all_identical = all_identical && report.identical;

    table.add_row({report.name, report.space, std::to_string(report.rows_out),
                   util::fmt_seconds(report.restrict_seconds),
                   util::fmt_seconds(report.resolve_seconds),
                   util::fmt_double(report.restrict_speedup(), 1) + "x",
                   report.identical ? "yes" : "NO"});
    std::fprintf(stderr, "[query] %s/%s done\n", sc.space.c_str(), sc.name.c_str());
    reports.push_back(std::move(report));
  }
  table.print(std::cout);

  double total_restrict = 0, total_resolve = 0;
  for (const auto& r : reports) {
    total_restrict += r.restrict_seconds;
    total_resolve += r.resolve_seconds;
  }
  const double restrict_speedup =
      total_restrict > 0 ? total_resolve / total_restrict : 0;
  std::printf("suite total: re-solve %.4fs, restrict %.6fs (%.0fx)\n", total_resolve,
              total_restrict, restrict_speedup);

  if (std::FILE* f = std::fopen("BENCH_query.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"query\",\n");
    std::fprintf(f, "  \"fast_mode\": %s,\n", bench::fast_mode() ? "true" : "false");
    std::fprintf(f, "  \"total_resolve_seconds\": %.6f,\n", total_resolve);
    std::fprintf(f, "  \"total_restrict_seconds\": %.6f,\n", total_restrict);
    std::fprintf(f, "  \"restrict_speedup\": %.2f,\n", restrict_speedup);
    std::fprintf(f, "  \"cases\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const CaseReport& r = reports[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"space\": \"%s\", \"rows_parent\": %zu, "
                   "\"rows_out\": %zu, \"restrict_seconds\": %.6f, "
                   "\"resolve_seconds\": %.6f, \"restrict_speedup\": %.2f, "
                   "\"identical\": %s}%s\n",
                   r.name.c_str(), r.space.c_str(), r.rows_parent, r.rows_out,
                   r.restrict_seconds, r.resolve_seconds, r.restrict_speedup(),
                   r.identical ? "true" : "false",
                   i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_query.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_query.json\n");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a restricted view diverged from its re-solved or "
                 "brute-force reference (see table above)\n");
    return 1;
  }
  if (gate_speedup > 0 && restrict_speedup < gate_speedup) {
    std::fprintf(stderr,
                 "FAIL: restrict/re-solve speedup %.1fx below the %.1fx gate\n",
                 restrict_speedup, gate_speedup);
    return 1;
  }
  return 0;
}
