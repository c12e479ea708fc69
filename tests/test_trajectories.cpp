// Golden trajectory fingerprints: every optimizer's request sequence and
// result, pinned bit for bit.
//
// The optimizer-side space queries (snap_to_valid, Hamming-1 neighbours,
// Rng::sample_indices) decide which rows a session requests, so a change
// that makes them faster must not change a single request.  Each session
// here runs under a forwarding Optimizer that hashes every evaluate() and
// measure() row in request order; the hash then folds in the run's
// evaluation count, best_gflops bits, the front's parent rows and watts and
// the trajectory times.  The grid covers all seven optimizers on the
// Hotspot, GEMM and Dedispersion catalog spaces, each over the whole space
// and over a restricted view, plus GA and NSGA-II under the two-objective
// perf + power spec.
//
// The constants were recorded before the fast query paths went in.  A
// change that moves one must say why, and re-record them in the same change
// (see CONTRIBUTING, "Optimizer-query invariants").
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/session.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
namespace query = searchspace::query;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Forwards run() to `inner` and hashes every row it requests, in order.
class HashingOptimizer : public tuner::Optimizer {
 public:
  explicit HashingOptimizer(tuner::Optimizer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void run(tuner::EvalContext& ctx) override {
    tuner::EvalContext hashed = ctx;
    hashed.evaluate = [&](std::size_t row) {
      hash_ = util::mix64(hash_, 2 * row);
      return ctx.evaluate(row);
    };
    if (ctx.measure) {
      hashed.measure = [&](std::size_t row) {
        hash_ = util::mix64(hash_, 2 * row + 1);
        return ctx.measure(row);
      };
    }
    inner_.run(hashed);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  tuner::Optimizer& inner_;
  std::uint64_t hash_ = 0x7A3C5E1F00D2B4A6ULL;
};

const char* const kKernels[] = {"hotspot", "gemm", "dedispersion"};

/// The restricted view of each kernel: some values pinned or cut away.
query::Predicate restriction(const std::string& kernel) {
  if (kernel == "hotspot") {
    return query::eq("sh_power", csp::Value(0)) &&
           query::between("blocks_per_sm", csp::Value(2), csp::Value(6));
  }
  if (kernel == "gemm") {
    return query::in_set("MWG", {csp::Value(32), csp::Value(64)}) &&
           query::eq("KWI", csp::Value(2));
  }
  return query::between("block_size_x", csp::Value(16), csp::Value(256)) &&
         query::in_set("tile_size_x", {csp::Value(1), csp::Value(2), csp::Value(4)});
}

/// One session's fingerprint: its request sequence, then its result.
std::uint64_t session_fingerprint(const searchspace::SubSpace& view,
                                  const tuner::PerformanceModel& model,
                                  const std::string& optimizer_name,
                                  const tuner::ObjectiveSpec& objectives,
                                  std::uint64_t seed) {
  auto optimizer = tuner::make_optimizer(optimizer_name);
  HashingOptimizer hashing(*optimizer);
  tuner::TuningOptions options;
  options.seed = seed;
  options.fixed_construction_seconds = 5.0;
  options.objectives = objectives;
  const tuner::TuningRun run = tuner::run_session(
      tuner::make_session_request(view, model, hashing, options, "optimized"));
  std::uint64_t h = hashing.hash();
  h = util::mix64(h, run.evaluations);
  h = util::mix64(h, bits(run.best_gflops));
  for (const tuner::ParetoPoint& point : run.front) {
    h = util::mix64(h, point.parent_row);
    h = util::mix64(h, bits(point.measurement.watts));
  }
  for (const tuner::TrajectoryPoint& point : run.trajectory) {
    h = util::mix64(h, bits(point.time_seconds));
  }
  return h;
}

/// Recorded fingerprints, keyed "kernel/view/optimizer[/objectives]".
const std::map<std::string, std::uint64_t>& golden() {
  static const std::map<std::string, std::uint64_t> table = {
      {"dedispersion/restricted/differential-evolution", 0x4CCB35C9C74ADBA5ULL},
      {"dedispersion/restricted/genetic-algorithm", 0x6B4825871AB99627ULL},
      {"dedispersion/restricted/genetic-algorithm/perf_and_power", 0xEBCA475CFBC7D953ULL},
      {"dedispersion/restricted/hill-climbing", 0x7C3EC61D88BB9FEAULL},
      {"dedispersion/restricted/nsga2", 0xE8E168D0A69B497AULL},
      {"dedispersion/restricted/nsga2/perf_and_power", 0x720D68DF7861CA01ULL},
      {"dedispersion/restricted/random-sampling", 0xD46BC1F3D27CD31EULL},
      {"dedispersion/restricted/simulated-annealing", 0x1014551BD452B418ULL},
      {"dedispersion/restricted/surrogate", 0xDC59216F07F917F7ULL},
      {"dedispersion/whole/differential-evolution", 0x28C683EBFEB0787BULL},
      {"dedispersion/whole/genetic-algorithm", 0x5C44C160D8A07D60ULL},
      {"dedispersion/whole/genetic-algorithm/perf_and_power", 0xB7AF3A2EBEF1A19FULL},
      {"dedispersion/whole/hill-climbing", 0xB5CD31E5553CC335ULL},
      {"dedispersion/whole/nsga2", 0x9ED6E6739409EBF6ULL},
      {"dedispersion/whole/nsga2/perf_and_power", 0x4BF21EA00983EBF0ULL},
      {"dedispersion/whole/random-sampling", 0x75E4F066D36F0176ULL},
      {"dedispersion/whole/simulated-annealing", 0x7F5860B9DF1B1FF8ULL},
      {"dedispersion/whole/surrogate", 0xDA31E32ADF4C679CULL},
      {"gemm/restricted/differential-evolution", 0x7A4E6E63051E3C68ULL},
      {"gemm/restricted/genetic-algorithm", 0xFD0E98332F7441A1ULL},
      {"gemm/restricted/genetic-algorithm/perf_and_power", 0xB2FB056D3301D048ULL},
      {"gemm/restricted/hill-climbing", 0xC374670EDB8C0E7CULL},
      {"gemm/restricted/nsga2", 0xA3A384566FDF9A0EULL},
      {"gemm/restricted/nsga2/perf_and_power", 0x4E9759A0943749BCULL},
      {"gemm/restricted/random-sampling", 0xEEF5BA604E2FDCF0ULL},
      {"gemm/restricted/simulated-annealing", 0x80666444247BEBE7ULL},
      {"gemm/restricted/surrogate", 0xB1D2AA3E52AF4AC6ULL},
      {"gemm/whole/differential-evolution", 0x38E20A76E9A428C7ULL},
      {"gemm/whole/genetic-algorithm", 0xC460557CBD52AB9DULL},
      {"gemm/whole/genetic-algorithm/perf_and_power", 0x0B612D9C636A297BULL},
      {"gemm/whole/hill-climbing", 0x0610F28821A3D6FDULL},
      {"gemm/whole/nsga2", 0x8386A068CBB6A89CULL},
      {"gemm/whole/nsga2/perf_and_power", 0x4D05E8E4F36BD5CDULL},
      {"gemm/whole/random-sampling", 0xA340E5D918937CC6ULL},
      {"gemm/whole/simulated-annealing", 0xB65182D19A856CDBULL},
      {"gemm/whole/surrogate", 0xD6738407101F5FE5ULL},
      {"hotspot/restricted/differential-evolution", 0x8771D496C0F64141ULL},
      {"hotspot/restricted/genetic-algorithm", 0xC37DAB5119C1FE53ULL},
      {"hotspot/restricted/genetic-algorithm/perf_and_power", 0xB75633A7CF8E8A4DULL},
      {"hotspot/restricted/hill-climbing", 0xFFA9D9ADD1AD6AB6ULL},
      {"hotspot/restricted/nsga2", 0x6C76051295DB8619ULL},
      {"hotspot/restricted/nsga2/perf_and_power", 0xABBF9EDBCEF4F484ULL},
      {"hotspot/restricted/random-sampling", 0xF173ABC6E97A73C3ULL},
      {"hotspot/restricted/simulated-annealing", 0x70747AD100A7C688ULL},
      {"hotspot/restricted/surrogate", 0x3EE1307D33518B9BULL},
      {"hotspot/whole/differential-evolution", 0xA83D0839836AD907ULL},
      {"hotspot/whole/genetic-algorithm", 0xD995F9AEE9B4BC46ULL},
      {"hotspot/whole/genetic-algorithm/perf_and_power", 0xC1F6FB241BA14FECULL},
      {"hotspot/whole/hill-climbing", 0x273D7FAAF5C2CD5AULL},
      {"hotspot/whole/nsga2", 0x50A045A8CF79526FULL},
      {"hotspot/whole/nsga2/perf_and_power", 0xA5077F8547861285ULL},
      {"hotspot/whole/random-sampling", 0x25D5C7D9059B4238ULL},
      {"hotspot/whole/simulated-annealing", 0xE8153671558586E5ULL},
      {"hotspot/whole/surrogate", 0x16E59C6FDCDD55CFULL},
  };
  return table;
}

}  // namespace

TEST(Trajectories, EverySessionMatchesItsRecordedFingerprint) {
  const tuner::ObjectiveSpec single;
  const tuner::ObjectiveSpec perf_power = tuner::ObjectiveSpec::perf_and_power();
  const std::vector<std::string> optimizers = tuner::optimizer_names();
  std::map<std::string, std::uint64_t> actual;
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    const std::string kernel = kKernels[k];
    const tuner::ServiceKernel* entry = tuner::find_service_kernel(kernel);
    ASSERT_NE(entry, nullptr) << kernel;
    const searchspace::SearchSpace space(entry->spec);
    const searchspace::SubSpace views[] = {
        searchspace::SubSpace(space),
        searchspace::SubSpace(space).restrict(restriction(kernel)),
    };
    ASSERT_FALSE(views[1].empty()) << kernel;
    ASSERT_LT(views[1].size(), space.size()) << kernel;
    for (std::size_t v = 0; v < std::size(views); ++v) {
      const std::string prefix = kernel + (v == 0 ? "/whole/" : "/restricted/");
      for (std::size_t o = 0; o < optimizers.size(); ++o) {
        actual[prefix + optimizers[o]] = session_fingerprint(
            views[v], *entry->model, optimizers[o], single, util::mix64(k, o));
      }
      for (const char* optimizer : {"genetic-algorithm", "nsga2"}) {
        actual[prefix + optimizer + "/perf_and_power"] = session_fingerprint(
            views[v], *entry->model, optimizer, perf_power, util::mix64(k + 100, 1));
      }
    }
  }
  ASSERT_EQ(actual.size(), 54u);
  std::string listing;
  for (const auto& [key, hash] : actual) {
    char line[160];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llXULL},\n", key.c_str(),
                  static_cast<unsigned long long>(hash));
    listing += line;
  }
  EXPECT_EQ(actual, golden()) << "fingerprints of this build:\n" << listing;
}
