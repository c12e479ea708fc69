// `tune`: closed-loop tuning sessions over prebuilt spaces.
//
// Set-up builds the Hotspot, GEMM and Dedispersion spaces of the service
// catalog once.  One caller then runs passes back-to-back: each pass is
// run_session for every (kernel, optimizer) pair -- all seven
// optimizer_names(), each kernel's catalog performance model, a fixed
// virtual construction charge -- four sessions per pair, with seeds derived
// from the workload seed.  Every pass repeats the same 84 sessions, so
// passes are equal work.  There is no construction in the loop and no wire:
// `tuner.optimizers` and `tuner.session` do most of the work, and the
// optimizers read the indexes `construct` builds (neighbour and sampling
// queries), so an index change that slows those queries shows up in this
// workload.  The process runs on one CPU (use_one_cpu): a session hands
// every evaluation between the optimizer's thread and the caller's.  The
// speed probe runs between sessions; evaluations/s and the mean pass time
// are scaled by it.
//
// Every session's best configuration must satisfy its spec's constraints
// under expr::interpreter and re-measure to the reported best.
//
// The traced run wraps each optimizer and model from outside: a forwarding
// Optimizer times run() and every ctx.evaluate / ctx.measure request it
// makes, and a forwarding PerformanceModel times measure().  Optimizer self
// time is run() minus the requests; session time is the requests minus the
// model (stepper handoff, memo, trajectory and front upkeep).
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.hpp"
#include "tunespace/expr/interpreter.hpp"
#include "tunespace/expr/parser.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/session.hpp"
#include "workloads.hpp"

using namespace tunespace;

namespace perfbench {

namespace {

constexpr const char* kKernels[] = {"hotspot", "gemm", "dedispersion"};
/// Sessions per (kernel, optimizer) pair in a pass, each with its own seed.
constexpr std::size_t kSeedsPerPair = 4;
/// Virtual seconds of construction charged to every session's clock, so
/// sessions replay identically whatever the construction actually took.
constexpr double kConstructionCharge = 5.0;

struct Kernel {
  const tuner::ServiceKernel* entry = nullptr;
  std::shared_ptr<const searchspace::SearchSpace> space;
  std::vector<expr::AstPtr> constraints;  ///< parsed once, for the checks
};

std::vector<Kernel> set_up() {
  std::vector<Kernel> kernels;
  for (const char* name : kKernels) {
    Kernel kernel;
    kernel.entry = tuner::find_service_kernel(name);
    if (kernel.entry == nullptr) {
      throw std::runtime_error(std::string("no kernel ") + name);
    }
    kernel.space = std::make_shared<const searchspace::SearchSpace>(kernel.entry->spec);
    for (const std::string& text : kernel.entry->spec.constraints()) {
      kernel.constraints.push_back(expr::parse(text));
    }
    kernels.push_back(std::move(kernel));
  }
  return kernels;
}

/// Times a model's measure() calls as the kernels layer.  The stepper calls
/// measure() on the caller's thread while the optimizer's request waits on
/// the worker thread, so the span names that request as its parent
/// explicitly.
class TracedModel : public tuner::PerformanceModel {
 public:
  TracedModel(const tuner::PerformanceModel& inner,
              const std::atomic<std::uint32_t>& request)
      : inner_(inner), request_(request) {}
  std::string name() const override { return inner_.name(); }
  double gflops(const std::vector<std::string>& names,
                const csp::Config& config) const override {
    return inner_.gflops(names, config);
  }
  tuner::Measurement measure(const std::vector<std::string>& names,
                             const csp::Config& config) const override {
    trace::Span span("tuner.kernels", trace::kInheritId, request_.load());
    return inner_.measure(names, config);
  }
  double evaluation_cost(double gflops) const override {
    return inner_.evaluation_cost(gflops);
  }
  std::uint64_t fingerprint() const override { return inner_.fingerprint(); }

 private:
  const tuner::PerformanceModel& inner_;
  const std::atomic<std::uint32_t>& request_;
};

/// Times run() as the optimizers layer and each evaluation request it makes
/// as the session layer.  run() executes on the stepper's worker thread, so
/// its span names the session span as its parent explicitly.
class TracedOptimizer : public tuner::Optimizer {
 public:
  TracedOptimizer(tuner::Optimizer& inner, std::uint32_t session_span,
                  std::atomic<std::uint32_t>& request)
      : inner_(inner), session_span_(session_span), request_(request) {}
  std::string name() const override { return inner_.name(); }
  void run(tuner::EvalContext& ctx) override {
    trace::Span span("tuner.optimizers", trace::kInheritId, session_span_);
    tuner::EvalContext traced = ctx;
    traced.evaluate = [&](std::size_t row) {
      trace::Span request("tuner.session");
      request_.store(request.index());
      return ctx.evaluate(row);
    };
    if (ctx.measure) {
      traced.measure = [&](std::size_t row) {
        trace::Span request("tuner.session");
        request_.store(request.index());
        return ctx.measure(row);
      };
    }
    inner_.run(traced);
  }

 private:
  tuner::Optimizer& inner_;
  std::uint32_t session_span_;
  std::atomic<std::uint32_t>& request_;
};

/// What the checks need from one finished session.
struct Outcome {
  std::size_t kernel = 0;
  bool has_best = false;
  std::uint64_t best_row = 0;
  double best_gflops = 0;
};

void check_outcome(const Kernel& kernel, const Outcome& outcome, Report& report) {
  const std::string what = "tune session on " + kernel.entry->name;
  if (!outcome.has_best || outcome.best_row >= kernel.space->size()) {
    report.check(false, what + ": no best configuration");
    return;
  }
  const csp::Config config = kernel.space->config(outcome.best_row);
  const auto& params = kernel.entry->spec.params();
  const expr::Env env = [&](const std::string& name) -> csp::Value {
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (params[p].name == name) return config[p];
    }
    throw expr::EvalError("unknown parameter " + name);
  };
  bool satisfied = true;
  for (const expr::AstPtr& constraint : kernel.constraints) {
    satisfied = satisfied && expr::eval_bool(*constraint, env);
  }
  std::vector<std::string> names;
  for (const auto& param : params) names.push_back(param.name);
  const double remeasured = kernel.entry->model->measure(names, config).gflops;
  report.check(satisfied && remeasured == outcome.best_gflops,
               what + ": best configuration fails its constraints or re-measures "
                      "differently");
}

}  // namespace

Report run_tune(const Options& options) {
  Report report;
  EndToEnd e2e;
  use_one_cpu();
  std::vector<Kernel> kernels;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    kernels.clear();  // free the previous repetition's spaces first
    SetUpTimer timer;
    kernels = set_up();
    e2e.setup_seconds.push_back(timer.seconds());
  }

  const std::vector<std::string> optimizers = tuner::optimizer_names();
  std::vector<Outcome> outcomes;
  std::vector<std::size_t> optimizer_of;  ///< optimizer index per session id
  std::atomic<std::uint32_t> request_span{trace::kNoParent};
  double evaluations = 0, session_seconds = 0;
  std::size_t passes = 0;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + options.seconds;
  while (passes < 3 || now_s() < deadline) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const Kernel& kernel = kernels[k];
      for (std::size_t i = 0; i < optimizers.size() * kSeedsPerPair; ++i) {
        const std::size_t o = i / kSeedsPerPair;
        auto optimizer = tuner::make_optimizer(optimizers[o]);
        tuner::TuningOptions tuning;
        tuning.seed = mix_seed(options.seed, k * 1000 + i);
        tuning.fixed_construction_seconds = kConstructionCharge;
        const std::uint64_t session_id = optimizer_of.size();
        optimizer_of.push_back(o);

        const double t0 = now_s();
        tuner::TuningRun run;
        {
          trace::Span session("tune.run_session", session_id);
          if (options.trace) {
            TracedModel model(*kernel.entry->model, request_span);
            TracedOptimizer traced(*optimizer, session.index(), request_span);
            run = tuner::run_session(tuner::make_session_request(
                searchspace::SubSpace(kernel.space), model, traced, tuning, "optimized"));
          } else {
            run = tuner::run_session(tuner::make_session_request(
                searchspace::SubSpace(kernel.space), *kernel.entry->model, *optimizer,
                tuning, "optimized"));
          }
        }
        session_seconds += now_s() - t0;
        evaluations += static_cast<double>(run.evaluations);
        e2e.probe.tick();
        Outcome outcome;
        outcome.kernel = k;
        outcome.best_gflops = run.best_gflops;
        if (!run.front.empty()) {
          outcome.has_best = run.front.front().measurement.gflops == run.best_gflops;
          outcome.best_row = run.front.front().parent_row;
        }
        outcomes.push_back(outcome);
      }
    }
    passes++;
  }
  const double wall = now_s() - start;
  e2e.peak_rss_mb = peak_rss_mb();
  const double cpu = process_cpu_s() - cpu0;

  for (const Outcome& outcome : outcomes) {
    check_outcome(kernels[outcome.kernel], outcome, report);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "tune_evals_per_s %.6g 1/s (raw; %zu sessions in %zu passes, "
                "%.0f evaluations in %.3f s)",
                evaluations / session_seconds, outcomes.size(), passes, evaluations,
                session_seconds);
  report.note(line);

  if (!options.trace) {
    e2e.work = evaluations;
    e2e.seconds = session_seconds;
    e2e.latency_s = session_seconds / static_cast<double>(passes);
    add_end_to_end(report, e2e);
    return report;
  }
  const auto totals = trace::recorder().totals();
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? trace::Totals{} : it->second;
  };
  const double n = static_cast<double>(passes);
  std::vector<double> per_optimizer(optimizers.size(), 0);
  for (const trace::SpanTime& span : trace::recorder().spans("tuner.optimizers")) {
    per_optimizer[optimizer_of[span.id]] += span.self_s;
  }
  const trace::Totals opt = get("tuner.optimizers");
  const trace::Totals session = get("tuner.session");
  const trace::Totals kernels_layer = get("tuner.kernels");
  report.add("tuner.optimizers_s", opt.self_s / n, "s");
  for (std::size_t o = 0; o < optimizers.size(); ++o) {
    report.add("tuner.optimizers." + optimizers[o] + "_s", per_optimizer[o] / n, "s");
  }
  report.add("tuner.session_s", session.self_s / n, "s");
  report.add("tuner.session.requests", static_cast<double>(session.count) / n, "count");
  report.add("tuner.session.evaluations", evaluations / n, "count");
  const double requests = static_cast<double>(session.count);
  report.add("tuner.session.useful_ratio", requests > 0 ? evaluations / requests : 0,
             "ratio");
  report.add("tuner.kernels_s", kernels_layer.total_s / n, "s");
  report.add("process.cpu_s", cpu, "s");
  report.add("process.parallelism", wall > 0 ? cpu / wall : 0, "ratio");
  check_layers_add_up(report, "tune pass", get("tune.run_session").total_s / n,
                      (opt.self_s + session.self_s + kernels_layer.total_s) / n);
  return report;
}

}  // namespace perfbench
