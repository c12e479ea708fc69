#include "tunespace/tuner/service.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "tunespace/spaces/realworld.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/util/rng.hpp"

namespace tunespace::tuner {

namespace {

std::string wire_name(std::string name) {
  for (char& c : name) {
    if (c == ' ' || c == '_') {
      c = '-';
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return name;
}

Method resolve_method(const std::string& name) {
  if (name.empty() || name == "optimized") return optimized_method();
  auto methods = construction_methods(true);
  for (auto& method : methods) {
    if (method.name == name) return std::move(method);
  }
  std::string known = "optimized";
  for (const auto& method : methods) {
    if (method.name == "optimized") continue;
    known += ", ";
    known += method.name;
  }
  throw ServiceError(ErrorCode::kInvalidArgument, "unknown construction method '" +
                                                      name + "' (known: " + known + ")");
}

std::vector<NamedValue> named_config(const std::vector<std::string>& names,
                                     const csp::Config& config) {
  std::vector<NamedValue> out;
  const std::size_t n = std::min(names.size(), config.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back({names[i], config[i]});
  return out;
}

searchspace::query::Predicate build_restriction(
    const std::vector<ParamFilter>& filters) {
  std::vector<searchspace::query::Predicate> parts;
  parts.reserve(filters.size());
  for (const auto& filter : filters) {
    if (filter.values.empty()) {
      throw ServiceError(ErrorCode::kInvalidArgument,
                         "restriction on '" + filter.param + "' has no values");
    }
    parts.push_back(searchspace::query::in_set(filter.param, filter.values));
  }
  return searchspace::query::all_of(std::move(parts));
}

RunSummary summarize(const TuningRun& run) {
  RunSummary summary;
  summary.method_name = run.method_name;
  summary.construction_seconds = run.construction_seconds;
  summary.budget_seconds = run.budget_seconds;
  summary.best_gflops = run.best_gflops;
  summary.evaluations = run.evaluations;
  summary.objectives = run.objectives;
  summary.best_score = run.best_score;
  summary.best = run.best;
  summary.front = run.front;
  summary.trajectory.reserve(run.trajectory.size());
  for (const auto& point : run.trajectory) {
    summary.trajectory.push_back({point.time_seconds, point.best_gflops,
                                  static_cast<std::uint64_t>(point.evaluations),
                                  point.measurement});
  }
  return summary;
}

void require_finite_nonnegative(double value, const char* field) {
  if (!(value >= 0)) {  // negated comparison also rejects NaN
    throw ServiceError(ErrorCode::kInvalidArgument,
                       std::string(field) + " must be >= 0");
  }
}

}  // namespace

const std::vector<ServiceKernel>& service_catalog() {
  static const std::vector<ServiceKernel> catalog = [] {
    std::vector<ServiceKernel> out;
    for (auto& space : spaces::all_realworld()) {
      ServiceKernel kernel;
      kernel.name = wire_name(space.name);
      kernel.spec = std::move(space.spec);
      if (kernel.name == "hotspot") {
        kernel.model = std::make_shared<HotspotModel>();
      } else if (kernel.name == "gemm") {
        kernel.model = std::make_shared<GemmModel>();
      } else {
        kernel.model = std::make_shared<SyntheticModel>(42);
      }
      out.push_back(std::move(kernel));
    }
    return out;
  }();
  return catalog;
}

const ServiceKernel* find_service_kernel(const std::string& name) {
  for (const auto& kernel : service_catalog()) {
    if (kernel.name == name) return &kernel;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// TuningService
// ---------------------------------------------------------------------------

struct TuningService::Session {
  std::uint64_t id = 0;
  std::string tenant;
  std::string kernel;
  std::string method_name;
  std::shared_ptr<const PerformanceModel> model;
  std::unique_ptr<Optimizer> optimizer;
  SessionStats stats;
  searchspace::SubSpace view;
  std::unique_ptr<SessionStepper> stepper;  // after optimizer: destroyed first
  std::mutex mutex;                         ///< serializes calls per session

  explicit Session(searchspace::SubSpace v) : view(std::move(v)) {}
};

TuningService::TuningService(TuningServiceOptions options)
    : options_(std::move(options)), manager_([this] {
        SessionManagerOptions manager;
        if (!options_.state_dir.empty()) {
          manager.snapshot_cache_dir = options_.state_dir + "/snapshots";
        }
        return manager;
      }()) {
  if (!options_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.state_dir, ec);
    load_eval_cache();
  }
}

TuningService::~TuningService() {
  std::vector<std::shared_ptr<Session>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) live.push_back(session);
    sessions_.clear();
    live_per_tenant_.clear();
  }
  for (auto& session : live) {
    std::lock_guard<std::mutex> lock(session->mutex);
    session->stepper->cancel();
  }
  try {
    save_state();
  } catch (...) {
    // Shutdown persistence is best effort; the next drain can retry.
  }
}

OpenSessionResponse TuningService::open(const OpenSessionRequest& request) {
  const ServiceKernel* kernel = find_service_kernel(request.kernel);
  if (kernel == nullptr) {
    std::string known;
    for (const auto& entry : service_catalog()) {
      if (!known.empty()) known += ", ";
      known += entry.name;
    }
    throw ServiceError(ErrorCode::kInvalidArgument, "unknown kernel '" +
                                                        request.kernel +
                                                        "' (catalog: " + known + ")");
  }
  require_finite_nonnegative(request.budget_seconds, "budget_seconds");
  require_finite_nonnegative(request.overhead_per_request, "overhead_per_request");
  require_finite_nonnegative(request.construction_time_scale,
                             "construction_time_scale");
  auto optimizer = make_optimizer(
      request.optimizer.empty() ? std::string("random-sampling") : request.optimizer);
  const Method method = resolve_method(request.method);

  // Admission control: reserve a slot under the registry lock, so the
  // (possibly slow) space build below cannot oversubscribe the limits.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ServiceLimits& limits = options_.limits;
    if (draining_) {
      rejected_++;
      throw ServiceError(ErrorCode::kDraining,
                         "service is draining; new sessions are rejected");
    }
    if (limits.max_budget_seconds > 0 &&
        request.budget_seconds > limits.max_budget_seconds) {
      rejected_++;
      throw ServiceError(ErrorCode::kAdmissionLimit,
                         "budget_seconds exceeds the service cap of " +
                             std::to_string(limits.max_budget_seconds));
    }
    if (limits.max_live_sessions > 0 &&
        sessions_.size() + pending_opens_ >= limits.max_live_sessions) {
      rejected_++;
      throw ServiceError(ErrorCode::kAdmissionLimit,
                         "service live-session limit of " +
                             std::to_string(limits.max_live_sessions) + " reached");
    }
    std::size_t& tenant_live = live_per_tenant_[request.tenant];
    if (limits.max_sessions_per_tenant > 0 &&
        tenant_live >= limits.max_sessions_per_tenant) {
      rejected_++;
      throw ServiceError(ErrorCode::kAdmissionLimit,
                         "tenant '" + request.tenant + "' live-session limit of " +
                             std::to_string(limits.max_sessions_per_tenant) +
                             " reached");
    }
    tenant_live++;
    pending_opens_++;
  }

  std::shared_ptr<Session> session;
  try {
    std::shared_ptr<const searchspace::SearchSpace> space;
    SessionStats stats;
    try {
      space = manager_.acquire_space(kernel->spec, method, &stats);
    } catch (const std::exception& e) {
      throw ServiceError(ErrorCode::kSpaceBuildFailed,
                         std::string("space construction failed: ") + e.what());
    }
    searchspace::SubSpace view(space);
    if (!request.restrictions.empty()) {
      try {
        view = view.restrict(build_restriction(request.restrictions));
      } catch (const std::out_of_range& e) {
        throw ServiceError(ErrorCode::kInvalidArgument,
                           std::string("bad restriction: ") + e.what());
      }
    }
    session = std::make_shared<Session>(std::move(view));
    session->tenant = request.tenant;
    session->kernel = kernel->name;
    session->method_name = method.name;
    session->model = kernel->model;
    session->optimizer = std::move(optimizer);
    session->stats = stats;

    TuningOptions tuning;
    tuning.budget_seconds = request.budget_seconds;
    tuning.seed = request.seed;
    tuning.overhead_per_request = request.overhead_per_request;
    tuning.fixed_construction_seconds = request.fixed_construction_seconds;
    tuning.construction_time_scale = request.construction_time_scale;
    tuning.objectives = request.objectives;
    tuning.warm_start = request.warm_start;

    auto model = session->model;  // kept alive by the cost closure
    session->stepper = std::make_unique<SessionStepper>(
        session->view, method.name, space->construction_seconds(),
        *session->optimizer, tuning,
        [model](const Measurement& m) { return model->evaluation_cost(m.gflops); },
        shareable(kernel->spec) ? &manager_.eval_cache() : nullptr,
        eval_cache_fingerprint(*space, *model, tuning.objectives), &session->stats);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_opens_--;
    const auto it = live_per_tenant_.find(request.tenant);
    if (it != live_per_tenant_.end() && --(it->second) == 0) {
      live_per_tenant_.erase(it);
    }
    drain_cv_.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    session->id = next_id_++;
    sessions_.emplace(session->id, session);
    pending_opens_--;
    opened_++;
    // Seeding finished inside the stepper constructor, so the per-session
    // count is final here.
    seeded_rows_ += session->stats.seeded_rows;
  }
  OpenSessionResponse response;
  std::lock_guard<std::mutex> lock(session->mutex);
  response.session_id = session->id;
  response.info = info_of(*session);
  return response;
}

SuggestResponse TuningService::suggest(const SuggestRequest& request) {
  const auto session = find(request.session_id);
  std::lock_guard<std::mutex> lock(session->mutex);
  // Enforce the per-session evaluation cap lazily: the first ask past the
  // cap cancels the optimizer and reports the session finished.
  if (!session->stepper->finished() && eval_cap_reached(*session)) {
    session->stepper->cancel();
  }
  std::optional<Suggestion> ask;
  if (!session->stepper->finished()) ask = session->stepper->suggest();
  SuggestResponse response;
  response.session_id = session->id;
  if (ask.has_value()) {
    response.config_id = ask->row;
    response.parent_row = ask->parent_row;
    response.config = named_config(session->stepper->param_names(), ask->config);
  } else {
    response.finished = true;
  }
  response.now_seconds = session->stepper->now();
  response.evaluations = session->stepper->run().evaluations;
  return response;
}

ReportResponse TuningService::report(const ReportRequest& request) {
  const auto session = find(request.session_id);
  std::lock_guard<std::mutex> lock(session->mutex);
  const double best_before = session->stepper->run().best_score;
  const bool had_best = !session->stepper->run().trajectory.empty();
  // A report carries the full measurement vector or only the scalar gflops
  // field (an all-zero vector marks it unset).
  session->stepper->report(request.measurement != Measurement{}
                               ? request.measurement
                               : Measurement{request.gflops, 0.0},
                           request.measure_seconds);
  ReportResponse response;
  response.session_id = session->id;
  response.best_gflops = session->stepper->run().best_gflops;
  response.best_score = session->stepper->run().best_score;
  response.best = session->stepper->run().best;
  response.improved = !had_best || response.best_score > best_before;
  response.finished =
      session->stepper->finished() || eval_cap_reached(*session);
  response.now_seconds = session->stepper->now();
  response.evaluations = session->stepper->run().evaluations;
  return response;
}

BestResponse TuningService::best(const BestRequest& request) {
  const auto session = find(request.session_id);
  std::lock_guard<std::mutex> lock(session->mutex);
  BestResponse response;
  response.session_id = session->id;
  response.best_gflops = session->stepper->run().best_gflops;
  response.best_score = session->stepper->run().best_score;
  response.best = session->stepper->run().best;
  if (session->stepper->best().has_value()) {
    response.config = named_config(session->stepper->param_names(),
                                   session->stepper->best()->config);
  }
  response.now_seconds = session->stepper->now();
  response.evaluations = session->stepper->run().evaluations;
  response.finished =
      session->stepper->finished() || eval_cap_reached(*session);
  return response;
}

SessionInfo TuningService::info(std::uint64_t session_id) {
  const auto session = find(session_id);
  std::lock_guard<std::mutex> lock(session->mutex);
  return info_of(*session);
}

CloseSessionResponse TuningService::close(const CloseSessionRequest& request) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(request.session_id);
    if (it == sessions_.end()) {
      throw ServiceError(ErrorCode::kUnknownSession,
                         "unknown session id " + std::to_string(request.session_id));
    }
    session = std::move(it->second);
    sessions_.erase(it);
    const auto tenant = live_per_tenant_.find(session->tenant);
    if (tenant != live_per_tenant_.end() && --(tenant->second) == 0) {
      live_per_tenant_.erase(tenant);
    }
    closed_++;
    drain_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  session->stepper->cancel();  // no-op if the session already finished
  {
    // The stepper is quiescent after cancel, so the refit counter is final.
    std::lock_guard<std::mutex> registry(mutex_);
    surrogate_refits_ += session->stats.surrogate_refits;
  }
  CloseSessionResponse response;
  response.session_id = request.session_id;
  response.run = summarize(session->stepper->run());
  return response;
}

ServiceStats TuningService::stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.live_sessions = sessions_.size() + pending_opens_;
    stats.total_opened = opened_;
    stats.total_closed = closed_;
    stats.total_rejected = rejected_;
    stats.draining = draining_;
    stats.seeded_rows = seeded_rows_;
    stats.surrogate_refits = surrogate_refits_;
  }
  const SharedEvalCache& cache = manager_.eval_cache();
  stats.cache_entries = cache.size();
  stats.cache_hits = cache.hits();
  stats.cache_misses = cache.misses();
  stats.spaces_built = manager_.spaces_built();
  stats.spaces_shared = manager_.spaces_shared();
  return stats;
}

void TuningService::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  drain_cv_.notify_all();
}

bool TuningService::wait_drained(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto quiesced = [this] {
    return draining_ && sessions_.empty() && pending_opens_ == 0;
  };
  if (timeout_seconds < 0) {
    drain_cv_.wait(lock, quiesced);
  } else {
    drain_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                       quiesced);
  }
  return quiesced();
}

bool TuningService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

bool TuningService::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ && sessions_.empty() && pending_opens_ == 0;
}

std::string TuningService::eval_cache_path() const {
  return options_.state_dir + "/eval_cache.tsv";
}

void TuningService::save_state() const {
  if (options_.state_dir.empty()) return;
  save_shared_eval_cache(manager_.eval_cache(), eval_cache_path());
}

void TuningService::load_eval_cache() {
  load_shared_eval_cache(manager_.eval_cache(), eval_cache_path());
}

std::shared_ptr<TuningService::Session> TuningService::find(
    std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    throw ServiceError(ErrorCode::kUnknownSession,
                       "unknown session id " + std::to_string(session_id));
  }
  return it->second;
}

SessionInfo TuningService::info_of(Session& session) const {
  SessionInfo info;
  info.session_id = session.id;
  info.tenant = session.tenant;
  info.kernel = session.kernel;
  info.optimizer = session.optimizer->name();
  info.method = session.method_name;
  info.space_rows = session.view.size();
  info.param_names = session.stepper->param_names();
  info.shared_space = session.stats.shared_space;
  info.awaiting_report = session.stepper->awaiting_report();
  info.finished = session.stepper->finished() || eval_cap_reached(session);
  info.now_seconds = session.stepper->now();
  info.budget_seconds = session.stepper->run().budget_seconds;
  info.best_gflops = session.stepper->run().best_gflops;
  info.evaluations = session.stepper->run().evaluations;
  info.shared_cache_hits = session.stats.shared_cache_hits;
  info.model_evaluations = session.stats.model_evaluations;
  info.objectives = session.stepper->run().objectives;
  info.best_score = session.stepper->run().best_score;
  info.best = session.stepper->run().best;
  info.seeded_rows = session.stats.seeded_rows;
  info.surrogate_refits = session.stats.surrogate_refits;
  return info;
}

bool TuningService::eval_cap_reached(const Session& session) const {
  const std::uint64_t cap = options_.limits.max_evaluations_per_session;
  return cap > 0 && session.stepper->run().evaluations >= cap;
}

}  // namespace tunespace::tuner
