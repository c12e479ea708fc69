#include "tunespace/tuner/session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "tunespace/util/timer.hpp"
#include "util/atomic_file.hpp"
#include "util/parallel_for.hpp"

namespace tunespace::tuner {

using util::mix64;

// ---------------------------------------------------------------------------
// SharedEvalCache
// ---------------------------------------------------------------------------

struct SharedEvalCache::Stripe {
  struct Key {
    std::uint64_t fingerprint = 0;
    std::uint64_t row = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(mix64(k.fingerprint, k.row));
    }
  };
  mutable std::mutex mutex;
  std::unordered_map<Key, Measurement, KeyHash> map;
  // Counters live per stripe so hot lookups never contend on one cache line.
  mutable std::atomic<std::uint64_t> hits{0};
  mutable std::atomic<std::uint64_t> misses{0};
};

SharedEvalCache::~SharedEvalCache() = default;

SharedEvalCache::SharedEvalCache(std::size_t stripes) {
  stripes_.reserve(std::max<std::size_t>(1, stripes));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, stripes); ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::size_t SharedEvalCache::stripe_of(std::uint64_t space_fingerprint,
                                       std::uint64_t parent_row) const {
  return static_cast<std::size_t>(mix64(space_fingerprint, parent_row)) %
         stripes_.size();
}

std::optional<Measurement> SharedEvalCache::lookup(
    std::uint64_t space_fingerprint, std::uint64_t parent_row) const {
  const Stripe& stripe = *stripes_[stripe_of(space_fingerprint, parent_row)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.map.find({space_fingerprint, parent_row});
  if (it == stripe.map.end()) {
    stripe.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  stripe.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void SharedEvalCache::insert(std::uint64_t space_fingerprint,
                             std::uint64_t parent_row,
                             const Measurement& measurement) {
  Stripe& stripe = *stripes_[stripe_of(space_fingerprint, parent_row)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.map.emplace(Stripe::Key{space_fingerprint, parent_row}, measurement);
}

std::size_t SharedEvalCache::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    total += stripe->map.size();
  }
  return total;
}

std::uint64_t SharedEvalCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s->hits.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t SharedEvalCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s->misses.load(std::memory_order_relaxed);
  return total;
}

void SharedEvalCache::for_each(
    const std::function<void(std::uint64_t, std::uint64_t, const Measurement&)>&
        fn) const {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    for (const auto& [key, measurement] : stripe->map) {
      fn(key.fingerprint, key.row, measurement);
    }
  }
}

std::vector<std::pair<std::uint64_t, Measurement>> SharedEvalCache::entries_for(
    std::uint64_t space_fingerprint) const {
  std::vector<std::pair<std::uint64_t, Measurement>> entries;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    for (const auto& [key, measurement] : stripe->map) {
      if (key.fingerprint == space_fingerprint) {
        entries.emplace_back(key.row, measurement);
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

// ---------------------------------------------------------------------------
// Portfolio lockstep turnstile
// ---------------------------------------------------------------------------

namespace {

/// Serializes portfolio evaluations in virtual-time order: a member may
/// perform its next evaluation request only when its virtual clock is the
/// minimum over all still-active members (ties broken by member index).
/// Every shared-state read and write happens at such a turn boundary, so
/// the whole race — shared best, stall rule, member trajectories — is a
/// pure function of the root seed, independent of thread scheduling.
class LockstepRace {
 public:
  LockstepRace(std::size_t members, double start_clock,
               const PortfolioOptions& options)
      : options_(options),
        clocks_(members, start_clock),
        active_(members, 1),
        last_improvement_(start_clock) {}

  /// Block until member `m` (at virtual time `now`) holds the turn.
  void wait_turn(std::size_t m, double now) {
    std::unique_lock<std::mutex> lock(mutex_);
    clocks_[m] = now;
    cv_.notify_all();
    cv_.wait(lock, [&] { return stopped_ || holds_turn(m); });
  }

  /// The shared early-stop predicate, evaluated at member `m`'s turn so the
  /// answer only depends on evaluations that precede (now, m) in virtual
  /// order.
  bool should_stop(std::size_t m, double now) {
    std::unique_lock<std::mutex> lock(mutex_);
    clocks_[m] = now;
    cv_.notify_all();
    cv_.wait(lock, [&] { return stopped_ || holds_turn(m); });
    if (stopped_) return true;
    if (options_.target_gflops > 0 && best_ >= options_.target_gflops) {
      stopped_ = early_stopped_ = true;
    } else if (options_.stall_seconds > 0 &&
               now - last_improvement_ > options_.stall_seconds) {
      stopped_ = early_stopped_ = true;
    }
    if (stopped_) cv_.notify_all();
    return stopped_;
  }

  /// Publish one evaluation (caller holds the turn, so calls arrive in
  /// virtual-time order).
  void record(double gflops, double now) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (gflops > best_) {
      best_ = gflops;
      last_improvement_ = now;
    }
  }

  void finish(std::size_t m) {
    std::lock_guard<std::mutex> lock(mutex_);
    active_[m] = 0;
    cv_.notify_all();
  }

  bool early_stopped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return early_stopped_;
  }

 private:
  bool holds_turn(std::size_t m) const {
    for (std::size_t j = 0; j < clocks_.size(); ++j) {
      if (j == m || !active_[j]) continue;
      if (clocks_[j] < clocks_[m] || (clocks_[j] == clocks_[m] && j < m)) {
        return false;
      }
    }
    return true;
  }

  const PortfolioOptions& options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<double> clocks_;
  std::vector<std::uint8_t> active_;
  double best_ = 0;
  double last_improvement_ = 0;
  bool stopped_ = false;
  bool early_stopped_ = false;
};

/// Add `point` to a Pareto front unless a held point weakly dominates it,
/// dropping the held points it dominates.  Weak dominance drops duplicates:
/// an equal vector never grows the front.
void insert_non_dominated(std::vector<ParetoPoint>& front, const ParetoPoint& point,
                          const ObjectiveSpec& spec) {
  for (const ParetoPoint& held : front) {
    if (spec.dominates_or_equal(held.measurement, point.measurement)) return;
  }
  std::erase_if(front, [&](const ParetoPoint& held) {
    return spec.dominates(point.measurement, held.measurement);
  });
  front.push_back(point);
}

/// Thrown through the optimizer's run() to unwind it on cancel(); never
/// escapes the stepper's worker thread.
struct AbortStepper {};

/// Cached rows a warm start charges at most (TuningOptions::warm_start).
constexpr std::size_t kWarmStartSeeds = 8;

}  // namespace

// ---------------------------------------------------------------------------
// SessionCore: one session's state and request flow
// ---------------------------------------------------------------------------

/// Owns one session's virtual clock, budget and overhead accounting, memo,
/// shared-cache interaction, trajectory, Pareto front and warm-start seeds,
/// and runs the optimizer against them on the calling thread.  The closed
/// loop and the stepper differ only in the Fetch that answers a request
/// neither the memo nor the shared cache holds: run_session measures the
/// model right there, the SessionStepper parks its worker thread until
/// report().
class SessionCore {
 public:
  /// A fresh measurement of `ask` and its clock charge (< 0 charges cost).
  using Fetch = std::function<std::pair<Measurement, double>(Suggestion ask)>;

  /// `race` (portfolio members only) gates every request, stop check and
  /// evaluation of member `member` through the lockstep turnstile.
  SessionCore(searchspace::SubSpace space, std::string method_name,
              double construction_seconds, const TuningOptions& tuning,
              SessionStepper::CostFn cost_fn, SharedEvalCache* cache,
              std::uint64_t fingerprint, SessionStats* session_stats,
              LockstepRace* lockstep = nullptr, std::size_t member_index = 0)
      : view(std::move(space)),
        options(tuning),
        cost(std::move(cost_fn)),
        shared_cache(cache),
        cache_fingerprint(fingerprint),
        stats(session_stats),
        race(lockstep),
        member(member_index),
        rng(tuning.seed) {
    result.method_name = std::move(method_name);
    result.budget_seconds = options.budget_seconds;
    result.objectives = options.objectives;
    result.construction_seconds = options.fixed_construction_seconds >= 0
                                      ? options.fixed_construction_seconds
                                      : construction_seconds;
    clock.advance(result.construction_seconds * options.construction_time_scale);
    names.reserve(view.num_params());
    for (std::size_t p = 0; p < view.num_params(); ++p) {
      names.push_back(view.param_name(p));
    }
  }

  /// Seed from the shared cache, then run the optimizer until the budget is
  /// spent or the space is swept.  Returns at once when construction (or
  /// seeding) consumed the budget or the view is empty.
  void run_optimizer(Optimizer& optimizer, Fetch fetch_missing) {
    fetch = std::move(fetch_missing);
    if (clock.now() >= options.budget_seconds || view.empty()) return;
    seed_from_cache();
    if (clock.now() >= options.budget_seconds) return;
    EvalContext ctx{
        view,
        /*evaluate=*/
        [this](std::size_t row) {
          return options.objectives.scalarize(measure_row(row));
        },
        /*exhausted=*/
        [this] {
          return clock.now() >= options.budget_seconds ||
                 (race && race->should_stop(member, clock.now()));
        },
        &rng,
        /*measure=*/[this](std::size_t row) { return measure_row(row); },
        /*objectives=*/&options.objectives};
    ctx.seeded = seeded.empty() ? nullptr : &seeded;
    ctx.on_surrogate_refit = [this] {
      if (stats) stats->surrogate_refits++;
    };
    optimizer.run(ctx);
  }

  /// Stamp the session's wall time once it is over.
  void finish() {
    if (stats) stats->session_seconds = wall.seconds();
  }

  searchspace::SubSpace view;
  TuningOptions options;
  std::vector<std::string> names;
  util::VirtualClock clock;
  TuningRun result;
  std::optional<Suggestion> best;
  std::vector<std::pair<std::size_t, Measurement>> seeded;

 private:
  Measurement measure_row(std::size_t row);
  void seed_from_cache();

  SessionStepper::CostFn cost;
  SharedEvalCache* shared_cache;
  std::uint64_t cache_fingerprint;
  SessionStats* stats;
  LockstepRace* race;
  std::size_t member;
  Fetch fetch;
  util::WallTimer wall;
  util::Rng rng;
  std::unordered_map<std::size_t, Measurement> memo;
};

void SessionCore::seed_from_cache() {
  // Warm start (opt-in): charge the cache's kWarmStartSeeds best rows for
  // this fingerprint as the session's first evaluations, before the
  // optimizer starts.  Every seed is a guaranteed cache hit (the entry was
  // just enumerated and the cache never evicts), so measure_row never
  // reaches the fetch.  With the option off or the cache cold this is a
  // no-op — no clock charge, no Rng draw — keeping the session
  // bit-identical to a cold run.
  if (!options.warm_start || shared_cache == nullptr) return;
  struct Seed {
    double score;
    std::size_t local;
  };
  std::vector<Seed> seeds;
  for (const auto& [parent_row, measurement] :
       shared_cache->entries_for(cache_fingerprint)) {
    if (const auto local = view.local_of(parent_row)) {
      seeds.push_back({options.objectives.scalarize(measurement), *local});
    }
  }
  // entries_for returns rows ascending and the sort is stable, so ties
  // break by ascending row — the documented deterministic seeding order.
  std::stable_sort(seeds.begin(), seeds.end(),
                   [](const Seed& a, const Seed& b) { return a.score > b.score; });
  if (seeds.size() > kWarmStartSeeds) seeds.resize(kWarmStartSeeds);
  for (const Seed& seed : seeds) {
    if (clock.now() >= options.budget_seconds) break;
    // Charged through the normal request flow (overhead, evaluation cost,
    // trajectory, front), exactly like an optimizer-requested row.
    const std::uint64_t before = result.evaluations;
    const Measurement measured = measure_row(seed.local);
    if (result.evaluations == before) break;  // the overhead drained the budget
    seeded.emplace_back(seed.local, measured);
    if (stats) stats->seeded_rows++;
  }
}

Measurement SessionCore::measure_row(std::size_t row) {
  if (race) race->wait_turn(member, clock.now());
  clock.advance(options.overhead_per_request);
  const auto it = memo.find(row);
  if (it != memo.end()) return it->second;  // memoized: overhead only
  if (clock.now() >= options.budget_seconds) return Measurement{};
  // Cross-session sharing: the measurements are deterministic per
  // (space, model, objective-set) fingerprint, so a cached vector is
  // bit-identical to a fresh one and sharing only skips measurement work —
  // the virtual timeline (full evaluation cost) and the evaluation count
  // are charged either way, keeping a session's TuningRun independent of
  // who measured first.
  const std::uint64_t parent_row = view.parent_row(row);
  Measurement measured;
  double cost_seconds;
  const std::optional<Measurement> cached =
      shared_cache ? shared_cache->lookup(cache_fingerprint, parent_row) : std::nullopt;
  if (cached) {
    measured = *cached;  // inserted masked, under the same objective set
    cost_seconds = cost(measured);
    if (stats) stats->shared_cache_hits++;
  } else {
    const auto [reply, reply_seconds] = fetch({row, parent_row, view.config(row)});
    // Mask to the session's objective set *before* any session state sees
    // the vector: a session only records what it asked to measure, which
    // is what keeps closed-loop, ask/tell and scalar-report wire replays of
    // the same session bit-identical.
    measured = options.objectives.mask(reply);
    cost_seconds = reply_seconds >= 0 ? reply_seconds : cost(measured);
    if (stats) stats->model_evaluations++;
    if (shared_cache) shared_cache->insert(cache_fingerprint, parent_row, measured);
  }
  clock.advance(cost_seconds);
  memo.emplace(row, measured);
  result.evaluations++;
  // Front insertion order is the virtual-clock evaluation order, so the
  // front is as deterministic as the trajectory.
  insert_non_dominated(result.front,
                       {static_cast<std::uint64_t>(row), parent_row, measured,
                        clock.now(), result.evaluations},
                       options.objectives);
  const double score = options.objectives.scalarize(measured);
  if (score > result.best_score) {
    result.best_score = score;
    result.best = measured;
    result.best_gflops = measured.gflops;
    result.trajectory.push_back(
        {clock.now(), measured.gflops, result.evaluations, measured});
    best = Suggestion{row, parent_row, view.config(row)};
  }
  if (race) race->record(score, clock.now());
  return measured;
}

// ---------------------------------------------------------------------------
// SessionStepper: the core driven through suggest() / report()
// ---------------------------------------------------------------------------
//
// The optimizers are push-style (they call ctx.evaluate in a loop), so the
// stepper runs the core on a private worker thread and turns each fetch
// into a rendezvous: the worker parks and the request surfaces through
// suggest(); report() delivers the measurement and resumes the worker until
// it parks at the next request or returns.  Every public call leaves the
// worker parked or finished (the quiescence invariant), so the public
// methods' reads of the core never race — the mutex hand-offs at each
// park/resume establish the ordering.

SessionStepper::SessionStepper(searchspace::SubSpace view, std::string method_name,
                               double construction_seconds, Optimizer& optimizer,
                               const TuningOptions& options, CostFn cost,
                               SharedEvalCache* shared_cache,
                               std::uint64_t cache_fingerprint, SessionStats* stats)
    : core_(std::make_unique<SessionCore>(std::move(view), std::move(method_name),
                                          construction_seconds, options,
                                          std::move(cost), shared_cache,
                                          cache_fingerprint, stats)) {
  worker_ = std::thread([this, &optimizer] {
    try {
      core_->run_optimizer(optimizer, [this](Suggestion ask) {
        std::unique_lock<std::mutex> lock(mutex_);
        if (abort_) throw AbortStepper{};
        pending_ = std::move(ask);
        cv_.notify_all();
        cv_.wait(lock, [this] { return resume_ || abort_; });
        if (abort_) throw AbortStepper{};
        resume_ = false;
        return reply_;
      });
    } catch (const AbortStepper&) {
      // cancel() unwinding the optimizer: not an error.
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      worker_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  });

  // Run the optimizer up to its first evaluation request (or completion) so
  // the machine is quiescent when the constructor returns.
  std::unique_lock<std::mutex> lock(mutex_);
  wait_parked(lock);
  if (done_) {
    lock.unlock();
    finalize();
  }
}

SessionStepper::~SessionStepper() {
  // Swallow a pending optimizer error: destruction is not a query.
  try {
    cancel();
  } catch (...) {
  }
}

void SessionStepper::wait_parked(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [this] { return pending_.has_value() || done_; });
}

std::optional<Suggestion> SessionStepper::suggest() {
  if (finished_) return std::nullopt;
  if (awaiting_report_) {
    throw ServiceError(ErrorCode::kWrongState,
                       "suggest() while a report is outstanding");
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_parked(lock);
    if (pending_) {
      awaiting_report_ = true;
      return *pending_;
    }
  }
  finalize();  // the optimizer returned: budget exhausted or space swept
  return std::nullopt;
}

void SessionStepper::report(const Measurement& measurement,
                            double measure_seconds) {
  if (finished_) {
    throw ServiceError(ErrorCode::kSessionFinished,
                       "report() on a finished session");
  }
  if (!awaiting_report_) {
    throw ServiceError(ErrorCode::kWrongState,
                       "report() without an outstanding suggestion");
  }
  bool completed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    reply_ = {measurement, measure_seconds};
    pending_.reset();
    resume_ = true;
    awaiting_report_ = false;
    cv_.notify_all();
    wait_parked(lock);  // resume until the next ask (or completion)
    completed = done_ && !pending_;
  }
  if (completed) finalize();
}

void SessionStepper::cancel() {
  if (finished_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abort_ = true;
    cv_.notify_all();
  }
  awaiting_report_ = false;
  // The partial run is the requested outcome; an optimizer error surfacing
  // during teardown is reported to no one.
  try {
    finalize();
  } catch (...) {
  }
}

void SessionStepper::finalize() {
  if (finished_) return;
  if (worker_.joinable()) worker_.join();
  finished_ = true;
  core_->finish();
  if (worker_error_) {
    std::exception_ptr error = worker_error_;
    worker_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

double SessionStepper::now() const { return core_->clock.now(); }
const searchspace::SubSpace& SessionStepper::view() const { return core_->view; }
const std::vector<std::string>& SessionStepper::param_names() const {
  return core_->names;
}
const TuningRun& SessionStepper::run() const { return core_->result; }
const std::optional<Suggestion>& SessionStepper::best() const { return core_->best; }
const std::vector<std::pair<std::size_t, Measurement>>& SessionStepper::seeded() const {
  return core_->seeded;
}

TuningRun SessionStepper::take_run() {
  if (!finished_) {
    throw ServiceError(ErrorCode::kWrongState, "take_run() before completion");
  }
  return std::move(core_->result);
}

// ---------------------------------------------------------------------------
// The closed loop: the core driven on the caller's thread
// ---------------------------------------------------------------------------

namespace {

/// Borrow a reference as a shared_ptr without taking ownership (the aliasing
/// constructor with an empty control block); the referent must outlive it.
std::shared_ptr<const PerformanceModel> borrow(const PerformanceModel& model) {
  return std::shared_ptr<const PerformanceModel>(std::shared_ptr<void>(),
                                                 &model);
}

/// The resolved-view core of run_session: everything after the space exists.
/// The optimizer runs on the calling thread and every fetch is answered with
/// the model there and then.  `race` is set for portfolio members only.
TuningRun run_session_over(const searchspace::SubSpace& view,
                           const std::string& method_name,
                           double construction_seconds,
                           const SessionRequest& request,
                           LockstepRace* race = nullptr, std::size_t member = 0) {
  auto owned = request.optimizer ? nullptr : request.make_optimizer();
  Optimizer& optimizer = request.optimizer ? *request.optimizer : *owned;
  const PerformanceModel& model = *request.model;
  SessionCore core(
      view, method_name, construction_seconds, request.options,
      [&model](const Measurement& m) { return model.evaluation_cost(m.gflops); },
      request.shared_cache, request.cache_fingerprint, request.stats, race, member);
  core.run_optimizer(optimizer, [&](const Suggestion& ask) {
    return std::pair{model.measure(core.names, ask.config), -1.0};
  });
  core.finish();
  return std::move(core.result);
}

}  // namespace

TuningRun run_session(const SessionRequest& request) {
  if (!request.model) {
    throw ServiceError(ErrorCode::kInvalidArgument,
                       "run_session: SessionRequest::model is required");
  }
  if (!request.optimizer && !request.make_optimizer) {
    throw ServiceError(
        ErrorCode::kInvalidArgument,
        "run_session: set SessionRequest::optimizer or make_optimizer");
  }
  if (request.view) {
    searchspace::SubSpace view = *request.view;
    if (!request.restriction.trivial()) view = view.restrict(request.restriction);
    const double construction =
        request.construction_seconds >= 0
            ? request.construction_seconds
            : request.view->parent().construction_seconds();
    return run_session_over(
        view, request.method_name.empty() ? "subspace" : request.method_name,
        construction, request);
  }
  // Fresh construction: real measured latency, charged to the virtual clock
  // (subject to TuningOptions::fixed_construction_seconds, as always).
  const Method built = request.method ? Method{} : optimized_method();
  const Method& method = request.method ? *request.method : built;
  searchspace::SearchSpace space(request.spec, method);
  searchspace::SubSpace view(space);
  if (!request.restriction.trivial()) view = view.restrict(request.restriction);
  return run_session_over(view, method.name, space.construction_seconds(),
                          request);
}

SessionRequest make_session_request(const TuningProblem& spec,
                                    const Method& method,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options) {
  SessionRequest request;
  request.spec = spec;
  request.model = borrow(model);
  request.options = options;
  request.optimizer = &optimizer;
  request.method = &method;
  return request;
}

SessionRequest make_session_request(const searchspace::SubSpace& view,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options,
                                    const std::string& method_name) {
  SessionRequest request;
  request.model = borrow(model);
  request.options = options;
  request.optimizer = &optimizer;
  request.view = view;
  request.method_name = method_name;
  return request;
}

bool shareable(const TuningProblem& spec) {
  return spec.lambda_constraints().empty();
}

std::uint64_t eval_cache_fingerprint(const searchspace::SearchSpace& space,
                                     const PerformanceModel& model,
                                     const ObjectiveSpec& objectives) {
  return mix64(mix64(space.fingerprint(), model.fingerprint()),
               objectives.fingerprint());
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

struct SessionManager::SpaceRegistry {
  using SpacePtr = std::shared_ptr<const searchspace::SearchSpace>;
  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::shared_future<SpacePtr>> spaces;
  std::atomic<std::size_t> built{0};
  std::atomic<std::size_t> shared{0};
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)), registry_(std::make_unique<SpaceRegistry>()) {}

SessionManager::~SessionManager() = default;

std::size_t SessionManager::spaces_built() const { return registry_->built; }
std::size_t SessionManager::spaces_shared() const { return registry_->shared; }

std::shared_ptr<const searchspace::SearchSpace> SessionManager::acquire_space(
    const TuningProblem& spec, const Method& method, SessionStats* stats) {
  util::WallTimer timer;
  const auto build = [&] {
    return std::make_shared<const searchspace::SearchSpace>(
        options_.snapshot_cache_dir.empty()
            ? searchspace::SearchSpace(spec, method)
            : searchspace::SearchSpace::load_or_build(
                  spec, method, options_.snapshot_cache_dir));
  };

  if (!shareable(spec)) {
    registry_->built++;
    auto space = build();
    if (stats) {
      stats->shared_space = false;
      stats->space_seconds = timer.seconds();
    }
    return space;
  }

  const std::uint64_t fp = spec_fingerprint(spec, method);
  std::promise<SpaceRegistry::SpacePtr> promise;
  std::shared_future<SpaceRegistry::SpacePtr> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(registry_->mutex);
    const auto it = registry_->spaces.find(fp);
    if (it != registry_->spaces.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      registry_->spaces.emplace(fp, future);
      builder = true;
    }
  }
  if (builder) {
    registry_->built++;
    try {
      promise.set_value(build());
    } catch (...) {
      // Waiters see the build failure; drop the entry so a later session
      // can retry (e.g. after a transient snapshot-cache I/O error).
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(registry_->mutex);
      registry_->spaces.erase(fp);
    }
  } else {
    registry_->shared++;
  }
  auto space = future.get();  // rethrows a failed build
  if (stats) {
    stats->shared_space = !builder;
    stats->space_seconds = timer.seconds();
  }
  return space;
}

SessionResult SessionManager::run_one(SessionRequest& request) {
  SessionResult result;
  const Method built = request.method ? Method{} : optimized_method();
  const Method& method = request.method ? *request.method : built;
  auto space = acquire_space(request.spec, method, &result.stats);

  SessionRequest resolved = request;
  resolved.view = searchspace::SubSpace(space);  // shared-ownership handoff
  resolved.method_name = method.name;
  resolved.construction_seconds = space->construction_seconds();
  resolved.shared_cache = shareable(request.spec) ? &eval_cache_ : nullptr;
  resolved.cache_fingerprint = eval_cache_fingerprint(
      *space, *request.model, request.options.objectives);
  resolved.stats = &result.stats;
  result.run = run_session(resolved);
  return result;
}

std::vector<SessionResult> SessionManager::run_all(
    std::vector<SessionRequest> requests) {
  std::vector<SessionResult> results(requests.size());
  const std::size_t workers =
      options_.workers ? options_.workers : std::thread::hardware_concurrency();
  util::parallel_for(requests.size(), workers, [&](std::size_t, std::size_t i) {
    results[i] = run_one(requests[i]);
  });
  return results;
}

// ---------------------------------------------------------------------------
// Portfolio: deterministic lockstep race
// ---------------------------------------------------------------------------

PortfolioResult run_portfolio(const searchspace::SubSpace& view,
                              const PerformanceModel& model,
                              std::vector<std::unique_ptr<Optimizer>> optimizers,
                              const PortfolioOptions& options,
                              SharedEvalCache* shared_cache) {
  PortfolioResult result;
  const std::size_t n = optimizers.size();
  if (n == 0) return result;

  // Members always share measurements with each other; without an external
  // cache the race brings its own.
  SharedEvalCache local_cache;
  SharedEvalCache* cache = shared_cache ? shared_cache : &local_cache;
  const std::uint64_t cache_fp =
      eval_cache_fingerprint(view.parent(), model, options.base.objectives);

  const double construction = view.parent().construction_seconds();
  const double charged = options.base.fixed_construction_seconds >= 0
                             ? options.base.fixed_construction_seconds
                             : construction;
  LockstepRace race(n, charged * options.base.construction_time_scale, options);

  // Seed-split: one independent stream per member from the root seed.
  util::Rng root(options.base.seed);
  std::vector<std::uint64_t> seeds(n);
  for (auto& seed : seeds) seed = root();

  result.members.resize(n);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto race_member = [&](std::size_t m) {
    // A member must reach finish() on every path: an escaping exception
    // would otherwise leave the remaining members deadlocked in wait_turn
    // (and terminate the process, as std::thread has no result channel).
    try {
      TuningOptions member_options = options.base;
      member_options.seed = seeds[m];
      result.members[m].optimizer_name = optimizers[m]->name();
      result.members[m].seed = seeds[m];
      SessionRequest member =
          make_session_request(view, model, *optimizers[m], member_options);
      member.shared_cache = cache;
      member.cache_fingerprint = cache_fp;
      result.members[m].run =
          run_session_over(view, "portfolio:" + optimizers[m]->name(), construction,
                           member, &race, m);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    race.finish(m);
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t m = 0; m < n; ++m) threads.emplace_back(race_member, m);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  result.early_stopped = race.early_stopped();

  // Merge the member trajectories on the shared virtual timeline.  Points
  // are ordered by (time, member) — exactly the order the lockstep race
  // executed them in — and only portfolio-wide improvements survive; each
  // merged point keeps the contributing member's evaluation count.
  result.merged.method_name = "portfolio";
  result.merged.budget_seconds = options.base.budget_seconds;
  result.merged.construction_seconds = charged;
  result.merged.objectives = options.base.objectives;
  const ObjectiveSpec& spec = options.base.objectives;
  struct Tagged {
    TrajectoryPoint point;
    std::size_t member;
  };
  std::vector<Tagged> all;
  for (std::size_t m = 0; m < n; ++m) {
    result.merged.evaluations += result.members[m].run.evaluations;
    for (const auto& pt : result.members[m].run.trajectory) {
      all.push_back({pt, m});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.point.time_seconds != b.point.time_seconds) {
      return a.point.time_seconds < b.point.time_seconds;
    }
    return a.member < b.member;
  });
  for (const Tagged& t : all) {
    const double score = spec.scalarize(t.point.measurement);
    if (score > result.merged.best_score) {
      result.merged.best_score = score;
      result.merged.best = t.point.measurement;
      result.merged.best_gflops = t.point.best_gflops;
      result.merged.trajectory.push_back(t.point);
      result.winner = t.member;
    }
  }
  // Merge the member fronts in the same (time, member) order so the
  // portfolio-wide front is as deterministic as the merged trajectory.
  struct TaggedFront {
    ParetoPoint point;
    std::size_t member;
  };
  std::vector<TaggedFront> fronts;
  for (std::size_t m = 0; m < n; ++m) {
    for (const auto& pt : result.members[m].run.front) {
      fronts.push_back({pt, m});
    }
  }
  std::stable_sort(fronts.begin(), fronts.end(),
                   [](const TaggedFront& a, const TaggedFront& b) {
                     if (a.point.time_seconds != b.point.time_seconds) {
                       return a.point.time_seconds < b.point.time_seconds;
                     }
                     return a.member < b.member;
                   });
  for (const TaggedFront& t : fronts) {
    insert_non_dominated(result.merged.front, t.point, spec);
  }
  return result;
}

std::vector<std::unique_ptr<Optimizer>> default_portfolio() {
  std::vector<std::unique_ptr<Optimizer>> members;
  members.push_back(std::make_unique<RandomSearch>());
  members.push_back(std::make_unique<GeneticAlgorithm>());
  members.push_back(std::make_unique<SimulatedAnnealing>());
  members.push_back(std::make_unique<HillClimber>());
  members.push_back(std::make_unique<DifferentialEvolution>());
  members.push_back(std::make_unique<Nsga2>());
  members.push_back(std::make_unique<SurrogateGuided>());
  return members;
}

// ---------------------------------------------------------------------------
// TSEC persistence: the mergeable eval-cache file format
// ---------------------------------------------------------------------------

void save_shared_eval_cache(const SharedEvalCache& cache,
                            const std::string& path) {
  struct Entry {
    std::uint64_t fingerprint;
    std::uint64_t row;
    std::uint64_t gflops_bits;
    std::uint64_t watts_bits;
  };
  std::vector<Entry> entries;
  cache.for_each([&entries](std::uint64_t fingerprint, std::uint64_t row,
                            const Measurement& m) {
    entries.push_back({fingerprint, row, std::bit_cast<std::uint64_t>(m.gflops),
                       std::bit_cast<std::uint64_t>(m.watts)});
  });
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.fingerprint != b.fingerprint ? a.fingerprint < b.fingerprint
                                          : a.row < b.row;
  });
  // Measurements are doubles round-tripped as raw bit patterns, so a warm
  // restart serves bit-identical values and never perturbs a session.
  std::string text = "TSEC 2\n";
  char line[72];
  for (const Entry& entry : entries) {
    const int size =
        std::snprintf(line, sizeof(line), "%016llx %016llx %016llx %016llx\n",
                      static_cast<unsigned long long>(entry.fingerprint),
                      static_cast<unsigned long long>(entry.row),
                      static_cast<unsigned long long>(entry.gflops_bits),
                      static_cast<unsigned long long>(entry.watts_bits));
    text.append(line, static_cast<std::size_t>(size));
  }
  const std::span<const char> bytes[] = {{text.data(), text.size()}};
  try {
    util::write_file_atomically(path, bytes);
  } catch (const std::exception& e) {
    throw ServiceError(ErrorCode::kIo, "cannot persist " + path + ": " + e.what());
  }
}

std::size_t load_shared_eval_cache(SharedEvalCache& cache,
                                   const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0;  // cold start
  char magic[8] = {0};
  int version = 0;
  if (std::fscanf(file, "%7s %d", magic, &version) != 2 ||
      std::string_view(magic) != "TSEC" || version != 2) {
    std::fclose(file);
    return 0;  // stale or foreign format: start cold
  }
  std::size_t rows_read = 0;
  unsigned long long fingerprint = 0, row = 0, gflops = 0, watts = 0;
  while (std::fscanf(file, "%llx %llx %llx %llx", &fingerprint, &row, &gflops,
                     &watts) == 4) {
    cache.insert(
        static_cast<std::uint64_t>(fingerprint), static_cast<std::uint64_t>(row),
        Measurement{std::bit_cast<double>(static_cast<std::uint64_t>(gflops)),
                    std::bit_cast<double>(static_cast<std::uint64_t>(watts))});
    rows_read++;
  }
  std::fclose(file);
  return rows_read;
}

}  // namespace tunespace::tuner
