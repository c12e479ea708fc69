#pragma once
// Concurrent multi-session tuning runtime.
//
// run_session drives exactly one optimizer over one space.  A production
// tuner serves many sessions at once — several kernels, several devices,
// several users — and most of that load is redundant: sessions tuning the
// same spec re-solve the same constrained space and re-measure the same
// configurations.  This header adds the runtime that amortizes both:
//
//   SharedEvalCache   lock-striped map of simulated kernel measurements
//                     keyed by (space fingerprint, parent row id).  The
//                     performance models are deterministic, so a cached
//                     value is bit-identical to a fresh measurement and
//                     sharing never changes a session's result — it only
//                     skips redundant model work.
//
//   run_session       the closed loop: takes one SessionRequest, runs the
//                     optimizer on the calling thread, answers every
//                     evaluation the session cannot serve from its memo or
//                     the shared cache with PerformanceModel::measure, and
//                     returns the finished TuningRun (trajectory + Pareto
//                     front).
//
//   SessionStepper    the same session inverted into a resumable ask/tell
//                     state machine for callers that own the measurement
//                     (the TuningService, service.hpp): suggest() yields the
//                     next configuration to measure, report() feeds the
//                     measurement back.  The optimizer runs unchanged on a
//                     private worker thread, the one thread a session owns.
//
//                     Both run one session core (session.cpp) —
//                     virtual clock, budget and overhead accounting, memo,
//                     shared-cache interaction, trajectory, Pareto front and
//                     warm-start seeding — and differ only in the call that
//                     fetches a missing measurement, so the session
//                     semantics exist exactly once.
//
//   SessionManager    schedules many TuningSessions over a worker pool, each
//                     worker running run_session inline.  Sessions whose
//                     spec + method hash to the same fingerprint share one
//                     immutable SearchSpace: the first session to need it
//                     builds it (optionally via SearchSpace::load_or_build
//                     when a snapshot cache directory is configured) and
//                     every other session blocks on the same shared_future
//                     instead of re-solving.  Results are byte-deterministic
//                     per session for a fixed seed, independent of the
//                     worker count and of which sessions run concurrently.
//
//   run_portfolio     races N optimizers (seed-split from one root seed)
//                     over the same view with a shared best-so-far and an
//                     early-stop rule.  Each member runs its closed loop on
//                     its own thread, but their evaluations are serialized
//                     in *virtual-time* order by a lockstep scheduler (ties
//                     broken by member index), so the shared best, the early
//                     stop and every member trajectory are reproducible
//                     bit-for-bit regardless of thread scheduling.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tunespace/searchspace/query.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/searchspace/view.hpp"
#include "tunespace/tuner/api.hpp"
#include "tunespace/tuner/runner.hpp"
#include "tunespace/util/timer.hpp"

namespace tunespace::tuner {

/// Lock-striped cache of kernel measurements shared across concurrent
/// sessions, keyed by (space fingerprint, parent row id) so sessions tuning
/// different restrictions of the same space still share.  Values are full
/// Measurement vectors, already masked to the owning session's objective
/// set; the cache fingerprint mixes that objective set, so sessions only
/// ever share vectors of the same shape.  Values come from the
/// deterministic performance models, so a hit returns exactly what a fresh
/// measurement would — sharing is invisible in the results.
class SharedEvalCache {
 public:
  explicit SharedEvalCache(std::size_t stripes = 64);
  ~SharedEvalCache();  // out of line: Stripe is an implementation detail
  SharedEvalCache(const SharedEvalCache&) = delete;
  SharedEvalCache& operator=(const SharedEvalCache&) = delete;

  /// Cached measurement for (space, row), if any session has produced it.
  std::optional<Measurement> lookup(std::uint64_t space_fingerprint,
                                    std::uint64_t parent_row) const;
  /// Publish a measurement (idempotent: later inserts keep the first value).
  void insert(std::uint64_t space_fingerprint, std::uint64_t parent_row,
              const Measurement& measurement);

  std::size_t size() const;      ///< distinct cached measurements
  std::uint64_t hits() const;    ///< lookups served from the cache
  std::uint64_t misses() const;  ///< lookups that fell through to the model

  /// Visit every cached entry (stripe by stripe, under the stripe locks);
  /// visiting order is unspecified.  Powers the TuningService's eval-cache
  /// persistence.
  void for_each(const std::function<void(std::uint64_t space_fingerprint,
                                         std::uint64_t parent_row,
                                         const Measurement& measurement)>& fn)
      const;

  /// Every cached (parent row, measurement) under one fingerprint, sorted
  /// by ascending row — the deterministic enumeration warm-start seeding
  /// ranks from.  A scan, not a lookup: it does not touch the hit/miss
  /// counters.
  std::vector<std::pair<std::uint64_t, Measurement>> entries_for(
      std::uint64_t space_fingerprint) const;

 private:
  struct Stripe;
  std::size_t stripe_of(std::uint64_t space_fingerprint,
                        std::uint64_t parent_row) const;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// Whether sessions of `spec` may share a space and measurements with
/// other sessions.  Native lambda constraints are opaque to
/// spec_fingerprint, so two behaviorally different specs could collide:
/// such specs never share.
bool shareable(const TuningProblem& spec);

/// The SharedEvalCache fingerprint of sessions over `space` measured by
/// `model` under `objectives`.  The objective set is part of the key
/// because cached vectors are masked to it, so sessions only ever share
/// measurements of the same space, surface and vector shape.  Persisted
/// TSEC files are keyed by it: the mix order must not change.
std::uint64_t eval_cache_fingerprint(const searchspace::SearchSpace& space,
                                     const PerformanceModel& model,
                                     const ObjectiveSpec& objectives);

/// Per-session observability filled by the shared runtime.
struct SessionStats {
  bool shared_space = false;        ///< space was reused from the registry
  double space_seconds = 0;         ///< wall seconds acquiring the space
  double session_seconds = 0;       ///< wall seconds in the session loop
  std::uint64_t shared_cache_hits = 0;    ///< evals served by SharedEvalCache
  std::uint64_t model_evaluations = 0;    ///< evals actually computed
  std::uint64_t seeded_rows = 0;          ///< warm-start rows charged at open
  std::uint64_t surrogate_refits = 0;     ///< model-based optimizer refits
};

class SessionCore;  // one session's state and request flow (session.cpp)

/// A configuration the stepper wants measured.
struct Suggestion {
  std::size_t row = 0;           ///< view-local row id
  std::uint64_t parent_row = 0;  ///< row id in the parent space
  csp::Config config;            ///< values in declared parameter order
};

/// A session driven from outside: the ask/tell state machine.
///
/// A SessionStepper runs the same session core as run_session — virtual
/// clock, budget and overhead accounting, trajectory, session-local memo and
/// shared-eval-cache interaction — with the optimizer unchanged on a private
/// worker thread.  Whenever the optimizer requests an evaluation the core
/// either satisfies it internally (session memo, shared cache — both charge
/// the clock exactly as the closed loop does) or the stepper parks the
/// worker and surfaces the configuration through suggest().  report() feeds
/// the measurement back, resumes the worker and returns once it parks at the
/// next request (or finishes), so between any two public calls the machine
/// is quiescent and every accessor is safe.
///
/// Contract (enforced with ServiceError):
///   - suggest() and report() strictly alternate: report() without an
///     outstanding suggestion throws kWrongState, as does suggest() while a
///     report is pending.  Once the session completed, suggest() returns
///     nullopt (idempotently) and report() throws kSessionFinished.
///   - Replay is deterministic: driving the stepper with the same view,
///     optimizer, options and measurement sequence reproduces the same
///     suggestions and the same TuningRun bit-for-bit, so answering every
///     suggestion with the model matches run_session exactly.
///   - A measurement reported for (view, cache_fingerprint) becomes visible
///     to every other session sharing the cache the moment report() charges
///     it; later sessions hitting the entry still charge full evaluation
///     cost, so sharing never changes any session's TuningRun.
class SessionStepper {
 public:
  /// Computes the virtual-clock charge of a measurement (the model's
  /// evaluation_cost on the library path — power rides along with the
  /// throughput benchmark, so the vector costs what the scalar did); also
  /// used to charge shared-cache hits, which never reach the reporter.
  using CostFn = std::function<double(const Measurement& measurement)>;

  /// `optimizer`, `stats` and everything captured by `cost` must outlive the
  /// stepper.  The constructor runs the optimizer up to its first evaluation
  /// request (or to completion, for an empty view or an exhausted budget).
  SessionStepper(searchspace::SubSpace view, std::string method_name,
                 double construction_seconds, Optimizer& optimizer,
                 const TuningOptions& options, CostFn cost,
                 SharedEvalCache* shared_cache = nullptr,
                 std::uint64_t cache_fingerprint = 0,
                 SessionStats* stats = nullptr);
  ~SessionStepper();  // cancels a still-live session
  SessionStepper(const SessionStepper&) = delete;
  SessionStepper& operator=(const SessionStepper&) = delete;

  /// Next configuration to measure, or nullopt once the session finished
  /// (budget exhausted or the optimizer swept the space).  Rethrows any
  /// exception the optimizer escaped with.
  std::optional<Suggestion> suggest();

  /// Answer the outstanding suggestion with a full objective vector;
  /// `measure_seconds` is the wall cost charged to the virtual clock (< 0
  /// charges cost(measurement), the model path).  The vector is masked to
  /// the session's ObjectiveSpec before it touches any session state —
  /// trajectory, Pareto front, memo, shared cache — so a session only ever
  /// records what it asked to measure.  Publishes to the shared cache,
  /// advances the clock, memoizes, and extends the trajectory and front.
  void report(const Measurement& measurement, double measure_seconds = -1.0);

  /// Abort the optimizer and finalize with the partial TuningRun (idempotent).
  void cancel();

  bool awaiting_report() const { return awaiting_report_; }
  bool finished() const { return finished_; }
  double now() const;  ///< session virtual time
  const searchspace::SubSpace& view() const;
  const std::vector<std::string>& param_names() const;
  /// The run so far (final once finished()); valid between public calls.
  const TuningRun& run() const;
  /// Move the finished run out; requires finished().
  TuningRun take_run();
  /// Best measured configuration so far; nullopt before the first
  /// improvement.
  const std::optional<Suggestion>& best() const;
  /// Warm-start observations charged before the optimizer started (empty
  /// for cold sessions): view-local rows with their masked measurements, in
  /// seeding order.
  const std::vector<std::pair<std::size_t, Measurement>>& seeded() const;

 private:
  void wait_parked(std::unique_lock<std::mutex>& lock);
  void finalize();  // join + rethrow a worker error

  std::unique_ptr<SessionCore> core_;

  // Rendezvous between the driver (public methods) and the worker thread.
  // All flags below are guarded by mutex_; outside a public call the worker
  // is parked waiting for a report or has set done_, so reads of the core
  // from the public methods race with nothing.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Suggestion> pending_;  ///< parked ask not yet consumed
  std::pair<Measurement, double> reply_;  ///< reported vector and seconds
  bool resume_ = false;
  bool abort_ = false;
  bool done_ = false;
  std::exception_ptr worker_error_;
  bool awaiting_report_ = false;
  bool finished_ = false;
  std::thread worker_;  // last: runs the core against everything above
};

/// One tuning session, for run_session and the SessionManager — the single
/// options struct every tuning path is phrased in.  Exactly one source of
/// the space must be set: either `spec` (+ optional `method`) for a fresh
/// construction, or `view` for an already-resolved space or a
/// restriction of one.  The optimizer likewise comes from either
/// `make_optimizer` (owning; preferred, and required under a
/// SessionManager, whose workers need a fresh instance per run) or
/// `optimizer` (non-owning, for callers holding one).
struct SessionRequest {
  TuningProblem spec;
  std::shared_ptr<const PerformanceModel> model;
  std::function<std::unique_ptr<Optimizer>()> make_optimizer;
  TuningOptions options;
  /// Optional tune-time restriction applied to the (shared) space; the
  /// trivial predicate tunes over the whole space.
  searchspace::query::Predicate restriction;
  /// Optional construction method, lent by the caller (Method is
  /// move-only) and outliving the call; null uses the optimized method.
  /// Sessions share a space iff their (spec, method) fingerprints match.
  const Method* method = nullptr;
  /// Pre-resolved space (or restriction) to tune over instead of
  /// constructing one from `spec`; rows in the run are the view's local
  /// ids.  `restriction` still applies on top when non-trivial.
  std::optional<searchspace::SubSpace> view;
  /// Run label when `view` is set (constructed spaces use the method's
  /// name); empty means "subspace".
  std::string method_name;
  /// Construction latency charged to the virtual clock when `view` is set;
  /// < 0 charges the view's parent-space construction time.  (With `spec`,
  /// the fresh construction is measured and charged, as always subject to
  /// TuningOptions::fixed_construction_seconds.)
  double construction_seconds = -1;
  /// Non-owning optimizer alternative to make_optimizer; must outlive the
  /// call.
  Optimizer* optimizer = nullptr;
  /// Cross-session measurement sharing (see SharedEvalCache); the
  /// fingerprint must identify the (space, model, objective-set) triple —
  /// use eval_cache_fingerprint() — so sessions only ever share
  /// measurements of the same surface, space and vector shape.  Cache hits
  /// still charge full evaluation cost and count as evaluations, so a
  /// session's TuningRun is bit-identical with and without sharing.
  SharedEvalCache* shared_cache = nullptr;
  std::uint64_t cache_fingerprint = 0;
  SessionStats* stats = nullptr;  ///< optional observability sink
};

/// Run one tuning session described by a SessionRequest: resolve the space
/// (construct from `spec` or adopt `view`), run the optimizer on the calling
/// thread, answer every evaluation the session cannot serve from its memo or
/// the shared cache with model->measure(), and return the finished
/// TuningRun.  This is the one canonical entry point; the SessionManager
/// workers and the Portfolio members phrase themselves as SessionRequests
/// too.
TuningRun run_session(const SessionRequest& request);

/// Convenience builders for the common shapes.  The returned request
/// borrows `model`, `optimizer` and (for the view form) the view's parent
/// space — all must outlive the run_session call.
SessionRequest make_session_request(const TuningProblem& spec,
                                    const Method& method,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options);
SessionRequest make_session_request(const searchspace::SubSpace& view,
                                    const PerformanceModel& model,
                                    Optimizer& optimizer,
                                    const TuningOptions& options,
                                    const std::string& method_name = "subspace");

/// Result of one scheduled session.
struct SessionResult {
  TuningRun run;
  SessionStats stats;
};

/// Options for a SessionManager.
struct SessionManagerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// When non-empty, shared spaces resolve through
  /// SearchSpace::load_or_build(spec, method, snapshot_cache_dir), so a
  /// warm snapshot cache makes even the first session's construction fast.
  std::string snapshot_cache_dir;
};

/// Schedules many tuning sessions over a worker pool, sharing immutable
/// spaces and kernel measurements between sessions of the same spec.
/// Thread-safe; one manager can serve many run_all calls (the eval cache
/// and space registry persist across them).
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Run every session to completion; results are indexed like `requests`.
  /// Each session's TuningRun is identical to what an isolated run_session
  /// with the same spec, optimizer, and options would produce (fix
  /// TuningOptions::fixed_construction_seconds for bit-exact equality —
  /// measured construction latency is machine noise).  The first session
  /// that throws stops new sessions from starting; its exception is
  /// rethrown once the running ones finished.
  std::vector<SessionResult> run_all(std::vector<SessionRequest> requests);

  /// The shared space for (spec, method): built at most once per
  /// fingerprint; concurrent callers block on the in-flight build.  Specs
  /// that are not shareable() get a private space.  `stats` (optional)
  /// reports whether the space was shared and the wall seconds spent
  /// waiting.
  std::shared_ptr<const searchspace::SearchSpace> acquire_space(
      const TuningProblem& spec, const Method& method,
      SessionStats* stats = nullptr);

  const SharedEvalCache& eval_cache() const { return eval_cache_; }
  /// Mutable cache access for runtimes layered on top (the TuningService
  /// hands it to its steppers and persists it across restarts).
  SharedEvalCache& eval_cache() { return eval_cache_; }
  std::size_t spaces_built() const;   ///< registry misses (fresh builds)
  std::size_t spaces_shared() const;  ///< registry hits (reused spaces)

 private:
  SessionResult run_one(SessionRequest& request);

  SessionManagerOptions options_;
  SharedEvalCache eval_cache_;
  struct SpaceRegistry;
  std::unique_ptr<SpaceRegistry> registry_;
};

/// Options for a portfolio race.
struct PortfolioOptions {
  /// Budget / overhead / construction charge shared by every member; the
  /// seed is the *root* seed, split into one independent stream per member.
  TuningOptions base;
  /// Early stop: halt every member once the shared best has not improved
  /// for this much virtual time (0 disables the rule).
  double stall_seconds = 0;
  /// Early stop: halt every member once the shared best reaches this
  /// performance (0 disables the rule).
  double target_gflops = 0;
};

/// One racer's outcome.
struct PortfolioMemberResult {
  std::string optimizer_name;
  std::uint64_t seed = 0;  ///< the member's split seed
  TuningRun run;
};

/// Result of a portfolio race: per-member trajectories plus the merged run.
struct PortfolioResult {
  std::vector<PortfolioMemberResult> members;
  /// All member trajectories merged on the shared virtual timeline
  /// (best-so-far across the whole portfolio; evaluations are summed).
  TuningRun merged;
  std::size_t winner = 0;     ///< member holding the final shared best
  bool early_stopped = false; ///< a PortfolioOptions rule ended the race
};

/// Race `optimizers` over `view` with a shared best-so-far: members run
/// concurrently but every evaluation is serialized in virtual-time order
/// (ties by member index), so the race is reproducible bit-for-bit for a
/// fixed root seed regardless of thread count.  Member i draws its seed
/// from the root seed's split stream.  `shared_cache` (optional) lets the
/// race share measurements with a surrounding SessionManager; when null,
/// members still share measurements with each other through a race-local
/// cache.
PortfolioResult run_portfolio(const searchspace::SubSpace& view,
                              const PerformanceModel& model,
                              std::vector<std::unique_ptr<Optimizer>> optimizers,
                              const PortfolioOptions& options,
                              SharedEvalCache* shared_cache = nullptr);

/// The standard seven-optimizer portfolio (random sampling, genetic
/// algorithm, simulated annealing, hill climbing, differential evolution,
/// NSGA-II non-dominated selection, surrogate-guided model-based search).
std::vector<std::unique_ptr<Optimizer>> default_portfolio();

/// Persist every entry of a SharedEvalCache as a TSEC file — one sorted
/// "fingerprint row gflops watts" hex quad per line, so equal cache contents
/// produce byte-identical files regardless of insertion order.  Throws
/// ServiceError(kIo) on write failure.  This is the format the
/// TuningService's state dir uses (eval_cache.tsv) and the unit fleet-level
/// replication merges.
void save_shared_eval_cache(const SharedEvalCache& cache,
                            const std::string& path);

/// Merge a TSEC 2 file into `cache`; returns the rows read (0 for a missing
/// file or a file of any other format or version, which starts cold).
/// Insertion goes through SharedEvalCache::insert, so merging is
/// first-insert-wins: loading files with overlapping keys keeps whichever
/// value got there first, and loading them in any order yields the same
/// cache when the overlapping values agree (the deterministic-model case —
/// tested in test_transfer, the property fleet-level cache replication
/// depends on).  A missing or foreign-format file loads zero rows (a warm
/// restart must tolerate a cold or stale state dir).
std::size_t load_shared_eval_cache(SharedEvalCache& cache,
                                   const std::string& path);

}  // namespace tunespace::tuner
