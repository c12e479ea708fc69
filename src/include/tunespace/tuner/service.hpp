#pragma once
// Tuning-as-a-service front end: a multi-tenant registry of live
// SessionStepper instances over the SessionManager's shared-space registry
// and SharedEvalCache.
//
// A TuningService hosts many concurrent ask/tell sessions:
//
//   open     admit a session over a catalog kernel (admission control per
//            tenant and service-wide), acquire its — possibly shared —
//            search space, and park an optimizer at its first suggestion.
//   suggest  next configuration the session wants measured.
//   report   feed the measurement back; it lands in the shared eval cache,
//            so concurrent sessions tuning the same space skip re-measuring.
//   best     best configuration measured so far.
//   close    retire the session and return its TuningRun summary.
//   drain    stop admitting, let live sessions finish, then quiesce.
//
// Every entry point speaks the transport-free structs of api.hpp and rejects
// with tunespace::ServiceError; the wire layer (server.hpp) is a thin codec
// on top.  With a state directory configured the service is restartable:
// resolved spaces persist as snapshots (SearchSpace::load_or_build) and the
// shared evaluation cache is saved on drain/shutdown and reloaded on start,
// so a restarted service warm-starts both construction and measurements.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tunespace/tuner/api.hpp"
#include "tunespace/tuner/session.hpp"

namespace tunespace::tuner {

/// One catalog entry: a named kernel the service can tune, bound to its
/// deterministic performance surface.
struct ServiceKernel {
  std::string name;  ///< wire name, e.g. "gemm" or "atf-prl-4"
  TuningProblem spec;
  std::shared_ptr<const PerformanceModel> model;
};

/// The service catalog: the Table 2 real-world kernels under lowercase
/// hyphenated wire names.  Hotspot and GEMM carry their dedicated surfaces;
/// the rest use the synthetic surface over their real constraint spaces.
const std::vector<ServiceKernel>& service_catalog();

/// Catalog lookup by wire name; nullptr when absent.
const ServiceKernel* find_service_kernel(const std::string& name);

/// Admission-control policy.  Zero means "unlimited" for the numeric caps.
struct ServiceLimits {
  std::size_t max_live_sessions = 64;        ///< service-wide
  std::size_t max_sessions_per_tenant = 8;   ///< per tenant bucket
  /// Sessions are force-finished after this many evaluations (0 = only the
  /// virtual budget ends a session).
  std::uint64_t max_evaluations_per_session = 0;
  /// open() rejects budgets above this cap (0 = any budget).
  double max_budget_seconds = 0;
};

struct TuningServiceOptions {
  ServiceLimits limits;
  /// When non-empty: snapshots live in <state_dir>/snapshots and the shared
  /// eval cache persists to <state_dir>/eval_cache.tsv across restarts.
  std::string state_dir;
};

/// Multi-tenant ask/tell tuning service.  Thread-safe: entry points may be
/// called concurrently for different sessions; calls on one session are
/// serialized internally (the per-session ask/tell ordering contract still
/// applies to the *caller's* interleaving, as enforced by SessionStepper).
class TuningService {
 public:
  explicit TuningService(TuningServiceOptions options = {});
  /// Cancels live sessions and saves persistent state (best effort).
  ~TuningService();
  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Admit and start a session; the response carries the session id every
  /// other call keys on.  Throws kInvalidArgument (unknown kernel /
  /// optimizer / method, bad numeric field), kAdmissionLimit, kDraining, or
  /// kSpaceBuildFailed.
  OpenSessionResponse open(const OpenSessionRequest& request);

  /// Next configuration to measure; `finished` instead of a configuration
  /// once the session completed.  Throws kUnknownSession / kWrongState.
  SuggestResponse suggest(const SuggestRequest& request);

  /// Measurement for the outstanding suggestion.  Throws kUnknownSession,
  /// kWrongState (no suggestion outstanding), kSessionFinished.
  ReportResponse report(const ReportRequest& request);

  /// Best measured configuration so far (empty before the first report).
  BestResponse best(const BestRequest& request);

  /// Observability snapshot of one live session.
  SessionInfo info(std::uint64_t session_id);

  /// Retire the session (cancelling it if still running) and return its
  /// TuningRun summary.  The id is dead afterwards.
  CloseSessionResponse close(const CloseSessionRequest& request);

  ServiceStats stats() const;

  /// Stop admitting new sessions; live sessions keep running until closed.
  void begin_drain();
  /// Block until draining and no sessions remain, or the timeout expires
  /// (< 0 waits forever).  Returns drained().
  bool wait_drained(double timeout_seconds = -1);
  bool draining() const;
  bool drained() const;  ///< draining and zero live sessions

  /// Persist the shared eval cache to the state directory (no-op without
  /// one).  Called automatically on destruction; throws kIo on write
  /// failure when called explicitly.
  void save_state() const;

  /// The underlying shared runtime (space registry + eval cache).
  SessionManager& manager() { return manager_; }

 private:
  struct Session;

  std::shared_ptr<Session> find(std::uint64_t session_id) const;
  SessionInfo info_of(Session& session) const;  // session mutex held
  bool eval_cap_reached(const Session& session) const;
  void load_eval_cache();
  std::string eval_cache_path() const;

  TuningServiceOptions options_;
  SessionManager manager_;

  mutable std::mutex mutex_;  ///< registry: sessions_, counters, drain flag
  std::condition_variable drain_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::unordered_map<std::string, std::size_t> live_per_tenant_;
  std::size_t pending_opens_ = 0;  ///< admitted slots still building a space
  std::uint64_t next_id_ = 1;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t rejected_ = 0;
  /// Transfer-learning counters: seeded rows accumulate at open (seeding
  /// completes inside the stepper constructor), surrogate refits at close
  /// (the stepper is quiescent after cancel, so the read races with no one).
  std::uint64_t seeded_rows_ = 0;
  std::uint64_t surrogate_refits_ = 0;
  bool draining_ = false;
};

}  // namespace tunespace::tuner
