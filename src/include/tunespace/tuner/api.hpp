#pragma once
// Tuning-as-a-service API: transport-free request/response value structs.
//
// The TuningService (service.hpp) exposes the concurrent runtime's ask/tell
// surface — open a session, ask for the next configuration to measure, tell
// the service the measurement, query the best, close — to many tenants at
// once.  Every entry point consumes and produces the plain value structs in
// this header; the wire layer (protocol.hpp / server.hpp) maps the same
// structs onto length-prefixed JSON frames.  Nothing here touches iostreams
// or sockets, so embedding clients can drive a TuningService in-process with
// zero serialization, and the wire encoding can change without touching the
// service logic.
//
// Errors are uniform across the stack: every tuner/service entry point that
// rejects a request throws tunespace::ServiceError carrying a stable
// ErrorCode.  The code (not the message) is the contract — it is what
// crosses the wire and what clients switch on.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tunespace/csp/value.hpp"
#include "tunespace/tuner/objective.hpp"

namespace tunespace {

/// Stable error taxonomy shared by the tuner service entry points, the wire
/// protocol and the client.  Codes are part of the wire contract: their
/// names (error_code_name) never change meaning once released.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< malformed request field, unknown kernel/optimizer
  kUnknownSession,    ///< session id not live on this service
  kAdmissionLimit,    ///< per-tenant or global live-session limit reached
  kDraining,          ///< service is draining; new sessions are rejected
  kWrongState,        ///< suggest/report called out of ask/tell order
  kSessionFinished,   ///< session already ran to completion
  kSpaceBuildFailed,  ///< search-space construction threw
  kProtocol,          ///< malformed frame or JSON payload
  kIo,                ///< socket or state-file I/O failure
  kInternal,          ///< anything that escaped the categories above
  kUnsupportedVersion,  ///< client requested a protocol version > server's
};

/// Stable wire identifier of a code (e.g. "admission_limit").
const char* error_code_name(ErrorCode code);

/// Inverse of error_code_name; unknown names map to ErrorCode::kInternal so
/// a newer server never crashes an older client.
ErrorCode error_code_from_name(std::string_view name);

/// The one exception type thrown by the tuning-service stack.  what() is
/// human-readable; code() is the machine contract carried over the wire.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

namespace tuner {

/// One named parameter value (a configuration is a vector of these, in the
/// space's declared parameter order).
struct NamedValue {
  std::string name;
  csp::Value value;

  friend bool operator==(const NamedValue&, const NamedValue&) = default;
};

/// A tune-time restriction: parameter must take one of `values` (compiled
/// onto query::in_set; values absent from the domain are ignored).
struct ParamFilter {
  std::string param;
  std::vector<csp::Value> values;

  friend bool operator==(const ParamFilter&, const ParamFilter&) = default;
};

/// Open a tuning session over a named kernel from the service catalog.
struct OpenSessionRequest {
  std::string tenant;             ///< admission-control bucket ("" is a tenant)
  std::string kernel;             ///< catalog name, e.g. "gemm" (see service.hpp)
  std::string optimizer = "random-sampling";  ///< one of the portfolio names
  std::string method;             ///< construction method; "" = optimized
  std::uint64_t seed = 1;
  double budget_seconds = 120.0;
  double overhead_per_request = 0.005;
  /// Fixed virtual construction charge (>= 0) or -1 to charge the measured
  /// construction latency (see TuningOptions::fixed_construction_seconds).
  double fixed_construction_seconds = -1.0;
  double construction_time_scale = 1.0;
  /// Conjunction of per-parameter restrictions applied to the shared space.
  std::vector<ParamFilter> restrictions;
  /// Objective set of the session; the default is the single objective
  /// (maximize gflops), which is also what an open without an objectives
  /// field means.
  ObjectiveSpec objectives{};
  /// Opt-in cross-session transfer (TuningOptions::warm_start): seed the
  /// session from the service's shared eval cache before the optimizer
  /// starts.  Absent on the wire means off.
  bool warm_start = false;

  friend bool operator==(const OpenSessionRequest&,
                         const OpenSessionRequest&) = default;
};

/// Live-session observability snapshot.
struct SessionInfo {
  std::uint64_t session_id = 0;
  std::string tenant;
  std::string kernel;
  std::string optimizer;
  std::string method;
  std::uint64_t space_rows = 0;    ///< rows in the session's (restricted) view
  std::vector<std::string> param_names;
  bool shared_space = false;       ///< space reused from the registry/snapshot
  bool awaiting_report = false;    ///< a suggestion is outstanding
  bool finished = false;
  double now_seconds = 0;          ///< session virtual clock
  double budget_seconds = 0;
  double best_gflops = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t shared_cache_hits = 0;   ///< evals served by the shared cache
  std::uint64_t model_evaluations = 0;   ///< evals that reached the reporter
  ObjectiveSpec objectives{};   ///< the session's objective set
  double best_score = 0;      ///< scalarized score of the incumbent
  Measurement best{};           ///< incumbent objective vector
  std::uint64_t seeded_rows = 0;       ///< warm-start rows charged at open
  std::uint64_t surrogate_refits = 0;  ///< model-based optimizer refits

  friend bool operator==(const SessionInfo&, const SessionInfo&) = default;
};

struct OpenSessionResponse {
  std::uint64_t session_id = 0;
  SessionInfo info;

  friend bool operator==(const OpenSessionResponse&,
                         const OpenSessionResponse&) = default;
};

struct SuggestRequest {
  std::uint64_t session_id = 0;

  friend bool operator==(const SuggestRequest&, const SuggestRequest&) = default;
};

/// The next configuration to measure.  `finished` true means the session ran
/// out of budget (or hit its evaluation cap): no configuration is attached
/// and the client should read the result via best/close.
struct SuggestResponse {
  std::uint64_t session_id = 0;
  bool finished = false;
  std::uint64_t config_id = 0;   ///< view-local row id; echo it in debugging
  std::uint64_t parent_row = 0;  ///< row id in the parent space
  std::vector<NamedValue> config;
  double now_seconds = 0;
  std::uint64_t evaluations = 0;

  friend bool operator==(const SuggestResponse&, const SuggestResponse&) = default;
};

/// Report the measurement of the outstanding suggestion: either the full
/// objective vector in `measurement` (mirrored into `gflops`), or only
/// `gflops`, which the service widens to a gflops-only vector.  When both
/// are set, `measurement` wins.
struct ReportRequest {
  std::uint64_t session_id = 0;
  double gflops = 0;
  /// Measured benchmark wall seconds to charge to the virtual clock; < 0
  /// charges the session model's simulated evaluation cost instead.
  double measure_seconds = -1.0;
  Measurement measurement{};  ///< full objective vector (all-zero = unset)

  friend bool operator==(const ReportRequest&, const ReportRequest&) = default;
};

struct ReportResponse {
  std::uint64_t session_id = 0;
  bool improved = false;         ///< this measurement set a new session best
  bool finished = false;         ///< the session completed during this report
  double best_gflops = 0;
  double now_seconds = 0;
  std::uint64_t evaluations = 0;
  double best_score = 0;         ///< scalarized score of the incumbent
  Measurement best{};              ///< incumbent objective vector

  friend bool operator==(const ReportResponse&, const ReportResponse&) = default;
};

struct BestRequest {
  std::uint64_t session_id = 0;

  friend bool operator==(const BestRequest&, const BestRequest&) = default;
};

/// Best configuration measured so far (empty config before the first report).
struct BestResponse {
  std::uint64_t session_id = 0;
  double best_gflops = 0;
  std::vector<NamedValue> config;
  double now_seconds = 0;
  std::uint64_t evaluations = 0;
  bool finished = false;
  double best_score = 0;  ///< scalarized score of the incumbent
  Measurement best{};       ///< incumbent objective vector

  friend bool operator==(const BestResponse&, const BestResponse&) = default;
};

/// One best-so-far trajectory point (mirrors tuner::TrajectoryPoint without
/// coupling the wire API to the runner header).
struct RunPoint {
  double time_seconds = 0;
  double best_gflops = 0;
  std::uint64_t evaluations = 0;
  Measurement measurement{};  ///< incumbent objective vector

  friend bool operator==(const RunPoint&, const RunPoint&) = default;
};

/// Final summary of a closed session's TuningRun.
struct RunSummary {
  std::string method_name;
  double construction_seconds = 0;
  double budget_seconds = 0;
  double best_gflops = 0;
  std::uint64_t evaluations = 0;
  std::vector<RunPoint> trajectory;
  ObjectiveSpec objectives{};  ///< the session's objective set
  double best_score = 0;     ///< scalarized score of the incumbent
  Measurement best{};          ///< incumbent objective vector
  std::vector<ParetoPoint> front;  ///< non-dominated set, evaluation order

  friend bool operator==(const RunSummary&, const RunSummary&) = default;
};

struct CloseSessionRequest {
  std::uint64_t session_id = 0;

  friend bool operator==(const CloseSessionRequest&,
                         const CloseSessionRequest&) = default;
};

struct CloseSessionResponse {
  std::uint64_t session_id = 0;
  RunSummary run;

  friend bool operator==(const CloseSessionResponse&,
                         const CloseSessionResponse&) = default;
};

/// Service-wide observability counters.
struct ServiceStats {
  std::uint64_t live_sessions = 0;
  std::uint64_t total_opened = 0;
  std::uint64_t total_closed = 0;
  std::uint64_t total_rejected = 0;  ///< admission + drain rejections
  bool draining = false;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t spaces_built = 0;
  std::uint64_t spaces_shared = 0;
  /// Warm-start rows charged across all opened sessions.
  std::uint64_t seeded_rows = 0;
  /// Surrogate refits accumulated from closed sessions.
  std::uint64_t surrogate_refits = 0;

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

struct DrainRequest {
  bool wait = false;             ///< block until every live session is closed
  double timeout_seconds = -1;   ///< cap on the wait; < 0 waits forever

  friend bool operator==(const DrainRequest&, const DrainRequest&) = default;
};

struct DrainResponse {
  bool draining = false;
  bool drained = false;          ///< draining and no live sessions remain
  std::uint64_t live_sessions = 0;

  friend bool operator==(const DrainResponse&, const DrainResponse&) = default;
};

}  // namespace tuner
}  // namespace tunespace
