#pragma once
// Wire protocol for the tuning service: length-prefixed JSON frames.
//
// Framing: each message is a 4-byte big-endian payload length followed by
// that many bytes of UTF-8 JSON.  Requests are envelopes {"op": "...",
// ...fields}; responses are {"ok": true, ...fields} on success and
// {"ok": false, "error": {"code": "...", "message": "..."}} on failure,
// where code is the stable error_code_name of the ServiceError the request
// raised.  Operations: ping, open, suggest, report, best, info, stats,
// close, drain.
//
// Versioning: the wire has one version, kProtocolVersion, and the library
// client stamps it as "v" on every request.  A server rejects only requests
// whose "v" exceeds its own version, with the typed kUnsupportedVersion
// error.  Every other field a request may omit has a default, so callers
// outside the library (curl, scripts, clients built against an older
// version) are still served: an absent "v" is accepted, an absent
// objectives field is the single-objective spec, a report with only the
// scalar "gflops" is a gflops-only measurement, and an open body with
// "surrogate": true selects the surrogate optimizer.  Readers ignore
// fields they do not know.
//
// Everything here is transport-agnostic: framing runs over the abstract
// ByteStream (a socket in server.hpp / service_client.hpp, an in-memory
// pipe in tests), and the codecs map api.hpp structs onto util::json
// documents.  Configurations cross the wire as JSON objects in declared
// parameter order with exact integers (json::Value keeps int64s intact).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tunespace/tuner/api.hpp"
#include "tunespace/util/json.hpp"

namespace tunespace::tuner::wire {

/// Upper bound on a frame payload; oversized lengths are a protocol error
/// (they are far more likely a desynchronized or hostile peer than a real
/// message).
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

/// The wire protocol version this build speaks and stamps.  History:
///   1 — scalar gflops measurements.
///   2 — objective vectors (Measurement maps, ObjectiveSpec, Pareto front).
inline constexpr int kProtocolVersion = 2;

/// Blocking byte stream the framing runs over.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  /// Write exactly `n` bytes; throws ServiceError(kIo) on failure.
  virtual void write_all(const void* data, std::size_t n) = 0;
  /// Read exactly `n` bytes.  Returns false on clean EOF before the first
  /// byte; throws ServiceError(kIo) on error or mid-buffer truncation.
  virtual bool read_all(void* data, std::size_t n) = 0;
};

/// Send one frame (length prefix + payload).
void write_frame(ByteStream& stream, std::string_view payload);

/// Receive one frame's payload; nullopt on clean EOF at a frame boundary.
/// Throws ServiceError(kProtocol) for an oversized length, kIo for
/// truncation.
std::optional<std::string> read_frame(ByteStream& stream);

// -- HTTP/1.1 gateway codec --------------------------------------------------
// The HTTP gateway maps POST /v1/{op} with a JSON body onto the same
// dispatch table as the frame protocol, so curl and browser clients reach
// every op without speaking the length-prefix codec.  Deliberately minimal:
// Content-Length bodies only (chunked transfer encoding is rejected with
// 501), no query strings, one request at a time per connection.  The parser
// is incremental — it never blocks and never consumes a partial request —
// which is what lets the epoll event loop feed it straight from a
// per-connection read buffer.

/// Upper bound on the header block of one gateway request; longer blocks
/// are rejected with 431 (a desynchronized or hostile peer, same reasoning
/// as kMaxFrameBytes).
inline constexpr std::size_t kMaxHttpHeaderBytes = 64u * 1024u;

struct HttpRequest {
  std::string method;            ///< e.g. "POST"
  std::string target;            ///< e.g. "/v1/suggest"
  std::string body;              ///< Content-Length bytes (empty when none)
  bool keep_alive = true;        ///< HTTP/1.1 default; "Connection: close" clears
  bool expect_continue = false;  ///< "Expect: 100-continue" was present
  /// The request line and headers parsed fully (set even when the verdict
  /// is kNeedMore because body bytes are still in flight — the server uses
  /// this window to emit the interim 100 Continue).
  bool headers_complete = false;
};

enum class HttpParse : std::uint8_t {
  kNeedMore,  ///< buffer holds a prefix of a valid request; read more
  kOk,        ///< one full request parsed; `consumed` bytes were used
  kBad,       ///< irrecoverable; respond with `error_status` and close
};

/// Incrementally parse one HTTP/1.1 request from the front of `buffer`.
/// On kOk, `request` is complete and `consumed` says how many bytes the
/// request occupied (erase them before the next parse).  On kBad,
/// `error_status`/`error` describe the rejection (400 malformed, 501
/// chunked, 413 oversized body, 431 oversized headers).
HttpParse parse_http_request(std::string_view buffer, HttpRequest& request,
                             std::size_t& consumed, int& error_status,
                             std::string& error);

/// "/v1/{op}" -> "op"; empty when the target is not a gateway path.
std::string http_op_from_target(std::string_view target);

/// Serialize an HTTP/1.1 response carrying a JSON body.
std::string encode_http_response(int status, std::string_view json_body,
                                 bool keep_alive);

/// The HTTP status a wire error code maps to (200 for kOk).
int http_status_for(ErrorCode code);

// -- Envelopes ---------------------------------------------------------------

/// {"op": op, ...body members} — body must be an object (or null for none).
std::string encode_request(const std::string& op, const util::json::Value& body);

/// Split a request frame into (op, whole document).  Throws
/// ServiceError(kProtocol) when `op` is missing.
std::pair<std::string, util::json::Value> decode_request(const std::string& frame);

/// {"ok": true, ...body members}.
std::string encode_ok(const util::json::Value& body);

/// {"ok": false, "error": {"code": name, "message": message}}.
std::string encode_error(ErrorCode code, const std::string& message);

/// Parse a response frame; returns the document for ok=true and throws the
/// carried ServiceError for ok=false (kProtocol if the envelope itself is
/// malformed).
util::json::Value decode_response(const std::string& frame);

// -- Scalar / config codecs --------------------------------------------------

util::json::Value to_json(const csp::Value& value);
csp::Value csp_value_from_json(const util::json::Value& value);

/// A configuration as an ordered JSON object {"param": value, ...}.
util::json::Value config_to_json(const std::vector<NamedValue>& config);
std::vector<NamedValue> config_from_json(const util::json::Value& value);

// -- Objective codecs --------------------------------------------------------

/// {"gflops": x, "watts": y} — zero components are written too, so the
/// object is the full vector, not a sparse map.
util::json::Value to_json(const Measurement& measurement);
Measurement measurement_from_json(const util::json::Value& value);

/// [{"name": ..., "direction": "maximize"|"minimize", "weight": ...}, ...]
util::json::Value to_json(const ObjectiveSpec& spec);
ObjectiveSpec objective_spec_from_json(const util::json::Value& value);

util::json::Value to_json(const ParetoPoint& point);
ParetoPoint pareto_point_from_json(const util::json::Value& value);

// -- api.hpp struct codecs ---------------------------------------------------

util::json::Value to_json(const OpenSessionRequest& request);
OpenSessionRequest open_session_request_from_json(const util::json::Value& value);

util::json::Value to_json(const SessionInfo& info);
SessionInfo session_info_from_json(const util::json::Value& value);

util::json::Value to_json(const OpenSessionResponse& response);
OpenSessionResponse open_session_response_from_json(const util::json::Value& value);

util::json::Value to_json(const SuggestResponse& response);
SuggestResponse suggest_response_from_json(const util::json::Value& value);

util::json::Value to_json(const ReportRequest& request);
ReportRequest report_request_from_json(const util::json::Value& value);

util::json::Value to_json(const ReportResponse& response);
ReportResponse report_response_from_json(const util::json::Value& value);

util::json::Value to_json(const BestResponse& response);
BestResponse best_response_from_json(const util::json::Value& value);

util::json::Value to_json(const RunSummary& run);
RunSummary run_summary_from_json(const util::json::Value& value);

util::json::Value to_json(const CloseSessionResponse& response);
CloseSessionResponse close_session_response_from_json(const util::json::Value& value);

util::json::Value to_json(const ServiceStats& stats);
ServiceStats service_stats_from_json(const util::json::Value& value);

util::json::Value to_json(const DrainRequest& request);
DrainRequest drain_request_from_json(const util::json::Value& value);

util::json::Value to_json(const DrainResponse& response);
DrainResponse drain_response_from_json(const util::json::Value& value);

}  // namespace tunespace::tuner::wire
