#include "tunespace/tuner/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tunespace::tuner::wire {

using util::json::Value;

void write_frame(ByteStream& stream, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ServiceError(ErrorCode::kProtocol, "frame payload exceeds 16 MiB");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  unsigned char prefix[4] = {static_cast<unsigned char>(n >> 24),
                             static_cast<unsigned char>(n >> 16),
                             static_cast<unsigned char>(n >> 8),
                             static_cast<unsigned char>(n)};
  stream.write_all(prefix, sizeof prefix);
  if (n > 0) stream.write_all(payload.data(), payload.size());
}

std::optional<std::string> read_frame(ByteStream& stream) {
  unsigned char prefix[4];
  if (!stream.read_all(prefix, sizeof prefix)) return std::nullopt;
  const std::uint32_t n = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                          (static_cast<std::uint32_t>(prefix[1]) << 16) |
                          (static_cast<std::uint32_t>(prefix[2]) << 8) |
                          static_cast<std::uint32_t>(prefix[3]);
  if (n > kMaxFrameBytes) {
    throw ServiceError(ErrorCode::kProtocol, "frame length exceeds 16 MiB");
  }
  std::string payload(n, '\0');
  if (n > 0 && !stream.read_all(payload.data(), n)) {
    throw ServiceError(ErrorCode::kIo, "connection closed mid-frame");
  }
  return payload;
}

// ---------------------------------------------------------------------------
// HTTP/1.1 gateway codec
// ---------------------------------------------------------------------------

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Case-insensitive token search in a comma-separated header value.
bool has_token(std::string_view value, std::string_view token) {
  const std::string haystack = lower(value);
  std::size_t pos = 0;
  while (pos <= haystack.size()) {
    const std::size_t comma = std::min(haystack.find(',', pos), haystack.size());
    if (trim(std::string_view(haystack).substr(pos, comma - pos)) == token) {
      return true;
    }
    pos = comma + 1;
  }
  return false;
}

const char* http_reason(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

}  // namespace

HttpParse parse_http_request(std::string_view buffer, HttpRequest& request,
                             std::size_t& consumed, int& error_status,
                             std::string& error) {
  request = HttpRequest{};
  consumed = 0;
  error_status = 400;
  error.clear();

  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    if (buffer.size() > kMaxHttpHeaderBytes) {
      error_status = 431;
      error = "request header block exceeds 64 KiB";
      return HttpParse::kBad;
    }
    return HttpParse::kNeedMore;
  }
  if (header_end > kMaxHttpHeaderBytes) {
    error_status = 431;
    error = "request header block exceeds 64 KiB";
    return HttpParse::kBad;
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = buffer.find("\r\n");
  const std::string_view line = buffer.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    error = "malformed request line";
    return HttpParse::kBad;
  }
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    error = "unsupported HTTP version";
    return HttpParse::kBad;
  }
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.keep_alive = version == "HTTP/1.1";

  std::uint64_t content_length = 0;
  std::size_t pos = line_end + 2;
  while (pos < header_end + 2) {
    const std::size_t eol = buffer.find("\r\n", pos);
    const std::string_view header = buffer.substr(pos, eol - pos);
    pos = eol + 2;
    if (header.empty()) break;
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      error = "malformed header line";
      return HttpParse::kBad;
    }
    const std::string name = lower(trim(header.substr(0, colon)));
    const std::string_view value = trim(header.substr(colon + 1));
    if (name == "content-length") {
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string_view::npos) {
        error = "malformed Content-Length";
        return HttpParse::kBad;
      }
      content_length = 0;
      for (const char c : value) {
        content_length = content_length * 10 + static_cast<std::uint64_t>(c - '0');
        if (content_length > kMaxFrameBytes) break;  // overflow-proof
      }
    } else if (name == "transfer-encoding") {
      error_status = 501;
      error = "chunked transfer encoding is not supported; send Content-Length";
      return HttpParse::kBad;
    } else if (name == "connection") {
      if (has_token(value, "close")) request.keep_alive = false;
      if (has_token(value, "keep-alive")) request.keep_alive = true;
    } else if (name == "expect") {
      if (has_token(value, "100-continue")) request.expect_continue = true;
    }
  }
  request.headers_complete = true;

  if (content_length > kMaxFrameBytes) {
    error_status = 413;
    error = "request body exceeds 16 MiB";
    return HttpParse::kBad;
  }
  const std::size_t total =
      header_end + 4 + static_cast<std::size_t>(content_length);
  if (buffer.size() < total) return HttpParse::kNeedMore;
  request.body = std::string(
      buffer.substr(header_end + 4, static_cast<std::size_t>(content_length)));
  consumed = total;
  return HttpParse::kOk;
}

std::string http_op_from_target(std::string_view target) {
  constexpr std::string_view kPrefix = "/v1/";
  if (target.size() <= kPrefix.size() || target.substr(0, kPrefix.size()) != kPrefix) {
    return {};
  }
  const std::string_view op = target.substr(kPrefix.size());
  if (op.find('/') != std::string_view::npos ||
      op.find('?') != std::string_view::npos) {
    return {};
  }
  return std::string(op);
}

std::string encode_http_response(int status, std::string_view json_body,
                                 bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    http_reason(status) + "\r\n";
  out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(json_body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += json_body;
  return out;
}

int http_status_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 200;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kProtocol:
    case ErrorCode::kUnsupportedVersion: return 400;
    case ErrorCode::kUnknownSession: return 404;
    case ErrorCode::kWrongState:
    case ErrorCode::kSessionFinished: return 409;
    case ErrorCode::kAdmissionLimit: return 429;
    case ErrorCode::kDraining: return 503;
    case ErrorCode::kSpaceBuildFailed:
    case ErrorCode::kIo:
    case ErrorCode::kInternal: return 500;
  }
  return 500;
}

std::string encode_request(const std::string& op, const Value& body) {
  Value envelope = Value::object();
  envelope.set("op", op);
  for (const auto& [key, value] : body.members()) envelope.set(key, value);
  return envelope.dump();
}

std::pair<std::string, Value> decode_request(const std::string& frame) {
  Value document = Value::parse(frame);
  const std::string& op = document.at("op").as_string();
  if (op.empty()) {
    throw ServiceError(ErrorCode::kProtocol, "request frame carries no op");
  }
  return {op, std::move(document)};
}

std::string encode_ok(const Value& body) {
  Value envelope = Value::object();
  envelope.set("ok", true);
  for (const auto& [key, value] : body.members()) envelope.set(key, value);
  return envelope.dump();
}

std::string encode_error(ErrorCode code, const std::string& message) {
  Value error = Value::object();
  error.set("code", error_code_name(code));
  error.set("message", message);
  Value envelope = Value::object();
  envelope.set("ok", false);
  envelope.set("error", std::move(error));
  return envelope.dump();
}

Value decode_response(const std::string& frame) {
  Value document = Value::parse(frame);
  const Value* ok = document.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    throw ServiceError(ErrorCode::kProtocol, "response frame carries no ok flag");
  }
  if (ok->as_bool()) return document;
  const Value& error = document.at("error");
  const std::string& message = error.at("message").as_string();
  throw ServiceError(error_code_from_name(error.at("code").as_string()),
                     message.empty() ? "remote error" : message);
}

// ---------------------------------------------------------------------------
// Scalars and configurations
// ---------------------------------------------------------------------------

Value to_json(const csp::Value& value) {
  switch (value.kind()) {
    case csp::ValueKind::Int: return Value(value.as_int());
    case csp::ValueKind::Bool: return Value(value.truthy());
    case csp::ValueKind::Real: return Value(value.as_real());
    case csp::ValueKind::Str: return Value(value.as_str());
  }
  return Value(nullptr);
}

csp::Value csp_value_from_json(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::Bool: return csp::Value(value.as_bool());
    case Value::Kind::Int: return csp::Value(value.as_int());
    // Integers beyond int64 have no csp::Value integer; they stay reals.
    case Value::Kind::UInt:
    case Value::Kind::Double: return csp::Value(value.as_double());
    case Value::Kind::String: return csp::Value(value.as_string());
    default:
      throw ServiceError(ErrorCode::kProtocol,
                         "parameter values must be scalars");
  }
}

Value config_to_json(const std::vector<NamedValue>& config) {
  Value object = Value::object();
  for (const auto& entry : config) object.set(entry.name, to_json(entry.value));
  return object;
}

std::vector<NamedValue> config_from_json(const Value& value) {
  std::vector<NamedValue> config;
  config.reserve(value.members().size());
  for (const auto& [name, member] : value.members()) {
    config.push_back({name, csp_value_from_json(member)});
  }
  return config;
}

// ---------------------------------------------------------------------------
// Objective vectors and specs
// ---------------------------------------------------------------------------

Value to_json(const Measurement& measurement) {
  Value body = Value::object();
  body.set("gflops", measurement.gflops);
  body.set("watts", measurement.watts);
  return body;
}

Measurement measurement_from_json(const Value& value) {
  Measurement measurement;
  measurement.gflops = value.at("gflops").as_double();
  measurement.watts = value.at("watts").as_double();
  return measurement;
}

Value to_json(const ObjectiveSpec& spec) {
  Value array = Value::array();
  for (const auto& objective : spec.objectives) {
    Value entry = Value::object();
    entry.set("name", objective.name);
    entry.set("direction", objective.direction == Direction::kMinimize
                               ? "minimize"
                               : "maximize");
    entry.set("weight", objective.weight);
    array.push(std::move(entry));
  }
  return array;
}

ObjectiveSpec objective_spec_from_json(const Value& value) {
  ObjectiveSpec spec;
  spec.objectives.clear();
  for (const auto& entry : value.items()) {
    Objective objective;
    objective.name = entry.at("name").as_string();
    objective.direction = entry.at("direction").as_string() == "minimize"
                              ? Direction::kMinimize
                              : Direction::kMaximize;
    objective.weight = entry.at("weight").as_double(objective.weight);
    spec.objectives.push_back(std::move(objective));
  }
  // An empty array is as meaningless as an absent field: both mean the
  // single-objective default.
  if (spec.objectives.empty()) spec = ObjectiveSpec{};
  return spec;
}

Value to_json(const ParetoPoint& point) {
  Value body = Value::object();
  body.set("row", point.row);
  body.set("parent_row", point.parent_row);
  body.set("measurement", to_json(point.measurement));
  body.set("time_seconds", point.time_seconds);
  body.set("evaluations", point.evaluations);
  return body;
}

ParetoPoint pareto_point_from_json(const Value& value) {
  ParetoPoint point;
  point.row = value.at("row").as_uint();
  point.parent_row = value.at("parent_row").as_uint();
  point.measurement = measurement_from_json(value.at("measurement"));
  point.time_seconds = value.at("time_seconds").as_double();
  point.evaluations = value.at("evaluations").as_uint();
  return point;
}

// ---------------------------------------------------------------------------
// api.hpp structs
// ---------------------------------------------------------------------------

Value to_json(const OpenSessionRequest& request) {
  Value body = Value::object();
  body.set("tenant", request.tenant);
  body.set("kernel", request.kernel);
  body.set("optimizer", request.optimizer);
  body.set("method", request.method);
  body.set("seed", request.seed);
  body.set("budget_seconds", request.budget_seconds);
  body.set("overhead_per_request", request.overhead_per_request);
  body.set("fixed_construction_seconds", request.fixed_construction_seconds);
  body.set("construction_time_scale", request.construction_time_scale);
  if (!request.restrictions.empty()) {
    Value restrictions = Value::object();
    for (const auto& filter : request.restrictions) {
      Value values = Value::array();
      for (const auto& v : filter.values) values.push(to_json(v));
      restrictions.set(filter.param, std::move(values));
    }
    body.set("restrictions", std::move(restrictions));
  }
  // Only the non-default spec crosses the wire: an absent field means the
  // single-objective spec.
  if (!request.objectives.is_single()) {
    body.set("objectives", to_json(request.objectives));
  }
  if (request.warm_start) body.set("warm_start", true);
  return body;
}

OpenSessionRequest open_session_request_from_json(const Value& value) {
  OpenSessionRequest request;
  request.tenant = value.at("tenant").as_string();
  request.kernel = value.at("kernel").as_string();
  if (const Value* v = value.find("optimizer")) request.optimizer = v->as_string();
  request.method = value.at("method").as_string();
  request.seed = value.at("seed").as_uint(request.seed);
  request.budget_seconds =
      value.at("budget_seconds").as_double(request.budget_seconds);
  request.overhead_per_request =
      value.at("overhead_per_request").as_double(request.overhead_per_request);
  request.fixed_construction_seconds =
      value.at("fixed_construction_seconds")
          .as_double(request.fixed_construction_seconds);
  request.construction_time_scale =
      value.at("construction_time_scale").as_double(request.construction_time_scale);
  for (const auto& [param, values] : value.at("restrictions").members()) {
    ParamFilter filter;
    filter.param = param;
    for (const auto& v : values.items()) {
      filter.values.push_back(csp_value_from_json(v));
    }
    request.restrictions.push_back(std::move(filter));
  }
  if (const Value* objectives = value.find("objectives")) {
    request.objectives = objective_spec_from_json(*objectives);
  }
  if (const Value* warm = value.find("warm_start")) {
    request.warm_start = warm->as_bool();
  }
  // Callers outside the library may name the surrogate optimizer with a
  // flag; it wins over the optimizer field.
  if (value.at("surrogate").as_bool()) request.optimizer = "surrogate";
  return request;
}

Value to_json(const SessionInfo& info) {
  Value body = Value::object();
  body.set("session_id", info.session_id);
  body.set("tenant", info.tenant);
  body.set("kernel", info.kernel);
  body.set("optimizer", info.optimizer);
  body.set("method", info.method);
  body.set("space_rows", info.space_rows);
  Value names = Value::array();
  for (const auto& name : info.param_names) names.push(name);
  body.set("param_names", std::move(names));
  body.set("shared_space", info.shared_space);
  body.set("awaiting_report", info.awaiting_report);
  body.set("finished", info.finished);
  body.set("now_seconds", info.now_seconds);
  body.set("budget_seconds", info.budget_seconds);
  body.set("best_gflops", info.best_gflops);
  body.set("evaluations", info.evaluations);
  body.set("shared_cache_hits", info.shared_cache_hits);
  body.set("model_evaluations", info.model_evaluations);
  body.set("objectives", to_json(info.objectives));
  body.set("best_score", info.best_score);
  body.set("best", to_json(info.best));
  body.set("seeded_rows", info.seeded_rows);
  body.set("surrogate_refits", info.surrogate_refits);
  return body;
}

SessionInfo session_info_from_json(const Value& value) {
  SessionInfo info;
  info.session_id = value.at("session_id").as_uint();
  info.tenant = value.at("tenant").as_string();
  info.kernel = value.at("kernel").as_string();
  info.optimizer = value.at("optimizer").as_string();
  info.method = value.at("method").as_string();
  info.space_rows = value.at("space_rows").as_uint();
  for (const auto& name : value.at("param_names").items()) {
    info.param_names.push_back(name.as_string());
  }
  info.shared_space = value.at("shared_space").as_bool();
  info.awaiting_report = value.at("awaiting_report").as_bool();
  info.finished = value.at("finished").as_bool();
  info.now_seconds = value.at("now_seconds").as_double();
  info.budget_seconds = value.at("budget_seconds").as_double();
  info.best_gflops = value.at("best_gflops").as_double();
  info.evaluations = value.at("evaluations").as_uint();
  info.shared_cache_hits = value.at("shared_cache_hits").as_uint();
  info.model_evaluations = value.at("model_evaluations").as_uint();
  info.objectives = objective_spec_from_json(value.at("objectives"));
  info.best_score = value.at("best_score").as_double();
  info.best = measurement_from_json(value.at("best"));
  info.seeded_rows = value.at("seeded_rows").as_uint();
  info.surrogate_refits = value.at("surrogate_refits").as_uint();
  return info;
}

Value to_json(const OpenSessionResponse& response) {
  Value body = Value::object();
  body.set("session_id", response.session_id);
  body.set("info", to_json(response.info));
  return body;
}

OpenSessionResponse open_session_response_from_json(const Value& value) {
  OpenSessionResponse response;
  response.session_id = value.at("session_id").as_uint();
  response.info = session_info_from_json(value.at("info"));
  return response;
}

Value to_json(const SuggestResponse& response) {
  Value body = Value::object();
  body.set("session_id", response.session_id);
  body.set("finished", response.finished);
  if (!response.finished) {
    body.set("config_id", response.config_id);
    body.set("parent_row", response.parent_row);
    body.set("config", config_to_json(response.config));
  }
  body.set("now_seconds", response.now_seconds);
  body.set("evaluations", response.evaluations);
  return body;
}

SuggestResponse suggest_response_from_json(const Value& value) {
  SuggestResponse response;
  response.session_id = value.at("session_id").as_uint();
  response.finished = value.at("finished").as_bool();
  response.config_id = value.at("config_id").as_uint();
  response.parent_row = value.at("parent_row").as_uint();
  response.config = config_from_json(value.at("config"));
  response.now_seconds = value.at("now_seconds").as_double();
  response.evaluations = value.at("evaluations").as_uint();
  return response;
}

Value to_json(const ReportRequest& request) {
  Value body = Value::object();
  body.set("session_id", request.session_id);
  body.set("gflops", request.gflops);
  body.set("measure_seconds", request.measure_seconds);
  // The objective map rides only on vector reports: a scalar report is
  // its gflops alone.
  if (request.measurement != Measurement{}) {
    body.set("measurement", to_json(request.measurement));
  }
  return body;
}

ReportRequest report_request_from_json(const Value& value) {
  ReportRequest request;
  request.session_id = value.at("session_id").as_uint();
  request.gflops = value.at("gflops").as_double();
  request.measure_seconds =
      value.at("measure_seconds").as_double(request.measure_seconds);
  if (const Value* measurement = value.find("measurement")) {
    request.measurement = measurement_from_json(*measurement);
  }
  return request;
}

Value to_json(const ReportResponse& response) {
  Value body = Value::object();
  body.set("session_id", response.session_id);
  body.set("improved", response.improved);
  body.set("finished", response.finished);
  body.set("best_gflops", response.best_gflops);
  body.set("now_seconds", response.now_seconds);
  body.set("evaluations", response.evaluations);
  body.set("best_score", response.best_score);
  body.set("best", to_json(response.best));
  return body;
}

ReportResponse report_response_from_json(const Value& value) {
  ReportResponse response;
  response.session_id = value.at("session_id").as_uint();
  response.improved = value.at("improved").as_bool();
  response.finished = value.at("finished").as_bool();
  response.best_gflops = value.at("best_gflops").as_double();
  response.now_seconds = value.at("now_seconds").as_double();
  response.evaluations = value.at("evaluations").as_uint();
  response.best_score = value.at("best_score").as_double();
  response.best = measurement_from_json(value.at("best"));
  return response;
}

Value to_json(const BestResponse& response) {
  Value body = Value::object();
  body.set("session_id", response.session_id);
  body.set("best_gflops", response.best_gflops);
  body.set("config", config_to_json(response.config));
  body.set("now_seconds", response.now_seconds);
  body.set("evaluations", response.evaluations);
  body.set("finished", response.finished);
  body.set("best_score", response.best_score);
  body.set("best", to_json(response.best));
  return body;
}

BestResponse best_response_from_json(const Value& value) {
  BestResponse response;
  response.session_id = value.at("session_id").as_uint();
  response.best_gflops = value.at("best_gflops").as_double();
  response.config = config_from_json(value.at("config"));
  response.now_seconds = value.at("now_seconds").as_double();
  response.evaluations = value.at("evaluations").as_uint();
  response.finished = value.at("finished").as_bool();
  response.best_score = value.at("best_score").as_double();
  response.best = measurement_from_json(value.at("best"));
  return response;
}

Value to_json(const RunSummary& run) {
  Value body = Value::object();
  body.set("method_name", run.method_name);
  body.set("construction_seconds", run.construction_seconds);
  body.set("budget_seconds", run.budget_seconds);
  body.set("best_gflops", run.best_gflops);
  body.set("evaluations", run.evaluations);
  Value trajectory = Value::array();
  for (const auto& point : run.trajectory) {
    Value entry = Value::object();
    entry.set("time_seconds", point.time_seconds);
    entry.set("best_gflops", point.best_gflops);
    entry.set("evaluations", point.evaluations);
    entry.set("measurement", to_json(point.measurement));
    trajectory.push(std::move(entry));
  }
  body.set("trajectory", std::move(trajectory));
  body.set("objectives", to_json(run.objectives));
  body.set("best_score", run.best_score);
  body.set("best", to_json(run.best));
  Value front = Value::array();
  for (const auto& point : run.front) front.push(to_json(point));
  body.set("front", std::move(front));
  return body;
}

RunSummary run_summary_from_json(const Value& value) {
  RunSummary run;
  run.method_name = value.at("method_name").as_string();
  run.construction_seconds = value.at("construction_seconds").as_double();
  run.budget_seconds = value.at("budget_seconds").as_double();
  run.best_gflops = value.at("best_gflops").as_double();
  run.evaluations = value.at("evaluations").as_uint();
  for (const auto& entry : value.at("trajectory").items()) {
    RunPoint point;
    point.time_seconds = entry.at("time_seconds").as_double();
    point.best_gflops = entry.at("best_gflops").as_double();
    point.evaluations = entry.at("evaluations").as_uint();
    point.measurement = measurement_from_json(entry.at("measurement"));
    run.trajectory.push_back(std::move(point));
  }
  run.objectives = objective_spec_from_json(value.at("objectives"));
  run.best_score = value.at("best_score").as_double();
  run.best = measurement_from_json(value.at("best"));
  for (const auto& entry : value.at("front").items()) {
    run.front.push_back(pareto_point_from_json(entry));
  }
  return run;
}

Value to_json(const CloseSessionResponse& response) {
  Value body = Value::object();
  body.set("session_id", response.session_id);
  body.set("run", to_json(response.run));
  return body;
}

CloseSessionResponse close_session_response_from_json(const Value& value) {
  CloseSessionResponse response;
  response.session_id = value.at("session_id").as_uint();
  response.run = run_summary_from_json(value.at("run"));
  return response;
}

Value to_json(const ServiceStats& stats) {
  Value body = Value::object();
  body.set("live_sessions", stats.live_sessions);
  body.set("total_opened", stats.total_opened);
  body.set("total_closed", stats.total_closed);
  body.set("total_rejected", stats.total_rejected);
  body.set("draining", stats.draining);
  body.set("cache_entries", stats.cache_entries);
  body.set("cache_hits", stats.cache_hits);
  body.set("cache_misses", stats.cache_misses);
  body.set("spaces_built", stats.spaces_built);
  body.set("spaces_shared", stats.spaces_shared);
  body.set("seeded_rows", stats.seeded_rows);
  body.set("surrogate_refits", stats.surrogate_refits);
  return body;
}

ServiceStats service_stats_from_json(const Value& value) {
  ServiceStats stats;
  stats.live_sessions = value.at("live_sessions").as_uint();
  stats.total_opened = value.at("total_opened").as_uint();
  stats.total_closed = value.at("total_closed").as_uint();
  stats.total_rejected = value.at("total_rejected").as_uint();
  stats.draining = value.at("draining").as_bool();
  stats.cache_entries = value.at("cache_entries").as_uint();
  stats.cache_hits = value.at("cache_hits").as_uint();
  stats.cache_misses = value.at("cache_misses").as_uint();
  stats.spaces_built = value.at("spaces_built").as_uint();
  stats.spaces_shared = value.at("spaces_shared").as_uint();
  stats.seeded_rows = value.at("seeded_rows").as_uint();
  stats.surrogate_refits = value.at("surrogate_refits").as_uint();
  return stats;
}

Value to_json(const DrainRequest& request) {
  Value body = Value::object();
  body.set("wait", request.wait);
  body.set("timeout_seconds", request.timeout_seconds);
  return body;
}

DrainRequest drain_request_from_json(const Value& value) {
  DrainRequest request;
  request.wait = value.at("wait").as_bool();
  request.timeout_seconds =
      value.at("timeout_seconds").as_double(request.timeout_seconds);
  return request;
}

Value to_json(const DrainResponse& response) {
  Value body = Value::object();
  body.set("draining", response.draining);
  body.set("drained", response.drained);
  body.set("live_sessions", response.live_sessions);
  return body;
}

DrainResponse drain_response_from_json(const Value& value) {
  DrainResponse response;
  response.draining = value.at("draining").as_bool();
  response.drained = value.at("drained").as_bool();
  response.live_sessions = value.at("live_sessions").as_uint();
  return response;
}

}  // namespace tunespace::tuner::wire
