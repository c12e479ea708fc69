#include "tunespace/tuner/service_client.hpp"

#include "tunespace/tuner/net.hpp"
#include "tunespace/tuner/protocol.hpp"

namespace tunespace::tuner {

using util::json::Value;

namespace {

Value session_body(std::uint64_t session_id) {
  Value body = Value::object();
  body.set("session_id", session_id);
  return body;
}

}  // namespace

ServiceClient::ServiceClient(const ServiceClientOptions& options) {
  connect(options);
}

ServiceClient::~ServiceClient() { disconnect(); }

void ServiceClient::connect(const ServiceClientOptions& options) {
  disconnect();
  fd_ = net::connect_tcp(options.host, options.port,
                         options.connect_timeout_seconds);
}

void ServiceClient::disconnect() noexcept {
  net::close_fd(fd_);
  fd_ = -1;
}

Value ServiceClient::call(const std::string& op, Value body) {
  if (fd_ < 0) {
    throw ServiceError(ErrorCode::kIo, "client is not connected");
  }
  net::FdStream stream(fd_);
  body.set("v", static_cast<std::int64_t>(wire::kProtocolVersion));
  wire::write_frame(stream, wire::encode_request(op, body));
  auto frame = wire::read_frame(stream);
  if (!frame.has_value()) {
    throw ServiceError(ErrorCode::kIo, "server closed the connection");
  }
  return wire::decode_response(*frame);
}

bool ServiceClient::ping() {
  return call("ping", Value::object()).at("pong").as_bool();
}

OpenSessionResponse ServiceClient::open(const OpenSessionRequest& request) {
  return wire::open_session_response_from_json(
      call("open", wire::to_json(request)));
}

SuggestResponse ServiceClient::suggest(std::uint64_t session_id) {
  return wire::suggest_response_from_json(
      call("suggest", session_body(session_id)));
}

ReportResponse ServiceClient::report(const ReportRequest& request) {
  return wire::report_response_from_json(call("report", wire::to_json(request)));
}

BestResponse ServiceClient::best(std::uint64_t session_id) {
  return wire::best_response_from_json(call("best", session_body(session_id)));
}

SessionInfo ServiceClient::info(std::uint64_t session_id) {
  return wire::session_info_from_json(call("info", session_body(session_id)));
}

ServiceStats ServiceClient::stats() {
  return wire::service_stats_from_json(call("stats", Value::object()));
}

CloseSessionResponse ServiceClient::close_session(std::uint64_t session_id) {
  return wire::close_session_response_from_json(
      call("close", session_body(session_id)));
}

DrainResponse ServiceClient::drain(const DrainRequest& request) {
  return wire::drain_response_from_json(call("drain", wire::to_json(request)));
}

}  // namespace tunespace::tuner
