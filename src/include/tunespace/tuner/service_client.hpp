#pragma once
// Blocking TCP client for the tuning service: the programmatic counterpart
// of server.hpp, speaking the protocol.hpp frames and the api.hpp structs.
//
// One client holds one connection and issues one request at a time (the
// protocol is strictly request/response per connection).  Server-side
// rejections are rethrown as the original tunespace::ServiceError — the
// stable code survives the wire — so in-process TuningService code and
// remote-client code handle failures identically.
//
// Every request carries "v": wire::kProtocolVersion.  A server of an older
// version rejects it with kUnsupportedVersion rather than misreading it.

#include <cstdint>
#include <string>

#include "tunespace/tuner/api.hpp"
#include "tunespace/util/json.hpp"

namespace tunespace::tuner {

struct ServiceClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// connect() retries until this deadline — tolerates a server that is
  /// still binding when the client starts.
  double connect_timeout_seconds = 10.0;
};

class ServiceClient {
 public:
  ServiceClient() = default;  ///< disconnected; call connect()
  explicit ServiceClient(const ServiceClientOptions& options);
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  void connect(const ServiceClientOptions& options);  ///< throws kIo
  void disconnect() noexcept;
  bool connected() const { return fd_ >= 0; }

  bool ping();
  OpenSessionResponse open(const OpenSessionRequest& request);
  SuggestResponse suggest(std::uint64_t session_id);
  ReportResponse report(const ReportRequest& request);
  BestResponse best(std::uint64_t session_id);
  SessionInfo info(std::uint64_t session_id);
  ServiceStats stats();
  CloseSessionResponse close_session(std::uint64_t session_id);
  DrainResponse drain(const DrainRequest& request = {});

 private:
  util::json::Value call(const std::string& op, util::json::Value body);

  int fd_ = -1;
};

}  // namespace tunespace::tuner
