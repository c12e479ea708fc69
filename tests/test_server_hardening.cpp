// Hardening tests for the wire front end: errno classification in the net
// layer (transient accept/connect failures), protocol abuse against a live
// epoll server (oversized length prefixes, truncated frames, cross-protocol
// garbage, nesting bombs), fd-exhaustion recovery (EMFILE injection via RLIMIT_NOFILE),
// close-event connection reclamation, and the HTTP/1.1 gateway (parser
// unit tests plus a full scripted session over POST /v1/{op} checked
// bit-identical against the in-process replay).
#include <gtest/gtest.h>

#include <cerrno>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "tunespace/tuner/net.hpp"
#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "tunespace/util/json.hpp"

using namespace tunespace;
namespace json = util::json;
namespace wire = tuner::wire;
namespace net = tuner::net;

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Wait (bounded) for a predicate the event loop satisfies asynchronously.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (pred()) return true;
    sleep_ms(10);
  }
  return pred();
}

/// Blocking connect with a 5 s receive timeout so an unresponsive server
/// fails a test instead of hanging it.
int raw_connect(std::uint16_t port) {
  const int fd = net::connect_tcp("127.0.0.1", port, 5.0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    off += static_cast<std::size_t>(sent);
  }
}

/// True when the peer closes without sending anything more.
bool peer_closes(int fd) {
  char byte = 0;
  const ssize_t r = ::recv(fd, &byte, 1, 0);
  return r == 0;
}

/// Read one HTTP response (status line + headers + Content-Length body).
bool read_http_response(int fd, int& status, std::string& body) {
  std::string buf;
  char tmp[4096];
  std::size_t header_end = std::string::npos;
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t r = ::recv(fd, tmp, sizeof tmp, 0);
    if (r <= 0) return false;
    buf.append(tmp, static_cast<std::size_t>(r));
  }
  if (buf.rfind("HTTP/1.1 ", 0) != 0) return false;
  status = std::atoi(buf.c_str() + 9);
  std::size_t content_length = 0;
  const std::size_t cl = buf.find("Content-Length: ");
  if (cl != std::string::npos && cl < header_end) {
    content_length =
        static_cast<std::size_t>(std::atoll(buf.c_str() + cl + 16));
  }
  while (buf.size() < header_end + 4 + content_length) {
    const ssize_t r = ::recv(fd, tmp, sizeof tmp, 0);
    if (r <= 0) return false;
    buf.append(tmp, static_cast<std::size_t>(r));
  }
  body = buf.substr(header_end + 4, content_length);
  return true;
}

/// One POST /v1/{op} round trip on an open gateway connection.
bool http_post(int fd, const std::string& op, const std::string& body_json,
               int& status, json::Value& reply) {
  const std::string request = "POST /v1/" + op +
                              " HTTP/1.1\r\n"
                              "Host: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: " +
                              std::to_string(body_json.size()) + "\r\n\r\n" +
                              body_json;
  send_all(fd, request);
  std::string body;
  if (!read_http_response(fd, status, body)) return false;
  reply = json::Value::parse(body);
  return true;
}

tuner::OpenSessionRequest scripted_gemm() {
  tuner::OpenSessionRequest request;
  request.kernel = "gemm";
  request.seed = 5;
  request.budget_seconds = 2.0;
  request.fixed_construction_seconds = 0.5;
  return request;
}

struct LiveServer {
  tuner::TuningService service;
  tuner::ServiceServer server;

  explicit LiveServer(tuner::ServiceServerOptions options = {})
      : server(service, [&options] {
          options.port = 0;
          return options;
        }()) {
    server.start();
  }
  ~LiveServer() { server.stop(); }
};

}  // namespace

// --- errno classification ---------------------------------------------------

TEST(ErrnoClassification, TransientAcceptErrnosAreRetried) {
  for (const int err :
       {EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED, EINTR, EAGAIN}) {
    EXPECT_TRUE(net::transient_accept_errno(err)) << std::strerror(err);
  }
  for (const int err : {EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP, EFAULT}) {
    EXPECT_FALSE(net::transient_accept_errno(err)) << std::strerror(err);
  }
}

TEST(ErrnoClassification, OnlyCurableConnectErrnosAreRetried) {
  for (const int err : {ECONNREFUSED, EAGAIN, ETIMEDOUT, EINTR}) {
    EXPECT_TRUE(net::transient_connect_errno(err)) << std::strerror(err);
  }
  // Routing and permission failures must fail immediately: retrying them
  // for the whole connect timeout only hides a misconfiguration.
  for (const int err :
       {ENETUNREACH, EHOSTUNREACH, EACCES, EPERM, EADDRNOTAVAIL, EINVAL}) {
    EXPECT_FALSE(net::transient_connect_errno(err)) << std::strerror(err);
  }
}

TEST(ErrnoClassification, ZeroConnectTimeoutMeansOneAttempt) {
  // A port that was just listening and is now closed refuses connections;
  // with a zero timeout the refusal must surface on the first attempt
  // instead of entering the 50 ms retry loop.
  const int listener = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t dead_port = net::local_port(listener);
  net::close_fd(listener);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(net::connect_tcp("127.0.0.1", dead_port, 0.0), ServiceError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 1.0);
}

// --- connection reclamation -------------------------------------------------

TEST(Hardening, DepartedConnectionsAreReclaimedWithoutANewAccept) {
  LiveServer live;
  tuner::ServiceClientOptions options;
  options.port = live.server.port();
  {
    tuner::ServiceClient client(options);
    ASSERT_TRUE(client.ping());
    ASSERT_TRUE(eventually(
        [&] { return live.server.active_connections() == 1; }));
  }  // client disconnects; no further connection arrives
  // The old thread-per-connection server leaked this connection until the
  // next accept; the event loop must reclaim it from the close event alone.
  EXPECT_TRUE(eventually(
      [&] { return live.server.active_connections() == 0; }));
}

// --- protocol abuse on the frame port ---------------------------------------

TEST(Hardening, OversizedLengthPrefixDropsTheConnectionNotTheServer) {
  LiveServer live;
  const int fd = raw_connect(live.server.port());
  send_all(fd, std::string_view("\xff\xff\xff\xff", 4));
  EXPECT_TRUE(peer_closes(fd));
  net::close_fd(fd);

  tuner::ServiceClientOptions options;
  options.port = live.server.port();
  tuner::ServiceClient client(options);
  EXPECT_TRUE(client.ping());
}

TEST(Hardening, TruncatedFrameThenReconnectResumesService) {
  LiveServer live;
  const int fd = raw_connect(live.server.port());
  // Announce 100 bytes, deliver 10, vanish.
  send_all(fd, std::string_view("\x00\x00\x00\x64", 4));
  send_all(fd, "0123456789");
  net::close_fd(fd);

  tuner::ServiceClientOptions options;
  options.port = live.server.port();
  tuner::ServiceClient client(options);
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(eventually(
      [&] { return live.server.active_connections() == 1; }));
}

TEST(Hardening, HttpBytesOnTheFramePortAreRejected) {
  LiveServer live;
  const int fd = raw_connect(live.server.port());
  // "GET " reads as a 1.2 GB length prefix — the desync guard must close
  // the connection rather than wait for a gigabyte that never comes.
  send_all(fd, "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  EXPECT_TRUE(peer_closes(fd));
  net::close_fd(fd);

  tuner::ServiceClientOptions options;
  options.port = live.server.port();
  tuner::ServiceClient client(options);
  EXPECT_TRUE(client.ping());
}

// --- protocol abuse on the HTTP port ----------------------------------------

TEST(Hardening, FrameBytesOnTheHttpPortDoNotWedgeTheServer) {
  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);

  // A length-prefixed frame never contains CRLFCRLF; the parser waits for
  // more, the peer gives up, and the close event reclaims the connection.
  const int fd = raw_connect(live.server.http_port());
  send_all(fd, std::string_view("\x00\x00\x00\x10{\"op\":\"ping\"}xx", 20));
  net::close_fd(fd);
  EXPECT_TRUE(eventually(
      [&] { return live.server.active_connections() == 0; }));

  // Binary noise past the header cap is rejected with 431, not buffered
  // forever.
  const int noisy = raw_connect(live.server.http_port());
  send_all(noisy, std::string(70 * 1024, 'x'));
  int status = 0;
  std::string body;
  ASSERT_TRUE(read_http_response(noisy, status, body));
  EXPECT_EQ(status, 431);
  EXPECT_TRUE(peer_closes(noisy));
  net::close_fd(noisy);

  // A malformed request line gets a 400.
  const int malformed = raw_connect(live.server.http_port());
  send_all(malformed, "BOGUS\r\n\r\n");
  ASSERT_TRUE(read_http_response(malformed, status, body));
  EXPECT_EQ(status, 400);
  net::close_fd(malformed);

  // And the gateway still answers a well-formed request.
  const int good = raw_connect(live.server.http_port());
  json::Value reply;
  ASSERT_TRUE(http_post(good, "ping", "{}", status, reply));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(reply.at("pong").as_bool());
  net::close_fd(good);
}

// --- nesting bombs ----------------------------------------------------------

TEST(Hardening, DeeplyNestedJsonGetsATypedErrorOnBothPorts) {
  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);
  // 100k nested arrays overflowed the stack of the recursive JSON parser,
  // killing the server and every session in it.
  const std::string bomb(100000, '[');

  // Frame port: a protocol-error envelope, and the connection keeps serving.
  const int fd = raw_connect(live.server.port());
  net::FdStream stream(fd);
  wire::write_frame(stream, "{\"op\":\"ping\",\"pad\":" + bomb);
  auto reply = wire::read_frame(stream);
  ASSERT_TRUE(reply.has_value());
  const json::Value error = json::Value::parse(*reply);
  EXPECT_FALSE(error.at("ok").as_bool(true));
  EXPECT_EQ(error.at("error").at("code").as_string(), "protocol");
  wire::write_frame(stream, wire::encode_request("ping", json::Value::object()));
  reply = wire::read_frame(stream);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(json::Value::parse(*reply).at("pong").as_bool());
  net::close_fd(fd);

  // HTTP port: 400 with the protocol code on a connection that stays up.
  const int http = raw_connect(live.server.http_port());
  int status = 0;
  json::Value body;
  ASSERT_TRUE(http_post(http, "ping", bomb, status, body));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(body.at("error").at("code").as_string(), "protocol");
  ASSERT_TRUE(http_post(http, "ping", "{}", status, body));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(body.at("pong").as_bool());
  net::close_fd(http);

  tuner::ServiceClientOptions client_options;
  client_options.port = live.server.port();
  tuner::ServiceClient client(client_options);
  EXPECT_TRUE(client.ping());
}

// --- fd exhaustion ----------------------------------------------------------

TEST(Hardening, AcceptLoopSurvivesFdExhaustion) {
  LiveServer live;
  tuner::ServiceClientOptions options;
  options.port = live.server.port();
  {
    tuner::ServiceClient client(options);
    ASSERT_TRUE(client.ping());
  }

  // Drop RLIMIT_NOFILE to just above what the process already uses, then
  // pile up connections until socket()/accept() hit EMFILE.  The server
  // side of this pressure is exactly the condition that permanently killed
  // the old accept loop.
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  std::size_t used = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++used;
  }
  rlimit low = original;
  low.rlim_cur = static_cast<rlim_t>(used + 6);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  std::vector<int> held;
  for (int i = 0; i < 32; ++i) {
    try {
      held.push_back(net::connect_tcp("127.0.0.1", live.server.port(), 0.0));
    } catch (const ServiceError&) {
      break;  // the fd table is full — exactly the pressure we want
    }
  }
  sleep_ms(300);  // let the event loop take the EMFILE hits and back off

  for (const int fd : held) net::close_fd(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

  // The pressure has cleared: the server must accept and answer again.
  tuner::ServiceClient client(options);
  EXPECT_TRUE(client.ping());
}

// --- worker pool ------------------------------------------------------------

TEST(Hardening, SequentialChurnAgainstASingleWorker) {
  tuner::ServiceServerOptions options;
  options.workers = 1;
  LiveServer live(options);
  tuner::ServiceClientOptions client_options;
  client_options.port = live.server.port();
  for (int i = 0; i < 50; ++i) {
    tuner::ServiceClient client(client_options);
    ASSERT_TRUE(client.ping()) << "connect #" << i;
  }
  EXPECT_TRUE(eventually(
      [&] { return live.server.active_connections() == 0; }));
}

// --- HTTP parser ------------------------------------------------------------

TEST(HttpCodec, ParsesIncrementallyAndExactly) {
  const std::string request =
      "POST /v1/suggest HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n"
      "{\"a\":1}xx";
  wire::HttpRequest parsed;
  std::size_t consumed = 0;
  int status = 0;
  std::string error;
  // Every proper prefix must come back kNeedMore without consuming bytes.
  for (std::size_t n = 0; n + 2 < request.size(); ++n) {
    const auto verdict = wire::parse_http_request(
        std::string_view(request).substr(0, n), parsed, consumed, status, error);
    ASSERT_EQ(verdict, wire::HttpParse::kNeedMore) << "prefix " << n;
  }
  const auto verdict =
      wire::parse_http_request(request, parsed, consumed, status, error);
  ASSERT_EQ(verdict, wire::HttpParse::kOk);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.target, "/v1/suggest");
  EXPECT_EQ(parsed.body, "{\"a\":1}");
  EXPECT_TRUE(parsed.keep_alive);
  EXPECT_EQ(consumed, request.size() - 2);  // the trailing "xx" is pipelined
}

TEST(HttpCodec, RejectsChunkedOversizedAndMalformed) {
  wire::HttpRequest parsed;
  std::size_t consumed = 0;
  int status = 0;
  std::string error;

  EXPECT_EQ(wire::parse_http_request(
                "POST /v1/ping HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                parsed, consumed, status, error),
            wire::HttpParse::kBad);
  EXPECT_EQ(status, 501);

  EXPECT_EQ(wire::parse_http_request(
                "POST /v1/ping HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
                parsed, consumed, status, error),
            wire::HttpParse::kBad);
  EXPECT_EQ(status, 413);

  EXPECT_EQ(wire::parse_http_request("not http at all\r\n\r\n", parsed,
                                     consumed, status, error),
            wire::HttpParse::kBad);
  EXPECT_EQ(status, 400);

  EXPECT_EQ(wire::parse_http_request(std::string(65 * 1024, 'x'), parsed,
                                     consumed, status, error),
            wire::HttpParse::kBad);
  EXPECT_EQ(status, 431);
}

TEST(HttpCodec, ConnectionAndExpectHeadersAreHonored) {
  wire::HttpRequest parsed;
  std::size_t consumed = 0;
  int status = 0;
  std::string error;
  ASSERT_EQ(wire::parse_http_request("POST /v1/ping HTTP/1.1\r\n"
                                     "Connection: close\r\n"
                                     "Expect: 100-continue\r\n"
                                     "Content-Length: 0\r\n\r\n",
                                     parsed, consumed, status, error),
            wire::HttpParse::kOk);
  EXPECT_FALSE(parsed.keep_alive);
  EXPECT_TRUE(parsed.expect_continue);

  // HTTP/1.0 defaults to close; headers before the body completes are
  // surfaced so the server can emit the interim 100 Continue.
  ASSERT_EQ(wire::parse_http_request("POST /v1/ping HTTP/1.0\r\n"
                                     "Expect: 100-continue\r\n"
                                     "Content-Length: 5\r\n\r\n",
                                     parsed, consumed, status, error),
            wire::HttpParse::kNeedMore);
  EXPECT_TRUE(parsed.headers_complete);
  EXPECT_TRUE(parsed.expect_continue);
  EXPECT_FALSE(parsed.keep_alive);
}

TEST(HttpCodec, TargetsMapToOps) {
  EXPECT_EQ(wire::http_op_from_target("/v1/open"), "open");
  EXPECT_EQ(wire::http_op_from_target("/v1/ping"), "ping");
  EXPECT_EQ(wire::http_op_from_target("/v1/"), "");
  EXPECT_EQ(wire::http_op_from_target("/v2/ping"), "");
  EXPECT_EQ(wire::http_op_from_target("/v1/a/b"), "");
  EXPECT_EQ(wire::http_op_from_target("/v1/ping?x=1"), "");
  EXPECT_EQ(wire::http_op_from_target("/"), "");
}

TEST(HttpCodec, StatusMappingCoversEveryErrorCode) {
  EXPECT_EQ(wire::http_status_for(ErrorCode::kOk), 200);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kProtocol), 400);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kInvalidArgument), 400);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kUnsupportedVersion), 400);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kUnknownSession), 404);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kWrongState), 409);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kSessionFinished), 409);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kAdmissionLimit), 429);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kDraining), 503);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kSpaceBuildFailed), 500);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kIo), 500);
  EXPECT_EQ(wire::http_status_for(ErrorCode::kInternal), 500);
}

// --- HTTP gateway against a live server -------------------------------------

TEST(HttpGateway, ScriptedSessionMatchesInProcessBitForBit) {
  // Reference: the same session driven directly against a fresh service.
  tuner::RunSummary reference;
  {
    tuner::TuningService local;
    const auto* kernel = tuner::find_service_kernel("gemm");
    const auto opened = local.open(scripted_gemm());
    while (true) {
      const auto ask = local.suggest({opened.session_id});
      if (ask.finished) break;
      csp::Config config;
      for (const auto& entry : ask.config) config.push_back(entry.value);
      local.report({opened.session_id,
                    kernel->model->gflops(opened.info.param_names, config),
                    -1.0});
    }
    reference = local.close({opened.session_id}).run;
    ASSERT_GT(reference.evaluations, 0u);
  }

  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);
  const auto* kernel = tuner::find_service_kernel("gemm");

  const int fd = raw_connect(live.server.http_port());
  int status = 0;
  json::Value reply;
  ASSERT_TRUE(http_post(fd, "open", wire::to_json(scripted_gemm()).dump(),
                        status, reply));
  ASSERT_EQ(status, 200);
  const auto opened = wire::open_session_response_from_json(reply);

  // The whole ask/tell loop rides one keep-alive connection.
  while (true) {
    json::Value ask_body = json::Value::object();
    ask_body.set("session_id", opened.session_id);
    ASSERT_TRUE(http_post(fd, "suggest", ask_body.dump(), status, reply));
    ASSERT_EQ(status, 200);
    const auto ask = wire::suggest_response_from_json(reply);
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    tuner::ReportRequest report;
    report.session_id = opened.session_id;
    report.gflops = kernel->model->gflops(opened.info.param_names, config);
    report.measure_seconds = -1.0;
    ASSERT_TRUE(http_post(fd, "report", wire::to_json(report).dump(), status,
                          reply));
    ASSERT_EQ(status, 200);
  }
  json::Value best_body = json::Value::object();
  best_body.set("session_id", opened.session_id);
  ASSERT_TRUE(http_post(fd, "best", best_body.dump(), status, reply));
  ASSERT_EQ(status, 200);
  EXPECT_GT(wire::best_response_from_json(reply).evaluations, 0u);

  ASSERT_TRUE(http_post(fd, "close", best_body.dump(), status, reply));
  ASSERT_EQ(status, 200);
  const auto closed = wire::run_summary_from_json(reply.at("run"));
  EXPECT_EQ(closed, reference);
  net::close_fd(fd);
}

TEST(HttpGateway, ErrorsCarryWireCodesAndHttpStatuses) {
  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);

  const int fd = raw_connect(live.server.http_port());
  int status = 0;
  json::Value reply;

  // Unknown session: typed wire error, 404.
  ASSERT_TRUE(http_post(fd, "info", "{\"session_id\":999}", status, reply));
  EXPECT_EQ(status, 404);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "unknown_session");

  // Unknown op under /v1/: kProtocol, 400.
  ASSERT_TRUE(http_post(fd, "frobnicate", "{}", status, reply));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(reply.at("error").at("code").as_string(), "protocol");

  // Malformed body JSON: kProtocol, 400 — and the connection survives.
  ASSERT_TRUE(http_post(fd, "ping", "{not json", status, reply));
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(http_post(fd, "ping", "{}", status, reply));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(reply.at("pong").as_bool());

  // GET is not a gateway method.
  send_all(fd, "GET /v1/ping HTTP/1.1\r\nHost: x\r\n\r\n");
  std::string body;
  ASSERT_TRUE(read_http_response(fd, status, body));
  EXPECT_EQ(status, 405);
  net::close_fd(fd);
}

TEST(HttpGateway, VersionContractHoldsForBodiesFromOutsideTheLibrary) {
  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);

  const int fd = raw_connect(live.server.http_port());
  int status = 0;
  json::Value reply;

  // A version above the server's: typed error, 400.
  const std::string newer =
      "{\"v\":" + std::to_string(wire::kProtocolVersion + 1) + "}";
  ASSERT_TRUE(http_post(fd, "ping", newer, status, reply));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(reply.at("error").at("code").as_string(), "unsupported_version");

  // No version at all is served.
  ASSERT_TRUE(http_post(fd, "ping", "{}", status, reply));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(reply.at("pong").as_bool());

  // hello is an unknown op like any other.
  ASSERT_TRUE(http_post(fd, "hello", "{\"max_version\":2}", status, reply));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(reply.at("error").at("code").as_string(), "protocol");

  // "surrogate": true in an open body selects the surrogate optimizer.
  ASSERT_TRUE(http_post(fd, "open",
                        "{\"kernel\":\"hotspot\",\"budget_seconds\":1,"
                        "\"surrogate\":true}",
                        status, reply));
  ASSERT_EQ(status, 200);
  const auto opened = wire::open_session_response_from_json(reply);
  EXPECT_EQ(opened.info.optimizer, "surrogate");
  json::Value session = json::Value::object();
  session.set("session_id", opened.session_id);
  ASSERT_TRUE(http_post(fd, "close", session.dump(), status, reply));
  EXPECT_EQ(status, 200);
  net::close_fd(fd);
}

TEST(HttpGateway, ExpectContinueGetsTheInterimResponse) {
  tuner::ServiceServerOptions options;
  options.enable_http = true;
  LiveServer live(options);

  const int fd = raw_connect(live.server.http_port());
  send_all(fd,
           "POST /v1/ping HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
           "Content-Length: 2\r\n\r\n");
  int status = 0;
  std::string body;
  ASSERT_TRUE(read_http_response(fd, status, body));
  EXPECT_EQ(status, 100);
  send_all(fd, "{}");
  ASSERT_TRUE(read_http_response(fd, status, body));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(json::Value::parse(body).at("pong").as_bool());
  net::close_fd(fd);
}

// --- drain over the event loop ----------------------------------------------

TEST(Hardening, DrainExitReleasesWaitOnlyAfterTheReplyIsFlushed) {
  tuner::TuningService service;
  tuner::ServiceServerOptions options;
  options.port = 0;
  options.exit_when_drained = true;
  tuner::ServiceServer server(service, options);
  server.start();

  ASSERT_FALSE(server.wait_for(0.05));  // nothing drained yet

  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  tuner::ServiceClient client(client_options);
  const auto drained = client.drain({true, 10.0});
  EXPECT_TRUE(drained.drained);
  // The reply already reached the client, so the flush-then-signal order
  // guarantees wait_for releases promptly.
  EXPECT_TRUE(server.wait_for(5.0));
  server.stop();
}
