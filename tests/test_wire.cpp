// Tests for the wire layer: the JSON document model, the error-code wire
// names, frame framing over an in-memory stream, the api.hpp struct codecs,
// the request/response envelopes, and a loopback client/server integration
// replaying a scripted GEMM session bit-identically against an in-process
// service.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "tunespace/util/json.hpp"

using namespace tunespace;
namespace json = util::json;
namespace wire = tuner::wire;

namespace {

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ServiceError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

/// In-memory ByteStream: writes append, reads consume; honors the framing
/// contract (false on clean EOF at a boundary, kIo on truncation).
class MemoryStream : public wire::ByteStream {
 public:
  void write_all(const void* data, std::size_t n) override {
    buffer_.append(static_cast<const char*>(data), n);
  }
  bool read_all(void* data, std::size_t n) override {
    if (pos_ == buffer_.size()) return false;  // clean EOF
    if (buffer_.size() - pos_ < n) {
      throw ServiceError(ErrorCode::kIo, "truncated stream");
    }
    std::memcpy(data, buffer_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string buffer_;
  std::size_t pos_ = 0;
};

/// A fixed open request whose integers all fit in int64 except where a test
/// overrides the seed.
tuner::OpenSessionRequest scripted_request() {
  tuner::OpenSessionRequest request;
  request.tenant = "team-a";
  request.kernel = "gemm";
  request.optimizer = "simulated-annealing";
  request.budget_seconds = 42.5;
  request.restrictions = {{"MWG", {csp::Value(32), csp::Value(-64)}}};
  return request;
}

}  // namespace

// --- JSON document model ----------------------------------------------------

TEST(Json, DumpIsCompactDeterministicAndOrdered) {
  json::Value doc = json::Value::object();
  doc.set("b", 1);
  doc.set("a", json::Value::array());
  doc.set("c", "x\"y\n");
  EXPECT_EQ(doc.dump(), "{\"b\":1,\"a\":[],\"c\":\"x\\\"y\\n\"}");
  doc.set("b", 2);  // replaces in place, order preserved
  EXPECT_EQ(doc.dump(), "{\"b\":2,\"a\":[],\"c\":\"x\\\"y\\n\"}");
}

TEST(Json, Int64RoundTripsDigitForDigit) {
  const std::string text = "[9223372036854775807,-9223372036854775808,0]";
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.items()[0].is_int());
  EXPECT_EQ(doc.items()[0].as_int(), INT64_MAX);
  EXPECT_EQ(doc.items()[1].as_int(), INT64_MIN);
  EXPECT_EQ(doc.dump(), text);
}

TEST(Json, DoublesAndIntsAreDistinguished) {
  const auto doc = json::Value::parse("[1, 1.0, 1e2, -0.5]");
  EXPECT_TRUE(doc.items()[0].is_int());
  EXPECT_FALSE(doc.items()[1].is_int());
  EXPECT_TRUE(doc.items()[1].is_number());
  EXPECT_DOUBLE_EQ(doc.items()[2].as_double(), 100.0);
  EXPECT_DOUBLE_EQ(doc.items()[3].as_double(), -0.5);
}

TEST(Json, StringEscapesAndSurrogatePairsParse) {
  const auto doc =
      json::Value::parse("\"a\\u0041\\t\\\\ \\u00e9 \\ud83d\\ude00\"");
  EXPECT_EQ(doc.as_string(), "aA\t\\ \xc3\xa9 \xf0\x9f\x98\x80");
  // Round-trips through dump/parse even with multi-byte UTF-8 inside.
  EXPECT_EQ(json::Value::parse(doc.dump()).as_string(), doc.as_string());
}

TEST(Json, MalformedDocumentsThrowProtocolErrors) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "\"\\u12\"", "nul", "1 2", "{\"a\" 1}",
        "\"unterminated", "[1]extra"}) {
    EXPECT_EQ(code_of([&] { json::Value::parse(bad); }), ErrorCode::kProtocol)
        << "input: " << bad;
  }
}

TEST(Json, Uint64RoundTripsExactlyAboveInt64Max) {
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  for (const std::uint64_t v : {two63, two63 + 1, UINT64_MAX - 15, UINT64_MAX}) {
    const json::Value value(v);
    EXPECT_TRUE(value.is_int());
    EXPECT_EQ(value.kind(), json::Value::Kind::UInt);
    EXPECT_EQ(value.dump(), std::to_string(v));
    const auto parsed = json::Value::parse(value.dump());
    EXPECT_EQ(parsed.kind(), json::Value::Kind::UInt);
    EXPECT_EQ(parsed.as_uint(), v);
    EXPECT_EQ(parsed.as_int(-1), -1) << "no int64 holds " << v;
    EXPECT_EQ(parsed.dump(), value.dump());
  }
  // Past uint64 the number becomes a double, which as_uint cannot represent.
  const auto beyond = json::Value::parse("18446744073709551616");
  EXPECT_EQ(beyond.kind(), json::Value::Kind::Double);
  EXPECT_EQ(beyond.as_uint(7), 7u);
  EXPECT_EQ(beyond.as_int(7), 7);
  EXPECT_EQ(json::Value(-1.0).as_uint(7), 7u);
  EXPECT_EQ(json::Value(std::nan("")).as_uint(7), 7u);
  EXPECT_EQ(json::Value(1e300).as_int(7), 7);
  EXPECT_EQ(json::Value(4096.0).as_uint(), 4096u);
}

TEST(Json, NestingPastTheCapIsAProtocolError) {
  const std::size_t cap = json::Value::kMaxDepth;
  EXPECT_NO_THROW(json::Value::parse(std::string(cap, '[') + std::string(cap, ']')));
  const std::string too_deep = std::string(cap + 1, '[') + std::string(cap + 1, ']');
  EXPECT_EQ(code_of([&] { json::Value::parse(too_deep); }), ErrorCode::kProtocol);
  // 100k levels used to overflow the stack; unclosed, so a missing cap would
  // also recurse all the way down.
  const std::string arrays(100000, '[');
  EXPECT_EQ(code_of([&] { json::Value::parse(arrays); }), ErrorCode::kProtocol);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_EQ(code_of([&] { json::Value::parse(objects); }), ErrorCode::kProtocol);
}

TEST(Json, LenientReadersTolerateAbsentAndMistypedFields) {
  const auto doc = json::Value::parse("{\"n\":3,\"s\":\"x\"}");
  EXPECT_EQ(doc.at("n").as_int(), 3);
  EXPECT_EQ(doc.at("missing").as_int(7), 7);
  EXPECT_TRUE(doc.at("missing").is_null());
  EXPECT_EQ(doc.at("s").as_int(7), 7);  // wrong kind -> fallback
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// --- Error-code wire names --------------------------------------------------

TEST(ErrorCodes, NamesRoundTripAndUnknownMapsToInternal) {
  for (const auto code :
       {ErrorCode::kOk, ErrorCode::kInvalidArgument, ErrorCode::kUnknownSession,
        ErrorCode::kAdmissionLimit, ErrorCode::kDraining, ErrorCode::kWrongState,
        ErrorCode::kSessionFinished, ErrorCode::kSpaceBuildFailed,
        ErrorCode::kProtocol, ErrorCode::kIo, ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_EQ(error_code_from_name("some_future_code"), ErrorCode::kInternal);
}

// --- Framing ----------------------------------------------------------------

TEST(Framing, FramesRoundTripIncludingEmptyPayloads) {
  MemoryStream stream;
  wire::write_frame(stream, "hello");
  wire::write_frame(stream, "");
  wire::write_frame(stream, std::string(100000, 'x'));
  EXPECT_EQ(wire::read_frame(stream).value(), "hello");
  EXPECT_EQ(wire::read_frame(stream).value(), "");
  EXPECT_EQ(wire::read_frame(stream).value().size(), 100000u);
  EXPECT_FALSE(wire::read_frame(stream).has_value());  // clean EOF
}

TEST(Framing, OversizedLengthPrefixIsAProtocolError) {
  MemoryStream stream;
  const std::uint32_t huge = wire::kMaxFrameBytes + 1;
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(huge >> 24), static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8), static_cast<unsigned char>(huge)};
  stream.write_all(prefix, 4);
  EXPECT_EQ(code_of([&] { wire::read_frame(stream); }), ErrorCode::kProtocol);
}

TEST(Framing, TruncatedPayloadIsAnIoError) {
  MemoryStream stream;
  wire::write_frame(stream, "full payload");
  stream.buffer_.resize(stream.buffer_.size() - 3);  // cut mid-payload
  EXPECT_EQ(code_of([&] { wire::read_frame(stream); }), ErrorCode::kIo);
}

// --- Envelopes --------------------------------------------------------------

TEST(Envelope, RequestsCarryTheirOpAndBody) {
  json::Value body = json::Value::object();
  body.set("session_id", std::uint64_t{42});
  const auto frame = wire::encode_request("suggest", body);
  const auto [op, doc] = wire::decode_request(frame);
  EXPECT_EQ(op, "suggest");
  EXPECT_EQ(doc.at("session_id").as_uint(), 42u);
}

TEST(Envelope, RequestWithoutOpIsAProtocolError) {
  EXPECT_EQ(code_of([&] { wire::decode_request("{\"no_op\":1}"); }),
            ErrorCode::kProtocol);
  EXPECT_EQ(code_of([&] { wire::decode_request("[]"); }), ErrorCode::kProtocol);
}

TEST(Envelope, ErrorResponsesRethrowTheCarriedServiceError) {
  const auto frame =
      wire::encode_error(ErrorCode::kAdmissionLimit, "too many sessions");
  try {
    wire::decode_response(frame);
    FAIL() << "error response must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdmissionLimit);
    EXPECT_STREQ(e.what(), "too many sessions");
  }
}

TEST(Envelope, OkResponsesReturnTheDocument) {
  json::Value body = json::Value::object();
  body.set("pong", true);
  const auto doc = wire::decode_response(wire::encode_ok(body));
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("pong").as_bool());
  EXPECT_EQ(code_of([&] { wire::decode_response("{\"no_ok\":1}"); }),
            ErrorCode::kProtocol);
}

// --- api.hpp struct codecs --------------------------------------------------

TEST(Codec, OpenSessionRequestRoundTrips) {
  tuner::OpenSessionRequest request;
  request.tenant = "team-a";
  request.kernel = "gemm";
  request.optimizer = "simulated-annealing";
  request.method = "optimized";
  request.seed = 1234567890123ull;
  request.budget_seconds = 42.5;
  request.overhead_per_request = 0.25;
  request.fixed_construction_seconds = 1.5;
  request.construction_time_scale = 2.0;
  request.restrictions = {{"MWG", {csp::Value(32), csp::Value(64)}},
                          {"SA", {csp::Value(true)}}};
  const auto decoded =
      wire::open_session_request_from_json(wire::to_json(request));
  EXPECT_EQ(decoded, request);
}

TEST(Codec, Uint64SeedsCrossTheWireExactly) {
  // Seeds above INT64_MAX used to travel as doubles: 2^63 + 1 arrived as
  // 2^63, and 2^64 - 16 arrived as 0.
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  for (const std::uint64_t seed : {two63 + 1, UINT64_MAX - 15, UINT64_MAX}) {
    tuner::OpenSessionRequest request = scripted_request();
    request.seed = seed;
    const auto wire_json = json::Value::parse(wire::to_json(request).dump());
    const auto decoded = wire::open_session_request_from_json(wire_json);
    EXPECT_EQ(decoded.seed, seed);
    EXPECT_EQ(decoded, request);
  }
}

TEST(Codec, EnvelopesWithInt64IntegersKeepTheirBytes) {
  tuner::OpenSessionRequest request = scripted_request();
  request.seed = INT64_MAX;
  const std::string open_bytes =
      "{\"tenant\":\"team-a\",\"kernel\":\"gemm\",\"optimizer\":"
      "\"simulated-annealing\",\"method\":\"\",\"seed\":9223372036854775807,"
      "\"budget_seconds\":42.5,\"overhead_per_request\":0.0050000000000000001,"
      "\"fixed_construction_seconds\":-1,\"construction_time_scale\":1,"
      "\"restrictions\":{\"MWG\":[32,-64]}}";
  EXPECT_EQ(wire::to_json(request).dump(), open_bytes);
  EXPECT_EQ(json::Value::parse(open_bytes).dump(), open_bytes);
  tuner::SuggestResponse suggest;
  suggest.session_id = 77;
  suggest.config_id = 123456789;
  suggest.parent_row = 42;
  suggest.evaluations = 3;
  const std::string bytes =
      "{\"session_id\":77,\"finished\":false,\"config_id\":123456789,"
      "\"parent_row\":42,\"config\":{},\"now_seconds\":0,\"evaluations\":3}";
  EXPECT_EQ(wire::to_json(suggest).dump(), bytes);
  EXPECT_EQ(json::Value::parse(bytes).dump(), bytes);
}

TEST(Codec, ConfigsCrossTheWireInOrderWithExactValues) {
  const std::vector<tuner::NamedValue> config = {
      {"block_size_x", csp::Value(128)},
      {"scale", csp::Value(0.5)},
      {"use_sh", csp::Value(true)},
      {"variant", csp::Value(std::string("tiled"))},
  };
  const auto doc = wire::config_to_json(config);
  EXPECT_EQ(doc.dump(),
            "{\"block_size_x\":128,\"scale\":0.5,\"use_sh\":true,"
            "\"variant\":\"tiled\"}");
  EXPECT_EQ(wire::config_from_json(json::Value::parse(doc.dump())), config);
}

TEST(Codec, ResponsesRoundTrip) {
  tuner::SuggestResponse suggest;
  suggest.session_id = 9;
  suggest.config_id = 4;
  suggest.parent_row = 17;
  suggest.config = {{"p", csp::Value(3)}};
  suggest.now_seconds = 1.25;
  suggest.evaluations = 6;
  EXPECT_EQ(wire::suggest_response_from_json(wire::to_json(suggest)), suggest);

  tuner::ReportRequest report;
  report.session_id = 9;
  report.gflops = 123.456;
  report.measure_seconds = 0.75;
  EXPECT_EQ(wire::report_request_from_json(wire::to_json(report)), report);

  tuner::RunSummary run;
  run.method_name = "optimized";
  run.construction_seconds = 0.5;
  run.budget_seconds = 2.0;
  run.best_gflops = 2857.399;
  run.evaluations = 4;
  run.trajectory = {{0.6, 100.0, 1}, {1.9, 2857.399, 4}};
  EXPECT_EQ(wire::run_summary_from_json(wire::to_json(run)), run);

  tuner::ServiceStats stats;
  stats.live_sessions = 2;
  stats.total_opened = 5;
  stats.total_closed = 3;
  stats.total_rejected = 1;
  stats.draining = true;
  stats.cache_entries = 40;
  stats.cache_hits = 7;
  stats.cache_misses = 33;
  stats.spaces_built = 1;
  stats.spaces_shared = 4;
  EXPECT_EQ(wire::service_stats_from_json(wire::to_json(stats)), stats);
}

TEST(Codec, SessionInfoRoundTrips) {
  tuner::SessionInfo info;
  info.session_id = 3;
  info.tenant = "t";
  info.kernel = "hotspot";
  info.optimizer = "random-sampling";
  info.method = "optimized";
  info.space_rows = 800;
  info.param_names = {"a", "b"};
  info.shared_space = true;
  info.awaiting_report = true;
  info.finished = false;
  info.now_seconds = 3.5;
  info.budget_seconds = 10.0;
  info.best_gflops = 55.5;
  info.evaluations = 12;
  info.shared_cache_hits = 4;
  info.model_evaluations = 8;
  EXPECT_EQ(wire::session_info_from_json(wire::to_json(info)), info);
}

// --- Loopback integration ---------------------------------------------------

namespace {

/// Drive one scripted GEMM session over the wire, answering every suggestion
/// with the local model; returns the closed run summary.
tuner::RunSummary drive_over_wire(tuner::ServiceClient& client,
                                  const tuner::OpenSessionRequest& request) {
  const auto* kernel = tuner::find_service_kernel(request.kernel);
  const auto opened = client.open(request);
  while (true) {
    const auto ask = client.suggest(opened.session_id);
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    client.report({opened.session_id,
                   kernel->model->gflops(opened.info.param_names, config), -1.0});
  }
  return client.close_session(opened.session_id).run;
}

tuner::OpenSessionRequest scripted_gemm() {
  tuner::OpenSessionRequest request;
  request.kernel = "gemm";
  request.seed = 5;
  request.budget_seconds = 2.0;
  request.fixed_construction_seconds = 0.5;
  return request;
}

}  // namespace

TEST(Loopback, ScriptedSessionOverTcpMatchesInProcessBitForBit) {
  // The reference: the same session driven directly against a fresh service.
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
    EXPECT_GT(reference.evaluations, 0u);
  }

  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;  // ephemeral
  tuner::ServiceServer server(service, server_options);
  server.start();

  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  tuner::ServiceClient client(client_options);
  ASSERT_TRUE(client.ping());

  const auto over_wire = drive_over_wire(client, scripted_gemm());
  EXPECT_EQ(over_wire, reference);

  // Stats crossed the wire too.
  const auto stats = client.stats();
  EXPECT_EQ(stats.total_opened, 1u);
  EXPECT_EQ(stats.total_closed, 1u);

  server.stop();
}

TEST(Loopback, DrainOverTheWireRejectsSubsequentOpens) {
  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();

  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  tuner::ServiceClient client(client_options);

  const auto drained = client.drain({true, 10.0});
  EXPECT_TRUE(drained.draining);
  EXPECT_TRUE(drained.drained);
  EXPECT_EQ(drained.live_sessions, 0u);
  // The remote kDraining arrives as the same typed error a local call throws.
  EXPECT_EQ(code_of([&] { client.open(scripted_gemm()); }),
            ErrorCode::kDraining);

  server.stop();
}

TEST(Loopback, ReconnectingClientResumesItsSessionById) {
  tuner::TuningService service;
  tuner::ServiceServerOptions server_options;
  server_options.port = 0;
  tuner::ServiceServer server(service, server_options);
  server.start();

  tuner::ServiceClientOptions client_options;
  client_options.port = server.port();
  const auto* kernel = tuner::find_service_kernel("gemm");

  std::uint64_t session_id = 0;
  std::vector<std::string> names;
  {
    tuner::ServiceClient first(client_options);
    const auto opened = first.open(scripted_gemm());
    session_id = opened.session_id;
    names = opened.info.param_names;
    const auto ask = first.suggest(session_id);
    ASSERT_FALSE(ask.finished);
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    first.report({session_id, kernel->model->gflops(names, config), -1.0});
  }  // connection drops; the session stays live on the server

  tuner::ServiceClient second(client_options);
  const auto info = second.info(session_id);
  EXPECT_EQ(info.evaluations, 1u);
  while (true) {
    const auto ask = second.suggest(session_id);
    if (ask.finished) break;
    csp::Config config;
    for (const auto& entry : ask.config) config.push_back(entry.value);
    second.report({session_id, kernel->model->gflops(names, config), -1.0});
  }
  const auto closed = second.close_session(session_id);
  EXPECT_GT(closed.run.evaluations, 1u);

  server.stop();
}
