// `service`: the tuning service as `tunespace_serve --state-dir` deploys it.
//
// An in-process ServiceServer with default options, the HTTP gateway on and
// a fresh state directory.  Four closed-loop clients share it: two speak
// length-prefixed frames through tuner::ServiceClient, two speak HTTP/1.1
// keep-alive through the minimal client below (the library ships only the
// frame client).  Each client runs random-sampling sessions back-to-back,
// cycling over hotspot, gemm and dedispersion, with session seeds derived
// from the workload seed, and reports the catalog model's full measurement
// vector.  Concurrent sessions on one kernel share its space and eval
// cache, so cache reads run beside writes.  The wire dominates a request;
// the optimizer is a small share.
//
// The process runs on one CPU (use_one_cpu): a request hops between a
// client, the event loop, a worker and the session's optimizer thread.
// Every kProbeInterval the clients stop between requests and the speed probe
// runs alone; req/s over the run and the p50 round trip are scaled by it.
//
// Set-up (timed as setup_s) starts the service, connects the clients and
// opens one session per kernel, so the space construction inside open()
// lands in set-up rather than in the request figures.  Every reply must
// decode (a non-2xx HTTP status is a failure), and every closed session's
// summary must equal an in-process run_session of the same kernel,
// optimizer and seed.
//
// The traced run splits a request from outside the server.  After the load,
// sessions of the same shape run in-process on the same TuningService
// (service layer) and through the wire:: codecs (protocol layer).  The
// loaded round trips include waiting behind the other three clients on the
// one CPU, so each protocol then runs alone for a moment on the same
// connections, with a ping every few requests (transport, event loop and
// dispatch of an empty op).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "trace.hpp"
#include "tunespace/tuner/net.hpp"
#include "tunespace/tuner/protocol.hpp"
#include "tunespace/tuner/server.hpp"
#include "tunespace/tuner/service.hpp"
#include "tunespace/tuner/service_client.hpp"
#include "workloads.hpp"

using namespace tunespace;
using util::json::Value;

namespace perfbench {

namespace {

constexpr const char* kKernels[] = {"hotspot", "gemm", "dedispersion"};
constexpr std::size_t kFrameClients = 2;
constexpr std::size_t kHttpClients = 2;
/// Fixed virtual construction charge, so a service session and its
/// in-process reference replay the same virtual timeline.
constexpr double kConstructionCharge = 5.0;
/// Requests after which peak_rss_mb is read.  The eval cache grows with every
/// reported measurement, so RSS read at the deadline moved with the speed of
/// the machine (64-88 MB between runs); read after a fixed number of requests
/// it does not.
constexpr std::uint64_t kRssAfterRequests = 200000;
/// Traced run: seconds each protocol runs alone, and one ping per this many
/// requests while it does.
constexpr double kAloneSeconds = 0.5;
constexpr std::uint64_t kPingEvery = 8;
/// Traced run: sessions run in-process for the service and codec layers.
constexpr std::size_t kReplaySessions = 48;

std::string http_request_text(const std::string& op, const std::string& body) {
  return "POST /v1/" + op +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

Value session_body(std::uint64_t session_id) {
  Value body = Value::object();
  body.set("session_id", session_id);
  return body;
}

/// Minimal HTTP/1.1 keep-alive client for the gateway: one request in
/// flight, Content-Length bodies, replies read with wire::decode_response.
/// Same call shapes as tuner::ServiceClient.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port)
      : fd_(tuner::net::connect_tcp("127.0.0.1", port, 10.0)) {}
  ~HttpClient() { tuner::net::close_fd(fd_); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool ping() { return call("ping", Value::object()).at("pong").as_bool(); }
  tuner::OpenSessionResponse open(const tuner::OpenSessionRequest& request) {
    return tuner::wire::open_session_response_from_json(
        call("open", tuner::wire::to_json(request)));
  }
  tuner::SuggestResponse suggest(std::uint64_t session_id) {
    return tuner::wire::suggest_response_from_json(
        call("suggest", session_body(session_id)));
  }
  tuner::ReportResponse report(const tuner::ReportRequest& request) {
    return tuner::wire::report_response_from_json(
        call("report", tuner::wire::to_json(request)));
  }
  tuner::CloseSessionResponse close_session(std::uint64_t session_id) {
    return tuner::wire::close_session_response_from_json(
        call("close", session_body(session_id)));
  }

 private:
  Value call(const std::string& op, Value body) {
    body.set("v", static_cast<std::int64_t>(tuner::wire::kProtocolVersion));
    const std::string request = http_request_text(op, body.dump());
    tuner::net::FdStream(fd_).write_all(request.data(), request.size());

    std::size_t head_end;
    while ((head_end = in_.find("\r\n\r\n")) == std::string::npos) fill();
    std::string head = in_.substr(0, head_end);
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (head.compare(0, 9, "http/1.1 ") != 0) {
      throw ServiceError(ErrorCode::kProtocol, "malformed HTTP status line");
    }
    const int status = std::atoi(head.c_str() + 9);
    const std::size_t length_at = head.find("\r\ncontent-length:");
    if (length_at == std::string::npos) {
      throw ServiceError(ErrorCode::kProtocol, "HTTP reply without Content-Length");
    }
    const std::size_t length = std::strtoull(head.c_str() + length_at + 17, nullptr, 10);
    const std::size_t total = head_end + 4 + length;
    while (in_.size() < total) fill();
    const std::string reply = in_.substr(head_end + 4, length);
    in_.erase(0, total);
    Value document = tuner::wire::decode_response(reply);  // throws error envelopes
    if (status < 200 || status >= 300) {
      throw ServiceError(ErrorCode::kProtocol, "HTTP status " + std::to_string(status));
    }
    return document;
  }

  void fill() {
    char buf[16384];
    while (true) {
      const ssize_t got = ::recv(fd_, buf, sizeof buf, 0);
      if (got > 0) {
        in_.append(buf, static_cast<std::size_t>(got));
        return;
      }
      if (got < 0 && errno == EINTR) continue;
      throw ServiceError(ErrorCode::kIo, "HTTP connection closed");
    }
  }

  int fd_;
  std::string in_;
};

tuner::OpenSessionRequest open_request(std::size_t kernel, std::uint64_t seed) {
  tuner::OpenSessionRequest request;
  request.kernel = kKernels[kernel];
  request.optimizer = "random-sampling";
  request.seed = seed;
  request.fixed_construction_seconds = kConstructionCharge;
  return request;
}

tuner::RunSummary summarize(const tuner::TuningRun& run) {
  tuner::RunSummary summary;
  summary.method_name = run.method_name;
  summary.construction_seconds = run.construction_seconds;
  summary.budget_seconds = run.budget_seconds;
  summary.best_gflops = run.best_gflops;
  summary.evaluations = run.evaluations;
  for (const auto& point : run.trajectory) {
    summary.trajectory.push_back({point.time_seconds, point.best_gflops,
                                  static_cast<std::uint64_t>(point.evaluations),
                                  point.measurement});
  }
  summary.objectives = run.objectives;
  summary.best_score = run.best_score;
  summary.best = run.best;
  summary.front = run.front;
  return summary;
}

/// One session a client ran: what the reference replay and the checks need.
struct Script {
  std::size_t kernel = 0;
  std::uint64_t seed = 0;
  bool closed = false;
  tuner::RunSummary summary;
};

/// What one client thread measured.
struct ClientLog {
  bool http = false;
  std::vector<double> latencies;  ///< seconds per session request
  std::vector<double> pings;      ///< seconds per ping (when pinging)
  double rss_mb = 0;  ///< peak RSS, if this client served request kRssAfterRequests
  std::map<std::string, std::uint64_t> ops;
  std::vector<Script> scripts;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
};

/// Stops every client between two of its requests, so that the speed probe
/// runs alone on the one CPU.  A probe sharing the CPU with the clients and
/// the server would also time their context switches and cache traffic,
/// which a change to the server would move.
class ProbeGate {
 public:
  explicit ProbeGate(std::size_t clients) : running_(clients) {}

  /// A client between requests: wait out a pending probe.
  void pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!pending_) return;
    parked_++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !pending_; });
    parked_--;
  }
  /// A client that sends no more requests.
  void leave() {
    std::lock_guard<std::mutex> lock(mutex_);
    running_--;
    cv_.notify_all();
  }
  /// Run `probe` once every client is parked; return the seconds the clients
  /// stood still for it.
  double probe(SpeedProbe& probe) {
    std::unique_lock<std::mutex> lock(mutex_);
    pending_ = true;
    cv_.wait(lock, [&] { return parked_ == running_; });
    const double t0 = now_s();
    probe.run();
    const double stopped = now_s() - t0;
    pending_ = false;
    cv_.notify_all();
    return stopped;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool pending_ = false;
  std::size_t parked_ = 0;
  std::size_t running_;
};

/// Answer a suggestion with the catalog model's full measurement vector.
tuner::ReportRequest measure(const tuner::ServiceKernel& kernel,
                             const std::vector<std::string>& names,
                             const tuner::SuggestResponse& ask) {
  csp::Config config;
  config.reserve(ask.config.size());
  for (const auto& entry : ask.config) config.push_back(entry.value);
  tuner::ReportRequest report;
  report.session_id = ask.session_id;
  report.measurement = kernel.model->measure(names, config);
  report.gflops = report.measurement.gflops;
  return report;
}

/// Closed loop of one client until the deadline: whole sessions, every
/// request timed from the client's side.  `served` (if any) counts requests
/// across the clients; `gate` (if any) may stop the client between requests;
/// with `ping`, a ping follows every kPingEvery requests.
template <typename Client>
void drive(Client& client, ClientLog& log, std::size_t client_index,
           std::uint64_t workload_seed, double deadline,
           std::atomic<std::uint64_t>* served, ProbeGate* gate, bool ping) {
  const char* request_span = log.http ? "request.http" : "request.frame";
  const char* ping_span = log.http ? "ping.http" : "ping.frame";
  std::uint64_t request_id = (static_cast<std::uint64_t>(client_index) + 1) << 40;
  const auto timed = [&](const char* op, auto&& call) {
    log.requests++;
    log.ops[op]++;
    const double t0 = now_s();
    {
      trace::Span span(request_span, request_id++);
      call();
    }
    log.latencies.push_back(now_s() - t0);
    if (served != nullptr && served->fetch_add(1) + 1 == kRssAfterRequests) {
      log.rss_mb = peak_rss_mb();
    }
    if (ping && log.requests % kPingEvery == 0) {
      const double p0 = now_s();
      {
        trace::Span span(ping_span, request_id++);
        if (!client.ping()) throw ServiceError(ErrorCode::kProtocol, "ping without pong");
      }
      log.pings.push_back(now_s() - p0);
    }
    if (gate != nullptr) gate->pass();
  };
  for (std::size_t s = 0; now_s() < deadline; ++s) {
    Script script;
    script.kernel = (client_index + s) % std::size(kKernels);
    // JSON carries a seed above INT64_MAX as a double, which rounds it, so
    // session seeds keep to 63 bits.
    script.seed = mix_seed(workload_seed, 1000 + client_index * 1000003 + s) >> 1;
    const tuner::ServiceKernel& kernel =
        *tuner::find_service_kernel(kKernels[script.kernel]);
    try {
      tuner::OpenSessionResponse opened;
      timed("open",
            [&] { opened = client.open(open_request(script.kernel, script.seed)); });
      while (true) {
        tuner::SuggestResponse ask;
        timed("suggest", [&] { ask = client.suggest(opened.session_id); });
        if (ask.finished) break;
        const tuner::ReportRequest report = measure(kernel, opened.info.param_names, ask);
        timed("report", [&] { client.report(report); });
      }
      timed("close",
            [&] { script.summary = client.close_session(opened.session_id).run; });
      script.closed = true;
    } catch (const std::exception& e) {
      log.failed++;
      std::fprintf(stderr, "[perfbench] %s client %zu: %s\n", log.http ? "http" : "frame",
                   client_index, e.what());
      log.scripts.push_back(std::move(script));
      return;  // the connection state is unknown; this client stops
    }
    log.scripts.push_back(std::move(script));
  }
}

/// A running service with its connected clients.
struct Deployment {
  std::string state_dir;
  std::unique_ptr<tuner::TuningService> service;
  std::unique_ptr<tuner::ServiceServer> server;
  std::vector<std::unique_ptr<tuner::ServiceClient>> frame_clients;
  std::vector<std::unique_ptr<HttpClient>> http_clients;

  ~Deployment() {
    frame_clients.clear();
    http_clients.clear();
    if (server) server->stop();
    server.reset();
    service.reset();  // persists the eval cache into the state dir
    std::error_code ec;
    if (!state_dir.empty()) std::filesystem::remove_all(state_dir, ec);
  }
};

std::unique_ptr<Deployment> deploy(const std::string& state_dir) {
  auto d = std::make_unique<Deployment>();
  d->state_dir = state_dir;
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  tuner::TuningServiceOptions service_options;
  service_options.state_dir = state_dir;
  d->service = std::make_unique<tuner::TuningService>(service_options);
  tuner::ServiceServerOptions server_options;
  server_options.enable_http = true;
  d->server = std::make_unique<tuner::ServiceServer>(*d->service, server_options);
  d->server->start();
  tuner::ServiceClientOptions client_options;
  client_options.port = d->server->port();
  for (std::size_t i = 0; i < kFrameClients; ++i) {
    d->frame_clients.push_back(std::make_unique<tuner::ServiceClient>(client_options));
  }
  for (std::size_t i = 0; i < kHttpClients; ++i) {
    d->http_clients.push_back(std::make_unique<HttpClient>(d->server->http_port()));
  }
  // Build every kernel's space now: open() constructs it (and snapshots it
  // into the state dir) the first time a kernel is asked for.
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    const auto opened = d->frame_clients[0]->open(open_request(k, 0));
    d->frame_clients[0]->close_session(opened.session_id);
  }
  return d;
}

/// Compare every closed session with an in-process run_session of the same
/// kernel, optimizer and seed on the service's own spaces.
void check_against_references(tuner::TuningService& service,
                              const std::vector<ClientLog>& logs, Report& report) {
  std::vector<std::shared_ptr<const searchspace::SearchSpace>> spaces;
  for (const char* name : kKernels) {
    spaces.push_back(service.manager().acquire_space(
        tuner::find_service_kernel(name)->spec, tuner::optimized_method()));
  }
  for (const ClientLog& log : logs) {
    for (const Script& script : log.scripts) {
      if (!script.closed) continue;
      const tuner::ServiceKernel& kernel =
          *tuner::find_service_kernel(kKernels[script.kernel]);
      auto optimizer = tuner::make_optimizer("random-sampling");
      tuner::TuningOptions options;
      options.seed = script.seed;
      options.fixed_construction_seconds = kConstructionCharge;
      const tuner::TuningRun run = tuner::run_session(
          tuner::make_session_request(searchspace::SubSpace(spaces[script.kernel]),
                                      *kernel.model, *optimizer, options, "optimized"));
      report.check(summarize(run) == script.summary,
                   std::string("service session on ") + kKernels[script.kernel] +
                       " differs from its in-process run_session");
    }
  }
}

/// Traced run: run sessions of the clients' shape straight on the service,
/// timing each call (service layer) and the wire codecs on the same structs
/// (protocol layer), and sum the encoded sizes.  The service is the loaded
/// one, so these sessions meet the eval cache the load has filled.
struct InProcessCalls {
  std::map<std::string, std::vector<double>> service_s;  ///< per op
  std::map<std::string, std::vector<double>> codec_s;    ///< per op
  double frame_bytes = 0, http_bytes = 0, calls = 0;
};

template <typename Request, typename Response, typename DecodeRequest,
          typename DecodeResponse>
void time_codec(InProcessCalls& out, const std::string& op, const Value& request_json,
                  DecodeRequest decode_request, const Response& response,
                  DecodeResponse decode_response) {
  Value body = request_json;
  body.set("v", static_cast<std::int64_t>(tuner::wire::kProtocolVersion));
  const double t0 = now_s();
  std::string request_frame, response_frame;
  {
    trace::Span span("tuner.protocol.codec");
    request_frame = tuner::wire::encode_request(op, body);
    const auto decoded = tuner::wire::decode_request(request_frame);
    const Request parsed = decode_request(decoded.second);
    response_frame = tuner::wire::encode_ok(tuner::wire::to_json(response));
    const Response echoed = decode_response(tuner::wire::decode_response(response_frame));
    (void)parsed;
    (void)echoed;
  }
  out.codec_s[op].push_back(now_s() - t0);
  out.frame_bytes +=
      static_cast<double>(8 + request_frame.size() + response_frame.size());
  out.http_bytes += static_cast<double>(
      http_request_text(op, body.dump()).size() +
      tuner::wire::encode_http_response(200, response_frame, true).size());
  out.calls++;
}

InProcessCalls run_in_process(tuner::TuningService& service,
                              std::uint64_t workload_seed) {
  InProcessCalls out;
  std::vector<Script> scripts(kReplaySessions);
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    scripts[i].kernel = i % std::size(kKernels);
    scripts[i].seed = mix_seed(workload_seed, 2000000 + i) >> 1;  // 63 bits, as above
  }
  namespace wire = tuner::wire;
  const auto timed = [&](const char* op, auto&& call) {
    const double t0 = now_s();
    {
      trace::Span span(op);
      call();
    }
    out.service_s[op].push_back(now_s() - t0);
  };
  for (const Script& script : scripts) {
    const tuner::ServiceKernel& kernel =
        *tuner::find_service_kernel(kKernels[script.kernel]);
    const tuner::OpenSessionRequest request = open_request(script.kernel, script.seed);
    tuner::OpenSessionResponse opened;
    timed("tuner.service.open", [&] { opened = service.open(request); });
    time_codec<tuner::OpenSessionRequest>(
        out, "open", wire::to_json(request), wire::open_session_request_from_json, opened,
        wire::open_session_response_from_json);
    while (true) {
      tuner::SuggestResponse ask;
      timed("tuner.service.suggest", [&] { ask = service.suggest({opened.session_id}); });
      time_codec<std::uint64_t>(
          out, "suggest", session_body(opened.session_id),
          [](const Value& v) { return v.at("session_id").as_uint(); }, ask,
          wire::suggest_response_from_json);
      if (ask.finished) break;
      const tuner::ReportRequest report = measure(kernel, opened.info.param_names, ask);
      tuner::ReportResponse told;
      timed("tuner.service.report", [&] { told = service.report(report); });
      time_codec<tuner::ReportRequest>(out, "report", wire::to_json(report),
                                         wire::report_request_from_json, told,
                                         wire::report_response_from_json);
    }
    tuner::CloseSessionResponse closed;
    timed("tuner.service.close", [&] { closed = service.close({opened.session_id}); });
    time_codec<std::uint64_t>(
        out, "close", session_body(opened.session_id),
        [](const Value& v) { return v.at("session_id").as_uint(); }, closed,
        wire::close_session_response_from_json);
  }
  return out;
}

}  // namespace

Report run_service(const Options& options) {
  Report report;
  EndToEnd e2e;
  use_one_cpu();
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    deployment.reset();  // tear the previous repetition down, untimed
    const std::string state_dir = options.work_dir + "/service-state-" +
                                  std::to_string(::getpid()) + "-" + std::to_string(i);
    SetUpTimer timer;
    deployment = deploy(state_dir);
    e2e.setup_seconds.push_back(timer.seconds());
  }

  std::vector<ClientLog> logs(kFrameClients + kHttpClients);
  std::atomic<std::uint64_t> served{0};
  ProbeGate gate(logs.size());
  double stopped = 0;  ///< seconds the clients stood still for the probe
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + options.seconds;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      logs[c].http = c >= kFrameClients;
      clients.emplace_back([&, c] {
        if (logs[c].http) {
          drive(*deployment->http_clients[c - kFrameClients], logs[c], c, options.seed,
                deadline, &served, &gate, false);
        } else {
          drive(*deployment->frame_clients[c], logs[c], c, options.seed, deadline,
                &served, &gate, false);
        }
        gate.leave();
      });
    }
    const std::chrono::duration<double> interval(SpeedProbe::kProbeInterval);
    while (now_s() + interval.count() < deadline) {
      std::this_thread::sleep_for(interval);
      stopped += gate.probe(e2e.probe);
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall = now_s() - start;
  e2e.peak_rss_mb = peak_rss_mb();  // unless a client read it at kRssAfterRequests
  for (const ClientLog& log : logs) {
    if (log.rss_mb > 0) e2e.peak_rss_mb = log.rss_mb;
  }
  const double cpu = process_cpu_s() - cpu0;
  const tuner::ServiceStats stats = deployment->service->stats();

  std::vector<double> frame, http;
  std::uint64_t requests = 0, sessions = 0;
  for (const ClientLog& log : logs) {
    auto& into = log.http ? http : frame;
    into.insert(into.end(), log.latencies.begin(), log.latencies.end());
    requests += log.requests;
    sessions += log.scripts.size();
    report.attempted += log.requests;
    report.failed += log.failed;
  }
  check_against_references(*deployment->service, logs, report);

  std::vector<double> latencies = frame;
  latencies.insert(latencies.end(), http.begin(), http.end());
  e2e.work = static_cast<double>(requests);
  e2e.seconds = wall - stopped;
  e2e.latency_s = median(latencies);
  char line[200];
  std::snprintf(line, sizeof line,
                "req_per_s %.6g 1/s (raw; %llu requests, %llu sessions in %.3f s)",
                e2e.work / e2e.seconds, static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(sessions), e2e.seconds);
  report.note(line);
  const auto note_latency = [&](const char* name, const std::vector<double>& v,
                                double q) {
    std::snprintf(line, sizeof line, "%s %.6g us (%zu requests)", name,
                  quantile(v, q) * 1e6, v.size());
    report.note(line);
  };
  note_latency("frame_p50_us", frame, 0.5);
  note_latency("frame_p90_us", frame, 0.9);
  note_latency("http_p50_us", http, 0.5);
  note_latency("http_p90_us", http, 0.9);

  if (!options.trace) {
    add_end_to_end(report, e2e);
    return report;
  }

  // Per-layer split: in-process sessions on the loaded service, then each
  // protocol alone on its connection.
  const InProcessCalls in_process = run_in_process(*deployment->service, options.seed);
  std::vector<ClientLog> alone(2);
  alone[1].http = true;
  drive(*deployment->frame_clients[0], alone[0], logs.size(), options.seed,
        now_s() + kAloneSeconds, nullptr, nullptr, true);
  drive(*deployment->http_clients[0], alone[1], logs.size() + 1, options.seed,
        now_s() + kAloneSeconds, nullptr, nullptr, true);
  for (const ClientLog& log : alone) {
    report.attempted += log.requests;
    report.failed += log.failed;
  }
  check_against_references(*deployment->service, alone, report);

  std::vector<double> service_all, codec_all;
  for (const auto& [op, seconds] : in_process.service_s) {
    service_all.insert(service_all.end(), seconds.begin(), seconds.end());
  }
  for (const auto& [op, seconds] : in_process.codec_s) {
    codec_all.insert(codec_all.end(), seconds.begin(), seconds.end());
  }
  const double service_p50 = median(service_all);
  const double codec_p50 = median(codec_all);
  std::vector<double> alone_all = alone[0].latencies;
  alone_all.insert(alone_all.end(), alone[1].latencies.begin(), alone[1].latencies.end());
  for (const char* op : {"open", "suggest", "report", "close"}) {
    const std::string name = std::string("tuner.service.") + op;
    report.add(name + "_us", median(in_process.service_s.at(name)) * 1e6, "us");
  }
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  report.add("tuner.service.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0, "ratio");
  report.add("tuner.protocol.codec_us", codec_p50 * 1e6, "us");
  report.add("tuner.protocol.frame_bytes", in_process.frame_bytes / in_process.calls,
             "bytes");
  report.add("tuner.protocol.http_bytes", in_process.http_bytes / in_process.calls,
             "bytes");
  const double frame_alone = median(alone[0].latencies);
  const double http_alone = median(alone[1].latencies);
  const double inner_p50 = service_p50 + codec_p50;
  report.add("tuner.server.frame_us", (frame_alone - inner_p50) * 1e6, "us");
  report.add("tuner.server.http_us", (http_alone - inner_p50) * 1e6, "us");
  report.add("tuner.server.queue_us", (e2e.latency_s - median(alone_all)) * 1e6,
             "us");
  report.add("process.cpu_s", cpu, "s");
  report.add("process.parallelism", wall > 0 ? cpu / wall : 0, "ratio");

  // Add-up gate on the mean request of the alone phase: the in-process
  // service and codec costs, weighted by that phase's op mix, plus the
  // server's own cost, taken as the mean ping round trip.
  double layers = 0, requests_alone = 0;
  std::vector<double> pings;
  for (const ClientLog& log : alone) {
    for (const auto& [op, count] : log.ops) {
      const auto& service_s = in_process.service_s.at("tuner.service." + op);
      const auto& codec_s = in_process.codec_s.at(op);
      layers += static_cast<double>(count) *
                (sum(service_s) / static_cast<double>(service_s.size()) +
                 sum(codec_s) / static_cast<double>(codec_s.size()));
      requests_alone += static_cast<double>(count);
    }
    pings.insert(pings.end(), log.pings.begin(), log.pings.end());
  }
  const double ping_mean = sum(pings) / static_cast<double>(pings.size());
  check_layers_add_up(report, "service request alone",
                      sum(alone_all) / static_cast<double>(alone_all.size()),
                      layers / requests_alone + ping_mean);
  return report;
}

}  // namespace perfbench
