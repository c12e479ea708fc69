#include "tunespace/tuner/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tunespace/tuner/net.hpp"
#include "tunespace/tuner/protocol.hpp"

namespace tunespace::tuner {

using util::json::Value;

namespace {

// epoll_event.data.u64 tags for the fds that are not connections;
// connection ids start at kFirstConnId and only grow.
constexpr std::uint64_t kFrameListenerTag = 0;
constexpr std::uint64_t kHttpListenerTag = 1;
constexpr std::uint64_t kWakeTag = 2;
constexpr std::uint64_t kFirstConnId = 3;

// Pause accepting this long after an EMFILE-class failure; pending backlog
// entries are retried once the pressure has had a moment to clear.
constexpr int kAcceptBackoffMs = 50;

// Per-connection inbound buffer cap: one maximal frame (prefix + payload)
// or one maximal gateway request (headers + body).  A connection that
// buffers this much without completing a message stops being read until
// its in-flight request finishes — TCP backpressure does the rest.
constexpr std::size_t kReadCap =
    wire::kMaxFrameBytes + wire::kMaxHttpHeaderBytes + 4;

/// wire::ByteStream that appends into a string (reply framing).
class StringSink : public wire::ByteStream {
 public:
  void write_all(const void* data, std::size_t n) override {
    out.append(static_cast<const char*>(data), n);
  }
  bool read_all(void*, std::size_t) override { return false; }

  std::string out;
};

std::string frame_bytes(std::string_view payload) {
  StringSink sink;
  wire::write_frame(sink, payload);
  return std::move(sink.out);
}

std::uint32_t be32(const char* p) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
}

}  // namespace

struct ServiceServer::Impl {
  TuningService& service;
  ServiceServerOptions options;

  int frame_listen_fd = -1;
  int http_listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;
  std::uint16_t bound_http_port = 0;
  std::thread loop_thread;
  std::vector<std::thread> workers;

  enum class Proto : std::uint8_t { kFrame, kHttp };

  /// Owned and touched exclusively by the event-loop thread.
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    Proto proto = Proto::kFrame;
    std::string rbuf;          ///< unconsumed inbound bytes
    std::string wbuf;          ///< reply bytes not yet on the wire
    std::size_t woff = 0;      ///< flushed prefix of wbuf
    bool busy = false;         ///< one request is at a worker
    bool peer_eof = false;
    bool close_after_flush = false;
    bool drain_exit_after_flush = false;
    bool sent_continue = false;   ///< interim 100 Continue already queued
    std::uint32_t armed = 0;      ///< epoll events currently registered
    std::uint64_t last_active = 0;  ///< event-loop tick of last traffic
  };

  // Guarded by `mutex`: the public wait/stop surface.
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  bool drain_exit = false;

  std::atomic<bool> shutdown{false};
  std::atomic<std::size_t> live_conns{0};

  struct Task {
    std::uint64_t conn_id = 0;
    Proto proto = Proto::kFrame;
    std::string payload;    ///< frame payload, or HTTP body JSON
    std::string op;         ///< HTTP only: op extracted from the target
    bool keep_alive = true;  ///< HTTP only
  };
  struct Reply {
    std::uint64_t conn_id = 0;
    std::string bytes;  ///< ready-to-send wire bytes (frame or HTTP)
    bool exit_after_reply = false;
    bool close_after = false;
  };
  std::mutex work_mutex;
  std::condition_variable work_cv;
  std::deque<Task> tasks;
  std::mutex reply_mutex;
  std::deque<Reply> replies;

  // Event-loop-thread state.
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  std::uint64_t tick = 0;
  bool accept_paused = false;
  std::chrono::steady_clock::time_point accept_resume{};

  explicit Impl(TuningService& s, ServiceServerOptions o)
      : service(s), options(std::move(o)) {}

  // -- Request dispatch (worker threads) -------------------------------------

  std::string dispatch(const std::string& op, const Value& body,
                       bool& exit_after_reply) {
    // Version gate: a request stamped with a "v" beyond what this server
    // speaks gets the typed error instead of a silent misparse.  A request
    // without "v" is served: its absent fields take their defaults.
    const std::int64_t v = body.at("v").as_int(wire::kProtocolVersion);
    if (v > wire::kProtocolVersion) {
      throw ServiceError(ErrorCode::kUnsupportedVersion,
                         "request version " + std::to_string(v) +
                             " exceeds server protocol version " +
                             std::to_string(wire::kProtocolVersion));
    }
    if (op == "ping") {
      Value reply = Value::object();
      reply.set("pong", true);
      return wire::encode_ok(reply);
    }
    if (op == "open") {
      return wire::encode_ok(wire::to_json(
          service.open(wire::open_session_request_from_json(body))));
    }
    if (op == "suggest") {
      return wire::encode_ok(wire::to_json(
          service.suggest({body.at("session_id").as_uint()})));
    }
    if (op == "report") {
      return wire::encode_ok(
          wire::to_json(service.report(wire::report_request_from_json(body))));
    }
    if (op == "best") {
      return wire::encode_ok(
          wire::to_json(service.best({body.at("session_id").as_uint()})));
    }
    if (op == "info") {
      return wire::encode_ok(
          wire::to_json(service.info(body.at("session_id").as_uint())));
    }
    if (op == "stats") {
      return wire::encode_ok(wire::to_json(service.stats()));
    }
    if (op == "close") {
      return wire::encode_ok(
          wire::to_json(service.close({body.at("session_id").as_uint()})));
    }
    if (op == "drain") {
      const DrainRequest request = wire::drain_request_from_json(body);
      service.begin_drain();
      if (request.wait) service.wait_drained(request.timeout_seconds);
      DrainResponse response;
      response.draining = service.draining();
      response.drained = service.drained();
      response.live_sessions = service.stats().live_sessions;
      // Signal only after the reply bytes reach the wire (the event loop
      // raises drain_exit once the flush completes), or stop() could shut
      // the socket down under the in-flight drain response.
      exit_after_reply = response.drained && options.exit_when_drained;
      return wire::encode_ok(wire::to_json(response));
    }
    throw ServiceError(ErrorCode::kProtocol, "unknown op '" + op + "'");
  }

  std::string handle_frame(const std::string& frame, bool& exit_after_reply,
                           ErrorCode& code) {
    code = ErrorCode::kOk;
    try {
      const auto [op, body] = wire::decode_request(frame);
      return dispatch(op, body, exit_after_reply);
    } catch (const ServiceError& e) {
      code = e.code();
      return wire::encode_error(e.code(), e.what());
    } catch (const std::exception& e) {
      code = ErrorCode::kInternal;
      return wire::encode_error(ErrorCode::kInternal, e.what());
    }
  }

  std::string handle_http(const Task& task, bool& exit_after_reply) {
    ErrorCode code = ErrorCode::kOk;
    std::string reply_json;
    try {
      Value body =
          task.payload.empty() ? Value::object() : Value::parse(task.payload);
      if (!body.is_object()) {
        throw ServiceError(ErrorCode::kProtocol,
                           "request body must be a JSON object");
      }
      reply_json = dispatch(task.op, body, exit_after_reply);
    } catch (const ServiceError& e) {
      code = e.code();
      reply_json = wire::encode_error(e.code(), e.what());
    } catch (const std::exception& e) {
      code = ErrorCode::kInternal;
      reply_json = wire::encode_error(ErrorCode::kInternal, e.what());
    }
    return wire::encode_http_response(wire::http_status_for(code), reply_json,
                                      task.keep_alive);
  }

  void worker_loop() {
    while (true) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(work_mutex);
        work_cv.wait(lock, [this] { return shutdown.load() || !tasks.empty(); });
        if (tasks.empty()) return;  // shutdown with the queue drained
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      Reply reply;
      reply.conn_id = task.conn_id;
      if (task.proto == Proto::kFrame) {
        ErrorCode code = ErrorCode::kOk;
        reply.bytes =
            frame_bytes(handle_frame(task.payload, reply.exit_after_reply, code));
      } else {
        reply.bytes = handle_http(task, reply.exit_after_reply);
        reply.close_after = !task.keep_alive;
      }
      {
        std::lock_guard<std::mutex> lock(reply_mutex);
        replies.push_back(std::move(reply));
      }
      wake();
    }
  }

  // -- Event loop ------------------------------------------------------------

  void wake() noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
  }

  void arm(int fd, std::uint64_t tag, std::uint32_t events, int op) noexcept {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    ::epoll_ctl(epoll_fd, op, fd, &ev);
  }

  /// Keep a connection's epoll registration in sync with what it needs:
  /// EPOLLIN unless its read buffer is saturated behind an in-flight
  /// request, EPOLLOUT only while unflushed reply bytes remain.
  void update_interest(Conn& conn) noexcept {
    std::uint32_t want = 0;
    if (!(conn.busy && conn.rbuf.size() >= kReadCap) && !conn.peer_eof) {
      want |= EPOLLIN;
    }
    if (conn.woff < conn.wbuf.size()) want |= EPOLLOUT;
    if (want != conn.armed) {
      arm(conn.fd, conn.id, want, EPOLL_CTL_MOD);
      conn.armed = want;
    }
  }

  void close_conn(std::uint64_t id) noexcept {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    net::close_fd(it->second.fd);
    conns.erase(it);
    live_conns.store(conns.size(), std::memory_order_relaxed);
  }

  void add_conn(int fd, Proto proto) {
    const std::uint64_t id = next_conn_id++;
    Conn conn;
    conn.id = id;
    conn.fd = fd;
    conn.proto = proto;
    conn.armed = EPOLLIN;
    conn.last_active = tick;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      net::close_fd(fd);
      return;
    }
    conns.emplace(id, std::move(conn));
    live_conns.store(conns.size(), std::memory_order_relaxed);
  }

  /// Under fd exhaustion, closing the oldest idle connection both frees a
  /// descriptor for the incoming peer and sheds the connection most likely
  /// to be abandoned.  Sessions survive — a shed client reconnects and
  /// resumes by session id.
  void shed_oldest_idle() {
    const Conn* victim = nullptr;
    for (const auto& [id, conn] : conns) {
      if (conn.busy || conn.woff < conn.wbuf.size()) continue;  // in flight
      if (victim == nullptr || conn.last_active < victim->last_active) {
        victim = &conn;
      }
    }
    if (victim != nullptr) close_conn(victim->id);
  }

  void pause_accept() {
    if (accept_paused) return;
    // Deregister the listeners: with level-triggered epoll a pending
    // backlog would otherwise re-report readiness every iteration and turn
    // the backoff into a busy loop.
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, frame_listen_fd, nullptr);
    if (http_listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, http_listen_fd, nullptr);
    }
    accept_paused = true;
    accept_resume = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(kAcceptBackoffMs);
  }

  void resume_accept() {
    if (!accept_paused) return;
    arm(frame_listen_fd, kFrameListenerTag, EPOLLIN, EPOLL_CTL_ADD);
    if (http_listen_fd >= 0) {
      arm(http_listen_fd, kHttpListenerTag, EPOLLIN, EPOLL_CTL_ADD);
    }
    accept_paused = false;
  }

  void accept_ready(int listen_fd, Proto proto) {
    while (true) {
      int err = 0;
      const int fd = net::accept_nonblocking(listen_fd, err);
      if (fd >= 0) {
        add_conn(fd, proto);
        continue;
      }
      if (err == 0) return;  // backlog empty
      if (net::transient_accept_errno(err)) {
        // The one absolute rule of this loop: accept failures never kill
        // it.  Under fd exhaustion shed an idle connection so the next
        // round can succeed, and back off briefly instead of spinning.
        if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
            err == ENOMEM) {
          shed_oldest_idle();
          pause_accept();
        }
        return;
      }
      // Non-transient (the listener fd itself is broken): stop watching it
      // but keep serving live connections.
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      return;
    }
  }

  void enqueue_task(Task task) {
    {
      std::lock_guard<std::mutex> lock(work_mutex);
      tasks.push_back(std::move(task));
    }
    work_cv.notify_one();
  }

  void signal_drain_exit() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      drain_exit = true;
    }
    cv.notify_all();
  }

  /// Flush as much of wbuf as the socket accepts.  Returns false when the
  /// connection was closed (write failure, or close-after-flush).
  bool flush(Conn& conn) {
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t sent = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                                  conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (sent >= 0) {
        conn.woff += static_cast<std::size_t>(sent);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        update_interest(conn);
        return true;  // EPOLLOUT will finish the job
      }
      close_conn(conn.id);  // peer is gone; sessions survive in the service
      return false;
    }
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.drain_exit_after_flush) {
      // The drain reply is fully on the wire: now it is safe to release
      // wait() and let the host stop the server.
      conn.drain_exit_after_flush = false;
      signal_drain_exit();
    }
    if (conn.close_after_flush ||
        (conn.peer_eof && !conn.busy && conn.rbuf.empty())) {
      close_conn(conn.id);
      return false;
    }
    update_interest(conn);
    return true;
  }

  /// Queue bytes on a connection and try to flush them immediately.
  bool send_bytes(Conn& conn, std::string_view bytes) {
    conn.wbuf.append(bytes);
    return flush(conn);
  }

  /// Cut complete requests out of rbuf until one is in flight at a worker
  /// or the buffer holds only a partial message.  Returns false when the
  /// connection was closed.
  bool parse_input(Conn& conn) {
    while (!conn.busy) {
      bool progressed = false;
      const bool alive = conn.proto == Proto::kFrame
                             ? parse_frame_input(conn, progressed)
                             : parse_http_input(conn, progressed);
      if (!alive) return false;
      if (!progressed) break;
    }
    // A half-delivered message can never complete once the peer is gone.
    if (conn.peer_eof && !conn.busy && conn.woff >= conn.wbuf.size()) {
      close_conn(conn.id);
      return false;
    }
    update_interest(conn);
    return true;
  }

  bool parse_frame_input(Conn& conn, bool& progressed) {
    if (conn.rbuf.size() < 4) return true;
    const std::uint32_t n = be32(conn.rbuf.data());
    if (n > wire::kMaxFrameBytes) {
      // A desynchronized or hostile peer (this is also what ASCII — e.g.
      // an HTTP request line — looks like as a length prefix).  Same
      // policy as the blocking server: drop the connection.
      close_conn(conn.id);
      return false;
    }
    if (conn.rbuf.size() < 4 + static_cast<std::size_t>(n)) return true;
    Task task;
    task.conn_id = conn.id;
    task.proto = Proto::kFrame;
    task.payload = conn.rbuf.substr(4, n);
    conn.rbuf.erase(0, 4 + static_cast<std::size_t>(n));
    conn.busy = true;
    progressed = true;
    enqueue_task(std::move(task));
    return true;
  }

  bool parse_http_input(Conn& conn, bool& progressed) {
    if (conn.rbuf.empty()) return true;
    wire::HttpRequest request;
    std::size_t consumed = 0;
    int error_status = 400;
    std::string error;
    const wire::HttpParse verdict = wire::parse_http_request(
        conn.rbuf, request, consumed, error_status, error);
    if (verdict == wire::HttpParse::kBad) {
      conn.rbuf.clear();
      conn.close_after_flush = true;
      return send_bytes(conn,
                        wire::encode_http_response(
                            error_status,
                            wire::encode_error(ErrorCode::kProtocol, error),
                            /*keep_alive=*/false));
    }
    if (verdict == wire::HttpParse::kNeedMore) {
      if (request.headers_complete && request.expect_continue &&
          !conn.sent_continue) {
        conn.sent_continue = true;
        return send_bytes(conn, "HTTP/1.1 100 Continue\r\n\r\n");
      }
      return true;
    }
    conn.rbuf.erase(0, consumed);
    conn.sent_continue = false;
    progressed = true;
    if (request.method != "POST") {
      return send_bytes(
          conn, wire::encode_http_response(
                    405,
                    wire::encode_error(ErrorCode::kProtocol,
                                       "gateway ops are POST-only"),
                    request.keep_alive));
    }
    const std::string op = wire::http_op_from_target(request.target);
    if (op.empty()) {
      return send_bytes(
          conn, wire::encode_http_response(
                    404,
                    wire::encode_error(ErrorCode::kProtocol,
                                       "no such resource; ops live at /v1/{op}"),
                    request.keep_alive));
    }
    Task task;
    task.conn_id = conn.id;
    task.proto = Proto::kHttp;
    task.payload = std::move(request.body);
    task.op = op;
    task.keep_alive = request.keep_alive;
    conn.busy = true;
    enqueue_task(std::move(task));
    return true;
  }

  void conn_event(std::uint64_t id, std::uint32_t events) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = it->second;
    conn.last_active = tick;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) conn.peer_eof = true;
    if ((events & EPOLLIN) != 0) {
      char buf[64 * 1024];
      while (conn.rbuf.size() < kReadCap) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
        if (r > 0) {
          conn.rbuf.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0) {
          conn.peer_eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) conn.peer_eof = true;
        break;
      }
    }
    if (!parse_input(conn)) return;  // connection closed
    if ((events & EPOLLOUT) != 0) flush(conn);
  }

  void drain_replies() {
    std::deque<Reply> batch;
    {
      std::lock_guard<std::mutex> lock(reply_mutex);
      batch.swap(replies);
    }
    for (Reply& reply : batch) {
      const auto it = conns.find(reply.conn_id);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      conn.busy = false;
      if (reply.close_after) conn.close_after_flush = true;
      if (reply.exit_after_reply) conn.drain_exit_after_flush = true;
      if (!send_bytes(conn, reply.bytes)) continue;  // closed
      // The reply may have unblocked a pipelined request already buffered.
      if (conns.find(reply.conn_id) != conns.end()) parse_input(conn);
    }
  }

  void event_loop() {
    while (!shutdown.load()) {
      int timeout_ms = 100;
      if (accept_paused) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              accept_resume - std::chrono::steady_clock::now())
                              .count();
        timeout_ms = static_cast<int>(std::clamp<long long>(left, 1, 100));
      }
      epoll_event events[64];
      const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
      ++tick;
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll itself failed; nothing left to serve
      }
      if (accept_paused &&
          std::chrono::steady_clock::now() >= accept_resume) {
        resume_accept();
      }
      for (int i = 0; i < n; ++i) {
        if (shutdown.load()) break;
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kFrameListenerTag) {
          accept_ready(frame_listen_fd, Proto::kFrame);
        } else if (tag == kHttpListenerTag) {
          accept_ready(http_listen_fd, Proto::kHttp);
        } else if (tag == kWakeTag) {
          std::uint64_t counter = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wake_fd, &counter, sizeof counter);
          drain_replies();
        } else {
          conn_event(tag, events[i].events);
        }
      }
    }
    // Shutdown: the loop owns every connection fd, so it closes them.
    for (auto& [id, conn] : conns) net::close_fd(conn.fd);
    conns.clear();
    live_conns.store(0, std::memory_order_relaxed);
  }
};

ServiceServer::ServiceServer(TuningService& service, ServiceServerOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::start() {
  Impl* impl = impl_.get();
  impl->frame_listen_fd = net::listen_tcp(impl->options.host, impl->options.port);
  impl->bound_port = net::local_port(impl->frame_listen_fd);
  net::set_nonblocking(impl->frame_listen_fd);
  if (impl->options.enable_http) {
    impl->http_listen_fd =
        net::listen_tcp(impl->options.host, impl->options.http_port);
    impl->bound_http_port = net::local_port(impl->http_listen_fd);
    net::set_nonblocking(impl->http_listen_fd);
  }
  impl->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (impl->epoll_fd < 0) {
    throw ServiceError(ErrorCode::kIo,
                       std::string("epoll_create1: ") + std::strerror(errno));
  }
  impl->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl->wake_fd < 0) {
    throw ServiceError(ErrorCode::kIo,
                       std::string("eventfd: ") + std::strerror(errno));
  }
  impl->arm(impl->frame_listen_fd, kFrameListenerTag, EPOLLIN, EPOLL_CTL_ADD);
  if (impl->http_listen_fd >= 0) {
    impl->arm(impl->http_listen_fd, kHttpListenerTag, EPOLLIN, EPOLL_CTL_ADD);
  }
  impl->arm(impl->wake_fd, kWakeTag, EPOLLIN, EPOLL_CTL_ADD);
  const std::size_t worker_count = std::max<std::size_t>(1, impl->options.workers);
  impl->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    impl->workers.emplace_back([impl] { impl->worker_loop(); });
  }
  impl->loop_thread = std::thread([impl] { impl->event_loop(); });
}

void ServiceServer::wait() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv.wait(lock, [this] { return impl_->stopping || impl_->drain_exit; });
}

bool ServiceServer::wait_for(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return impl_->stopping || impl_->drain_exit; });
}

void ServiceServer::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->shutdown.store(true);
  impl_->wake();
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  net::close_fd(impl_->frame_listen_fd);
  impl_->frame_listen_fd = -1;
  net::close_fd(impl_->http_listen_fd);
  impl_->http_listen_fd = -1;
  net::close_fd(impl_->epoll_fd);
  impl_->epoll_fd = -1;
  net::close_fd(impl_->wake_fd);
  impl_->wake_fd = -1;
}

std::uint16_t ServiceServer::port() const { return impl_->bound_port; }

std::uint16_t ServiceServer::http_port() const { return impl_->bound_http_port; }

std::size_t ServiceServer::active_connections() const {
  return impl_->live_conns.load(std::memory_order_relaxed);
}

}  // namespace tunespace::tuner
