#pragma once
// In-memory span recorder for the traced run (--trace 1).
//
// The benchmark measures each layer from outside: it opens a span around
// every call it makes into a layer's public functions.  A span records its
// name, start, end, parent span and one id per space build, session or
// request (children inherit their parent's id).  Spans stay in memory while
// the run measures and are written out as CSV when it ends.  A layer's self
// time is its spans' duration minus the part their child spans cover.
//
// Parents default to the innermost open span of the calling thread; a span
// whose cause runs on another thread (a kernel measurement answering an
// optimizer's request through the session stepper) names its parent
// explicitly.  With tracing off every Span is a no-op.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench::trace {

inline constexpr std::uint32_t kAutoParent = 0xFFFFFFFEu;
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
inline constexpr std::uint64_t kInheritId = ~0ULL;

struct Totals {
  double total_s = 0;  ///< summed span durations
  double self_s = 0;   ///< summed durations minus child-covered time
  std::uint64_t count = 0;
};

/// One closed span's id, duration and self time.
struct SpanTime {
  std::uint64_t id = 0;
  double total_s = 0;
  double self_s = 0;
};

class Recorder {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span (name must be a string literal) and return its index.
  std::uint32_t open(const char* name, std::uint64_t id, std::uint32_t parent);
  void close(std::uint32_t span);

  /// Per-name totals over every closed span.
  std::map<std::string, Totals> totals() const;
  /// Every closed span with this name, in opening order.
  std::vector<SpanTime> spans(const std::string& name) const;
  /// Spans that did not fit under the memory cap (0 in a normal run).
  std::uint64_t dropped() const;
  /// Write every span as CSV: index,parent,thread,id,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint32_t parent;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
  };
  /// About 2.6M spans fill a 30-s traced tune run on a 4-vCPU virtual
  /// machine; the cap (384 MiB of records) leaves room for one three times
  /// as fast.
  static constexpr std::size_t kMaxSpans = 8u << 20;

  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< guards records_ and dropped_
  std::deque<Record> records_;
  std::uint64_t dropped_ = 0;
};

/// The process-wide recorder.
Recorder& recorder();

/// RAII span; inert when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = kInheritId,
                std::uint32_t parent = kAutoParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Index to pass as an explicit parent; kNoParent when inert.
  std::uint32_t index() const { return index_; }

 private:
  std::uint32_t index_ = kNoParent;
};

}  // namespace perfbench::trace
