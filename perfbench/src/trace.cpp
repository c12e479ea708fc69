#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench::trace {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next++;
  return number;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> open_stack;

}  // namespace

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

std::uint32_t Recorder::open(const char* name, std::uint64_t id,
                             std::uint32_t parent) {
  if (parent == kAutoParent) {
    parent = open_stack.empty() ? kNoParent : open_stack.back();
  }
  const std::uint32_t thread = thread_number();
  std::uint32_t index = kNoParent;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (records_.size() >= kMaxSpans) {
      dropped_++;
    } else {
      if (id == kInheritId) id = parent == kNoParent ? 0 : records_[parent].id;
      index = static_cast<std::uint32_t>(records_.size());
      records_.push_back({name, id, parent, thread, now_ns(), -1, 0});
    }
  }
  open_stack.push_back(index);
  return index;
}

void Recorder::close(std::uint32_t span) {
  const std::int64_t end = now_ns();
  if (!open_stack.empty()) open_stack.pop_back();
  if (span == kNoParent) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Record& record = records_[span];
  record.end_ns = end;
  if (record.parent != kNoParent) {
    records_[record.parent].child_ns += end - record.start_ns;
  }
}

std::map<std::string, Totals> Recorder::totals() const {
  std::map<std::string, Totals> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Record& r : records_) {
    if (r.end_ns < 0) continue;
    Totals& t = out[r.name];
    const double duration = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.total_s += duration;
    t.self_s += duration - static_cast<double>(r.child_ns) * 1e-9;
    t.count++;
  }
  return out;
}

std::vector<SpanTime> Recorder::spans(const std::string& name) const {
  std::vector<SpanTime> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Record& r : records_) {
    if (r.end_ns >= 0 && name == r.name) {
      const double duration = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      out.push_back({r.id, duration, duration - static_cast<double>(r.child_ns) * 1e-9});
    }
  }
  return out;
}

std::uint64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Recorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "index,parent,thread,id,name,start_ns,end_ns\n");
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu,%lld,%u,%llu,%s,%lld,%lld\n", i,
                 r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 r.thread, static_cast<unsigned long long>(r.id), r.name,
                 static_cast<long long>(r.start_ns - origin),
                 static_cast<long long>(r.end_ns < 0 ? -1 : r.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t id, std::uint32_t parent) {
  Recorder& rec = recorder();
  if (rec.enabled()) index_ = rec.open(name, id, parent);
}

Span::~Span() {
  Recorder& rec = recorder();
  if (rec.enabled()) rec.close(index_);
}

}  // namespace perfbench::trace
