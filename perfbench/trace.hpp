// In-memory span recorder for the traced benchmark run. The harness wraps
// every call it makes into a RoleShare module in a Span; each span keeps
// its name, start, end, the span that caused it and a few integer counts
// recorded at the same boundary. Spans stay in memory and are written
// once, as Chrome trace-event JSON (one complete "X" event per span),
// which Perfetto and chrome://tracing open directly.
//
// Forked orchestration workers inherit the recorder: they clear it, keep
// recording under their own pid, and flush their spans to a side file
// after each window; the harness splices those files into the trace.
// Span ids carry the pid in their high bits, so ids stay unique across
// processes and a worker's window span can name the coordinator's job
// span as its parent.
#pragma once

#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in ns: comparable across forked processes.
inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int pid = 0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_; }
  void enable(std::int64_t base_ns) {
    enabled_ = true;
    base_ns_ = base_ns;
  }
  void disable() { enabled_ = false; }

  /// Drops inherited spans and re-keys ids to this process (forked child).
  void reset_for_child() {
    spans_.clear();
    stack_.clear();
    next_ = 0;
  }

  std::uint64_t current() const { return stack_.empty() ? 0 : stack_.back(); }

  std::size_t open(std::string name, std::uint64_t parent) {
    SpanRecord s;
    s.id = (static_cast<std::uint64_t>(::getpid()) << 24) | ++next_;
    s.parent = parent;
    s.name = std::move(name);
    s.pid = ::getpid();
    s.start_ns = mono_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = mono_ns();
    if (!stack_.empty()) stack_.pop_back();
  }
  /// Adds an already-finished span (timestamps taken elsewhere, e.g. in
  /// the parent before a fork). Returns its index for count().
  std::size_t record(std::string name, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
    SpanRecord s;
    s.id = (static_cast<std::uint64_t>(::getpid()) << 24) | ++next_;
    s.parent = parent;
    s.name = std::move(name);
    s.pid = ::getpid();
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
  }
  void count(std::size_t index, const char* key, double value) {
    spans_[index].counts.emplace_back(key, value);
  }
  /// Writes the spans as trace-event objects, comma-separated, without
  /// the surrounding array (so side files can be spliced in).
  void write_events(std::FILE* out, bool leading_comma) const {
    for (const SpanRecord& s : spans_) {
      if (s.end_ns == 0) continue;  // still open (killed mid-span)
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu",
                   leading_comma ? ",\n" : "", s.name.c_str(), s.pid, s.pid,
                   static_cast<double>(s.start_ns - base_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      for (const auto& [key, value] : s.counts)
        std::fprintf(out, ",\"%s\":%.17g", key.c_str(), value);
      std::fprintf(out, "}}");
      leading_comma = true;
    }
  }

  /// Writes this process's spans to `path` (a side file of bare events).
  bool write_side_file(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    write_events(out, false);
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::int64_t base_ns_ = 0;
  std::uint64_t next_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> stack_;
};

/// RAII span; a no-op unless the tracer is enabled. The parent defaults
/// to the innermost open span of this thread of control (the harness
/// records spans from its own, single-threaded code only).
class Span {
 public:
  explicit Span(std::string name, std::uint64_t parent = ~0ull) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    index_ = t.open(std::move(name), parent == ~0ull ? t.current() : parent);
    active_ = true;
    recorded_ = true;
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (!active_) return;
    Tracer::instance().close(index_);
    active_ = false;
  }
  /// Attaches a count; allowed after end() so a count derived from the
  /// call's output does not inflate the span.
  void count(const char* key, double value) {
    if (recorded_) Tracer::instance().count(index_, key, value);
  }

 private:
  std::size_t index_ = 0;
  bool active_ = false;
  bool recorded_ = false;
};

}  // namespace perfbench
