// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the thread that drives a solve (the engine
// thread calls the evaluator seam), so the recorder takes no lock. They are
// kept in memory and written once, at exit, as Chrome trace-event JSON
// ("ph":"X" complete events; viewable in Perfetto or chrome://tracing).
// Each span carries its own id, its parent's id and the operation it
// belongs to, so run.py can merge the file with its own spans and derive
// per-layer self time (span duration minus what its children cover, minus
// the `untraced_child_ns` arg for children that were only counted).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Trace {
 public:
  struct Span {
    std::string name;
    std::string cat;  ///< the layer: fsp | core | mtbb | gpubb | gpusim | api
    std::string op;   ///< operation the span serves (shared by its spans)
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t untraced_child_ns = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(std::string name, std::string cat, std::string op) {
    Span s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.op = std::move(op);
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].dur_ns = now_ns() - spans_[index].start_ns;
    stack_.pop_back();
  }

  /// Records an already-timed child of the innermost open span.
  void add_child(const char* name, const char* cat, std::int64_t start_ns,
                 std::int64_t dur_ns) {
    Span s;
    s.name = name;
    s.cat = cat;
    s.op = stack_.empty() ? std::string() : spans_[stack_.back()].op;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.start_ns = start_ns;
    s.dur_ns = dur_ns;
    spans_.push_back(std::move(s));
  }

  /// Child time that was counted but not kept as spans (sampled children).
  void add_untraced_child_ns(std::size_t index, std::int64_t ns) {
    spans_[index].untraced_child_ns += ns;
  }

  /// Writes every span as a Chrome trace-event JSON file.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      fsbb::JsonWriter args;
      args.integer("id", s.id);
      args.integer("parent", s.parent);
      args.str("op", s.op);
      args.integer("untraced_child_ns", s.untraced_child_ns);
      fsbb::JsonWriter e;
      e.str("name", s.name);
      e.str("cat", s.cat);
      e.str("ph", "X");
      e.real("ts", static_cast<double>(s.start_ns) / 1e3);
      e.real("dur", static_cast<double>(s.dur_ns) / 1e3);
      e.integer("pid", 1);
      e.integer("tid", 1);
      e.field("args", args.done());
      out << (i == 0 ? "\n" : ",\n") << e.done();
    }
    out << "\n]}\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for its lifetime when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name, std::string cat, std::string op)
      : trace_(trace.enabled() ? &trace : nullptr) {
    if (trace_ != nullptr) {
      index_ = trace_->open(std::move(name), std::move(cat), std::move(op));
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Index of the open span (only meaningful when tracing is on).
  std::size_t index() const { return index_; }

 private:
  Trace* trace_;
  std::size_t index_ = 0;
};

}  // namespace perfbench
