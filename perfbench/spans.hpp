#pragma once

/// \file spans.hpp
/// \brief In-memory span log for the traced benchmark run.
///
/// The benchmark records one span around each call it makes into a
/// library module (scenario generation, LC points, a solve, a data-plane
/// run, a service request, a wire decode, a network parse).  Spans stay in
/// memory and are written out once, when the run ends, so recording costs
/// two clock reads and a vector append.  The log is single-threaded: only
/// the benchmark's own thread records, also for service requests (the reply
/// callback stores its time and the client thread files the span).

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;     ///< enclosing span, -1 at the top
  int op = -1;         ///< op index within its pass, -1 outside ops
  std::string name;    ///< "<module>.<public function>"
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  std::int64_t now_ns() const { return to_ns(Clock::now()); }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name, int op = -1);
  /// Closes span `id` (must be the innermost open span).
  void close(int id);
  /// Files an already-finished span under the innermost open one.
  int add(std::string name, int op, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op, which is how untraced runs
/// share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int op = -1)
      : log_(log), id_(log ? log->open(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
