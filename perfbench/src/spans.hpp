// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark's own code around calls into the program's public
// functions (the program itself is not instrumented), kept in memory, and
// written out as Chrome-trace JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = -1.0;  ///< < start_us while the span is open
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  int run = 0;           ///< which workload run the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  int begin(std::string name);
  /// Closes span `id` and any span still open inside it.
  void end(int id);
  /// Adds an already-timed span (tests build span trees with it).
  int add(std::string name, double start_us, double end_us, int parent);

  void set_run(int run) { run_ = run; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_ms(int id) const;
  /// The span's duration minus the part of its interval its children cover.
  [[nodiscard]] double self_ms(int id) const;
  /// Durations (ms) of every closed span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Self time summed per span name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  void write_chrome_trace(std::ostream& os) const;

  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(rec), id_(rec.begin(std::move(name))) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

 private:
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

}  // namespace perfbench
