#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now_us(), -1.0, parent, run_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (std::find(open_.begin(), open_.end(), id) == open_.end()) {
    throw std::logic_error("SpanRecorder::end: span is not open");
  }
  // Spans left open inside `id` (an exception skipped their end) close with it.
  const double t = now_us();
  while (true) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end_us = t;
    if (top == id) return;
  }
}

int SpanRecorder::add(std::string name, double start_us, double end_us, int parent) {
  spans_.push_back({std::move(name), start_us, end_us, parent, run_});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::duration_ms(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_us < s.start_us ? 0.0 : (s.end_us - s.start_us) / 1000.0;
}

double SpanRecorder::self_ms(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  if (s.end_us < s.start_us) return 0.0;
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent != id || c.end_us < c.start_us) continue;
    const double a = std::max(c.start_us, s.start_us);
    const double b = std::min(c.end_us, s.end_us);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return std::max(0.0, (s.end_us - s.start_us - covered) / 1000.0);
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].end_us >= spans_[i].start_us) {
      out.push_back(duration_ms(static_cast<int>(i)));
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::self_ms_by_name() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self_ms(static_cast<int>(i));
  }
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  os << std::setprecision(15);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    // Span names are benchmark-chosen identifiers; no escaping needed.
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
       << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
