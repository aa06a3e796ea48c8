#ifndef LSHAP_PERFBENCH_TRACE_H_
#define LSHAP_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each library layer (the library's own
// internal spans are read separately from MetricsRegistry). Each span keeps
// its name, layer, start, end, parent span and request id; the whole set is
// written out once, at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lshap {
namespace perfbench {

struct Span {
  std::string name;
  std::string layer;  // library module the span's time is charged to
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t request = 0;  // spans of one request share an id; 0 = none
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // Seconds since construction, the time base of every span.
  double Now() const;
  double At(Clock::time_point t) const;

  // Records a finished span and returns its index (-1 when disabled).
  int64_t Record(const std::string& name, const std::string& layer,
                 double start, double end, int64_t parent = -1,
                 uint64_t request = 0);
  // Opens a span whose end is filled in by Close(); for spans that have
  // children recorded while they are open.
  int64_t Open(const std::string& name, const std::string& layer,
               int64_t parent = -1, uint64_t request = 0);
  void Close(int64_t index);

  // Per layer: the summed self time of its spans, where a span's self time
  // is its duration minus the part of it that its child spans cover.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const;

  // Writes {"spans": [...], "self_seconds": {...}} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
}  // namespace lshap

#endif  // LSHAP_PERFBENCH_TRACE_H_
