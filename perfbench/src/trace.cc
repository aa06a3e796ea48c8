#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace lshap {
namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::Now() const { return At(Clock::now()); }

double Tracer::At(Clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

int64_t Tracer::Record(const std::string& name, const std::string& layer,
                       double start, double end, int64_t parent,
                       uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const std::string& name, const std::string& layer,
                     int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  const double now = Now();
  return Record(name, layer, now, now, parent, request);
}

void Tracer::Close(int64_t index) {
  if (index < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_start = 0.0, cur_end = -1.0;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfSeconds();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %lld, "
                 "\"request\": %llu}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.layer.c_str(),
                 s.start, s.end, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n], \"self_seconds\": {");
  bool first = true;
  for (const auto& [layer, secs] : self) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(), secs);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace lshap
