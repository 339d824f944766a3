#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  if (std::isinf(samples[hi])) return samples[hi];
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int SpanLog::Begin(const char* name, int64_t op, int parent) {
  const double now = Rel(Clock::now());
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) { spans_[id].end_ms = Rel(Clock::now()); }

int SpanLog::Add(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t op, int parent) {
  spans_.push_back(Span{name, Rel(start), Rel(end), parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string(span.name) == name) {
      out.push_back(span.end_ms - span.start_ms);
    }
  }
  return out;
}

double SpanLog::UnattributedFraction() const {
  std::vector<double> covered(spans_.size(), 0.0);
  double roots = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      roots += span.end_ms - span.start_ms;
    } else if (spans_[span.parent].parent < 0) {
      covered[span.parent] += span.end_ms - span.start_ms;
    }
  }
  double uncovered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    uncovered += (spans_[i].end_ms - spans_[i].start_ms) - covered[i];
  }
  return roots > 0.0 ? uncovered / roots : 0.0;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld}}\n",
                 i == 0 ? "" : ",", span.name, span.start_ms * 1e3,
                 (span.end_ms - span.start_ms) * 1e3, i, span.parent,
                 static_cast<long long>(span.op));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

namespace {

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kSeconds: return "s";
    case Unit::kMillis: return "ms";
    case Unit::kPerSecond: return "1/s";
    case Unit::kCount: return "count";
    case Unit::kFraction: return "frac";
    case Unit::kKiB: return "KiB";
    case Unit::kMiB: return "MiB";
    case Unit::kBytes: return "bytes";
    case Unit::kOmega: return "utility";
    case Unit::kOps: return "ops";
  }
  return "?";
}

}  // namespace

void Report::Set(const std::string& name, double value, Unit unit) {
  for (Entry& entry : metrics_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Attempt(const std::string& failure) {
  ++attempted_;
  if (!failure.empty()) Fail(failure);
}

void Report::Fail(const std::string& failure) {
  if (failed_ < 5) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  ++failed_;
}

void Report::Print() const {
  for (const Entry& entry : metrics_) {
    std::printf("  %-36s %16.6f %s\n", entry.name.c_str(), entry.value,
                UnitName(entry.unit));
  }
  std::printf("  attempted %lld, failed %lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& entry = metrics_[i];
    // Non-finite values (an all-failed tail) are printed as a huge finite
    // number so the line stays valid JSON.
    const double value = std::isfinite(entry.value)
                             ? entry.value
                             : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", entry.name.c_str(), value,
                UnitName(entry.unit));
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
