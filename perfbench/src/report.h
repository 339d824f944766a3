// Shared plumbing of the end-to-end benchmark: arguments, raw-sample
// statistics, the in-memory span log of traced runs, and the result line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the benchmark owns for this run (journal, snapshots, spans).
  std::string scratch;
  // Attribution self-check: busy-wait this long inside the benchmark's own
  // wrapper around one layer call (see README.md).  0 in every scored run.
  int inject_us = 0;
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Busy-polls the clock (no sleep) until `until`.
inline void SpinUntil(Clock::time_point until) {
  while (Clock::now() < until) {
  }
}

// Percentile of raw samples by linear interpolation between order
// statistics (rank p * (n - 1)); +inf samples sort last.  0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// The time of one op that is repeated across the run (a snapshot planned
// once per cycle, a pass of the serve stream): its second-slowest repeat,
// or its only one.  On a shared host the program runs at a contended speed
// that is present in nearly every run and a faster one that comes and goes
// for seconds to minutes, so a median or mean of the repeats moves with the
// share of fast phases; an upper order statistic reads the contended speed,
// and skipping the slowest repeat keeps one repeat hit by a stall from
// deciding it (README.md).
inline double RepeatTime(std::vector<double> repeats) {
  if (repeats.size() < 2) return repeats.empty() ? 0.0 : repeats[0];
  std::nth_element(repeats.begin(), repeats.end() - 2, repeats.end());
  return repeats[repeats.size() - 2];
}

// Set-up is repeated and its median reported as setup_s: at least 3 times,
// then until a second of set-up has been measured (at most 50 times), so a
// cheap set-up is still timed over many repetitions.
inline bool WantAnotherSetup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 1.0 && setup_s.size() < 50);
}

// Deterministic 64-bit mixer for deriving per-snapshot seeds.
uint64_t SplitMix64(uint64_t x);

// One traced interval.  `parent` is an index into the log (-1 for a root)
// and `op` the operation the span belongs to.
struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;
  int64_t op;
};

// Spans kept in memory for the whole run and written once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int64_t op, int parent = -1);
  void End(int id);
  // Records an interval measured elsewhere.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int64_t op, int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every span called `name`, in recording order.
  std::vector<double> Durations(const char* name) const;
  // Sum of root-span time minus the time their direct children cover, over
  // the sum of root-span time: the share no layer span accounts for.
  double UnattributedFraction() const;

  // Chrome trace-event JSON (loads in Perfetto); false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  double Rel(Clock::time_point t) const { return MsBetween(origin_, t); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

enum class Unit { kSeconds, kMillis, kPerSecond, kCount, kFraction, kKiB,
                  kMiB, kBytes, kOmega, kOps };

// The run's outcome: metrics in insertion order plus operation accounting.
class Report {
 public:
  void Set(const std::string& name, double value, Unit unit);

  // One attempted operation; `failure` non-empty marks it failed (the first
  // few reasons are echoed to stderr).
  void Attempt(const std::string& failure = std::string());
  // A failed check that is not an operation of its own (e.g. the end-of-run
  // oracle): counted as one more failure without a new attempt.
  void Fail(const std::string& failure);

  // Human-readable lines followed by the single JSON result line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    Unit unit;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Workload entry points; each fills `report` and returns false only when the
// run could not be carried out at all (the result line is then withheld).
bool RunBatch(const Args& args, Report* report);
bool RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
