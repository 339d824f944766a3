// plan-mix: a closed loop of MakePlanner(kind)->Plan() over a fixed set of
// distinct seeded snapshots of three planner kinds, interleaved and cycled
// until the run's time is up.
//
// Untraced runs time only Plan().  Traced runs interleave, per snapshot, the
// real Plan() with the same planner rebuilt from the public pieces it calls
// (CandidateIndex + RatioGreedyPlanner::Augment, or DeDPO +
// AugmentWithRatioGreedy), each piece wrapped in a span; the composition
// must reproduce Plan()'s Omega and work counters bit for bit.
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algo/candidate_index.h"
#include "algo/decomposed.h"
#include "algo/planner_registry.h"
#include "algo/ratio_greedy.h"
#include "common/memhook.h"
#include "core/validation.h"
#include "gen/synthetic_generator.h"
#include "report.h"

namespace perfbench {
namespace {

using usep::Instance;
using usep::PlannerKind;
using usep::PlannerResult;
using usep::PlannerStats;

// One planner kind of the mix, with the shape of its snapshots.
struct Part {
  const char* label;
  PlannerKind kind;
  int events;
  int users;
  double capacity_mean;
  // Distinct snapshots per run; the loop cycles through them.
  int snapshots;
};

// Shapes are fixed here (see README.md for why each was chosen); only the
// seed varies between runs.
constexpr Part kParts[] = {
    {"RatioGreedy 50x2000", PlannerKind::kRatioGreedy, 50, 2000, 10.0, 75},
    {"DeDPO+RG 50x500", PlannerKind::kDeDpoRg, 50, 500, 10.0, 75},
    {"Exact 6x30", PlannerKind::kExact, 6, 30, 2.0, 100},
};

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The run's snapshots with the part each belongs to, interleaved so that
// every part is spread evenly over a cycle.  Snapshot i's seed depends only
// on the workload seed and i; per-snapshot generation times go to `gen_ms`.
bool Generate(uint64_t seed, std::vector<Instance>* out,
              std::vector<const Part*>* parts, std::vector<double>* gen_ms) {
  out->clear();
  parts->clear();
  int total = 0;
  for (const Part& part : kParts) total += part.snapshots;
  int taken[std::size(kParts)] = {};
  for (int i = 0; i < total; ++i) {
    // Next comes the part that is furthest behind its share of the cycle.
    size_t p = 0;
    for (size_t q = 1; q < std::size(kParts); ++q) {
      if ((taken[q] + 0.5) / kParts[q].snapshots <
          (taken[p] + 0.5) / kParts[p].snapshots) {
        p = q;
      }
    }
    ++taken[p];
    const Part& part = kParts[p];
    usep::GeneratorConfig config;
    config.num_events = part.events;
    config.num_users = part.users;
    config.capacity_mean = part.capacity_mean;
    config.seed = SplitMix64(seed * 1000003ULL + static_cast<uint64_t>(i));
    const Clock::time_point t0 = Clock::now();
    usep::StatusOr<Instance> instance = usep::GenerateSyntheticInstance(config);
    gen_ms->push_back(MsBetween(t0, Clock::now()));
    if (!instance.ok()) {
      std::fprintf(stderr, "perfbench: generation failed: %s\n",
                   instance.status().ToString().c_str());
      return false;
    }
    out->push_back(*std::move(instance));
    parts->push_back(&part);
  }
  return true;
}

// The deterministic work a plan did; compared exactly across cycles and
// between the real path and its traced composition.
struct Counters {
  int64_t iterations = 0;
  int64_t heap_pushes = 0;
  int64_t dp_cells = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_invalidations = 0;
  int64_t states = 0;
  int64_t merges = 0;

  static Counters Of(const PlannerStats& s) {
    return Counters{s.iterations, s.heap_pushes,  s.dp_cells,
                    s.cache_hits, s.cache_misses, s.cache_invalidations,
                    s.states,     s.merges};
  }
  bool operator==(const Counters&) const = default;
  void Add(const Counters& o) {
    iterations += o.iterations;
    heap_pushes += o.heap_pushes;
    dp_cells += o.dp_cells;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_invalidations += o.cache_invalidations;
    states += o.states;
    merges += o.merges;
  }
};

// Checks one planner result; empty string when it is correct.
std::string CheckResult(PlannerKind kind, const Instance& instance,
                        const PlannerResult& result) {
  if (result.termination != usep::Termination::kCompleted) {
    return std::string("terminated early: ") +
           usep::TerminationName(result.termination);
  }
  const usep::Status feasible =
      usep::CheckPlanningFeasible(instance, result.planning);
  if (!feasible.ok()) return "infeasible planning: " + feasible.ToString();
  if (kind == PlannerKind::kExact && !result.stats.certified_optimal) {
    return "uncertified Exact plan (" + result.stats.exact_stop + ")";
  }
  return std::string();
}

// Per-snapshot results of the first cycle, which later cycles must repeat.
struct FirstCycle {
  std::vector<double> omega;
  std::vector<Counters> counters;
  std::vector<size_t> allocs;
};

std::string CheckRepeat(FirstCycle* first, size_t i, double omega,
                        const Counters& counters, size_t allocs) {
  if (first->omega.size() == i) {
    first->omega.push_back(omega);
    first->counters.push_back(counters);
    first->allocs.push_back(allocs);
    return std::string();
  }
  if (!BitEqual(first->omega[i], omega)) return "Omega changed on a re-plan";
  if (!(first->counters[i] == counters)) return "work counters changed";
  if (first->allocs[i] != allocs) return "allocation count changed";
  return std::string();
}

// Per-layer work of one traced plan.
struct LayerWork {
  int64_t pairs = 0;
  int64_t rg_iterations = 0;
  int64_t rg_heap_pushes = 0;
  double rg_alloc_kb = 0.0;
  double dedpo_alloc_kb = 0.0;
};

// The traced composition of one plan.  Returns the result of the composed
// path; layer spans go under `root`.
PlannerResult TracedPlan(PlannerKind kind, const Instance& instance,
                         const usep::Planner& planner,
                         const usep::Planner& dedpo, int inject_us,
                         SpanLog* log, int root, int64_t op, LayerWork* work) {
  PlannerResult result{usep::Planning(instance), PlannerStats{},
                       usep::Termination::kCompleted};
  switch (kind) {
    case PlannerKind::kRatioGreedy: {
      int span = log->Begin("index.build", op, root);
      usep::CandidateIndex index(instance);
      if (inject_us > 0) {
        SpinUntil(Clock::now() + std::chrono::microseconds(inject_us));
      }
      log->End(span);
      work->pairs = index.num_pairs();
      std::vector<usep::EventId> all_events(instance.num_events());
      for (usep::EventId v = 0; v < instance.num_events(); ++v) {
        all_events[v] = v;
      }
      const size_t a0 = usep::memhook::TotalAllocatedBytes();
      span = log->Begin("rg.augment", op, root);
      usep::RatioGreedyPlanner::Augment(instance, all_events, &result.planning,
                                        &result.stats, nullptr, &index);
      log->End(span);
      work->rg_alloc_kb =
          (usep::memhook::TotalAllocatedBytes() - a0) / 1024.0;
      work->rg_iterations = result.stats.iterations;
      work->rg_heap_pushes = result.stats.heap_pushes;
      index.FlushStats(&result.stats);
      break;
    }
    case PlannerKind::kDeDpoRg: {
      const size_t a0 = usep::memhook::TotalAllocatedBytes();
      int span = log->Begin("dedpo.first_step", op, root);
      result = dedpo.Plan(instance);
      log->End(span);
      work->dedpo_alloc_kb =
          (usep::memhook::TotalAllocatedBytes() - a0) / 1024.0;
      const PlannerStats before = result.stats;
      const size_t a1 = usep::memhook::TotalAllocatedBytes();
      span = log->Begin("decomposed.augment", op, root);
      usep::AugmentWithRatioGreedy(instance, &result.planning, &result.stats);
      log->End(span);
      work->rg_alloc_kb =
          (usep::memhook::TotalAllocatedBytes() - a1) / 1024.0;
      work->rg_iterations = result.stats.iterations - before.iterations;
      work->rg_heap_pushes = result.stats.heap_pushes - before.heap_pushes;
      break;
    }
    default: {
      const int span = log->Begin("exact.plan", op, root);
      result = planner.Plan(instance);
      log->End(span);
      break;
    }
  }
  return result;
}

// Duration (ms) of span `root` and of its children named `a` and `b`.
struct OpDurations {
  double op = 0.0, a = 0.0, b = 0.0;
};
OpDurations DurationsUnder(const SpanLog& log, int root, const char* a,
                           const char* b) {
  const std::vector<Span>& spans = log.spans();
  OpDurations out;
  out.op = spans[root].end_ms - spans[root].start_ms;
  for (size_t s = static_cast<size_t>(root) + 1; s < spans.size(); ++s) {
    if (spans[s].parent != root) continue;
    const double ms = spans[s].end_ms - spans[s].start_ms;
    if (std::strcmp(spans[s].name, a) == 0) out.a += ms;
    if (std::strcmp(spans[s].name, b) == 0) out.b += ms;
  }
  return out;
}

}  // namespace

bool RunBatch(const Args& args, Report* report) {
  if (args.workload != "plan-mix") return false;
  std::vector<std::unique_ptr<usep::Planner>> planners;  // one per part
  for (const Part& part : kParts) {
    planners.push_back(usep::MakePlanner(part.kind));
  }
  const std::unique_ptr<usep::Planner> dedpo =
      usep::MakePlanner(PlannerKind::kDeDpo);

  // --- Set-up (off the op clock) ------------------------------------------
  std::vector<Instance> snapshots;
  std::vector<const Part*> parts;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  while (WantAnotherSetup(setup_s)) {
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> fresh;
    if (!Generate(args.seed, &fresh, &parts, &gen_ms)) return false;
    snapshots = std::move(fresh);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const size_t k = snapshots.size();

  // --- Timed loop -----------------------------------------------------------
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  SpanLog log(start);
  FirstCycle first;
  // Raw op times per snapshot, one entry per cycle: the timed Plan() in an
  // untraced run, the traced composition in a traced one (`ref` then holds
  // the interleaved untraced Plan()).
  std::vector<std::vector<double>> op_ms(k), ref_ms(k);
  int64_t ops = 0;
  std::vector<double> peak_mb;  // per snapshot, first cycle
  double omega_sum = 0.0;
  Counters cycle_counters;
  size_t cycle_allocs = 0;
  LayerWork cycle_work;
  int64_t exact_states = 0;      // over every traced Exact plan
  int64_t exact_expansions = 0;  // over the first cycle
  std::vector<double> rg_alloc, dedpo_alloc;
  // Attribution self-check: per RatioGreedy op, the plain composition and a
  // twin with the busy-wait injected run back to back (order alternating),
  // and the paired span differences are kept.
  std::vector<OpDurations> plain_ms, delta_ms;
  for (int64_t op = 0;; ++op) {
    const size_t i = static_cast<size_t>(op) % k;
    if (static_cast<size_t>(op) >= k && Clock::now() >= deadline) break;
    const Instance& instance = snapshots[i];
    const PlannerKind kind = parts[i]->kind;
    const usep::Planner& planner = *planners[parts[i] - kParts];

    usep::memhook::ResetPeak();
    const size_t base = usep::memhook::CurrentBytes();
    const size_t allocs0 = usep::memhook::TotalAllocations();
    const Clock::time_point t0 = Clock::now();
    const PlannerResult result = planner.Plan(instance);
    const Clock::time_point t1 = Clock::now();
    const size_t allocs = usep::memhook::TotalAllocations() - allocs0;
    const double peak = static_cast<double>(usep::memhook::PeakBytes()) -
                        static_cast<double>(base);
    (args.trace ? ref_ms : op_ms)[i].push_back(MsBetween(t0, t1));
    ++ops;

    const double omega = result.planning.total_utility();
    const Counters counters = Counters::Of(result.stats);
    std::string failure = CheckResult(kind, instance, result);
    if (failure.empty()) {
      failure = CheckRepeat(&first, i, omega, counters, allocs);
    }
    if (static_cast<size_t>(op) < k) {
      peak_mb.push_back(peak / (1024.0 * 1024.0));
      omega_sum += omega;
      cycle_counters.Add(counters);
      cycle_allocs += allocs;
      if (kind == PlannerKind::kExact) exact_expansions += counters.iterations;
    }

    if (args.trace && failure.empty()) {
      LayerWork work;
      const auto composed_run = [&](int inject_us, OpDurations* d) {
        const int root = log.Begin(inject_us > 0 ? "op.injected" : "op", op);
        PlannerResult r = TracedPlan(kind, instance, planner, *dedpo,
                                     inject_us, &log, root, op, &work);
        log.End(root);
        *d = DurationsUnder(log, root, "index.build", "rg.augment");
        return r;
      };
      const bool inject =
          args.inject_us > 0 && kind == PlannerKind::kRatioGreedy;
      OpDurations plain, injected;
      if (inject && op % 2 == 1) composed_run(args.inject_us, &injected);
      const PlannerResult composed = composed_run(0, &plain);
      op_ms[i].push_back(plain.op);
      if (inject) {
        if (op % 2 == 0) composed_run(args.inject_us, &injected);
        plain_ms.push_back(plain);
        delta_ms.push_back(OpDurations{injected.op - plain.op,
                                       injected.a - plain.a,
                                       injected.b - plain.b});
      }
      if (kind == PlannerKind::kExact) exact_states += counters.states;
      if (static_cast<size_t>(op) < k) {
        cycle_work.pairs += work.pairs;
        cycle_work.rg_iterations += work.rg_iterations;
        cycle_work.rg_heap_pushes += work.rg_heap_pushes;
        if (kind == PlannerKind::kRatioGreedy) {
          rg_alloc.push_back(work.rg_alloc_kb);
        } else if (kind == PlannerKind::kDeDpoRg) {
          dedpo_alloc.push_back(work.dedpo_alloc_kb);
        }
      }
      failure = CheckResult(kind, instance, composed);
      if (failure.empty() &&
          !BitEqual(composed.planning.total_utility(), omega)) {
        failure = "traced composition Omega differs from Plan()";
      }
      if (failure.empty() && !(Counters::Of(composed.stats) == counters)) {
        failure = "traced composition work counters differ from Plan()";
      }
    }
    report->Attempt(failure.empty() ? std::string()
                                    : std::string(parts[i]->label) +
                                          " snapshot " + std::to_string(i) +
                                          ": " + failure);
  }

  // Each snapshot's time is RepeatTime over its cycles; the percentiles are
  // then taken over the k distinct snapshots.
  std::vector<double> typical;
  double typical_sum = 0.0, ref_sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    typical.push_back(RepeatTime(op_ms[i]));
    typical_sum += typical.back();
    if (args.trace) ref_sum += RepeatTime(ref_ms[i]);
  }
  if (!args.trace) {
    report->Set("setup_s", Median(setup_s), Unit::kSeconds);
    report->Set("ops_per_s", static_cast<double>(k) / (typical_sum / 1e3),
                Unit::kPerSecond);
    report->Set("op_ms.p50", Percentile(typical, 0.5), Unit::kMillis);
    report->Set("op_ms.tail", Percentile(typical, 0.9), Unit::kMillis);
    report->Set("omega", omega_sum, Unit::kOmega);
    report->Set("peak_mem_mb", Percentile(peak_mb, 0.9), Unit::kMiB);
    std::printf("plan-mix: %lld plans = %zu distinct snapshots (",
                static_cast<long long>(ops), k);
    for (const Part& part : kParts) {
      std::printf("%s%d %s", &part == kParts ? "" : ", ", part.snapshots,
                  part.label);
    }
    std::printf(") x %.1f cycles; op = one Plan(), timed as its "
                "second-slowest cycle; tail = p90 over the %zu snapshots (%zu "
                "beyond it)\n",
                static_cast<double>(ops) / static_cast<double>(k), k, k / 10);
    return true;
  }

  report->Set("op.samples", static_cast<double>(ops), Unit::kOps);
  report->Set("gen.snapshot_ms", Median(gen_ms), Unit::kMillis);
  report->Set("trace.op_ms.p50", Percentile(typical, 0.5), Unit::kMillis);
  report->Set("trace.unattributed_frac", log.UnattributedFraction(),
              Unit::kFraction);
  report->Set("trace.overhead_frac", typical_sum / ref_sum - 1.0,
              Unit::kFraction);
  report->Set("plan.allocs_per_op",
              static_cast<double>(cycle_allocs) / static_cast<double>(k),
              Unit::kCount);
  report->Set("index.build_ms", Median(log.Durations("index.build")),
              Unit::kMillis);
  report->Set("index.pairs", static_cast<double>(cycle_work.pairs),
              Unit::kCount);
  report->Set("rg.augment_ms", Median(log.Durations("rg.augment")),
              Unit::kMillis);
  report->Set("rg.alloc_kb", Median(rg_alloc), Unit::kKiB);
  report->Set("dedpo.first_step_ms", Median(log.Durations("dedpo.first_step")),
              Unit::kMillis);
  report->Set("decomposed.augment_ms",
              Median(log.Durations("decomposed.augment")), Unit::kMillis);
  report->Set("dedpo.alloc_kb", Median(dedpo_alloc), Unit::kKiB);
  double exact_ms = 0.0;
  for (const double ms : log.Durations("exact.plan")) exact_ms += ms;
  report->Set("exact.states_per_s",
              static_cast<double>(exact_states) / (exact_ms / 1e3),
              Unit::kPerSecond);
  report->Set("exact.states", static_cast<double>(cycle_counters.states),
              Unit::kCount);
  report->Set("exact.merges", static_cast<double>(cycle_counters.merges),
              Unit::kCount);
  // Iterations count Exact's expansions and the RatioGreedy steps of the
  // other parts; only Exact's are reported here.
  report->Set("exact.expansions", static_cast<double>(exact_expansions),
              Unit::kCount);
  report->Set("rg.iterations", static_cast<double>(cycle_work.rg_iterations),
              Unit::kCount);
  report->Set("rg.heap_pushes", static_cast<double>(cycle_work.rg_heap_pushes),
              Unit::kCount);
  report->Set("dp.cells", static_cast<double>(cycle_counters.dp_cells),
              Unit::kCount);
  report->Set("index.cache_hits",
              static_cast<double>(cycle_counters.cache_hits), Unit::kCount);
  report->Set("index.cache_misses",
              static_cast<double>(cycle_counters.cache_misses), Unit::kCount);
  const double probes = static_cast<double>(cycle_counters.cache_hits +
                                            cycle_counters.cache_misses);
  report->Set("index.hit_ratio",
              probes > 0 ? cycle_counters.cache_hits / probes : 0.0,
              Unit::kFraction);
  if (args.inject_us > 0) {
    const struct {
      const char* name;
      double OpDurations::*field;
    } checked[] = {{"op_ms", &OpDurations::op},
                   {"index.build_ms", &OpDurations::a},
                   {"rg.augment_ms", &OpDurations::b}};
    for (const auto& c : checked) {
      std::vector<double> plain, delta;
      for (const OpDurations& d : plain_ms) plain.push_back(d.*c.field);
      for (const OpDurations& d : delta_ms) delta.push_back(d.*c.field);
      const std::string prefix = std::string("selfcheck.") + c.name;
      report->Set(prefix + ".delta", Median(delta), Unit::kMillis);
      report->Set(prefix + ".plain", Median(plain), Unit::kMillis);
    }
  }
  log.WriteJson(args.scratch + "/spans.json");
  return true;
}

}  // namespace perfbench
