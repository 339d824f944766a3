// serve-open: an open loop of Poisson arrivals driving
// serve::StreamingService through Submit/ProcessNext, one thread.
//
// Each mutation is timed from the moment it was DUE (its arrival time in the
// generated schedule) to the end of its ProcessNext, so the wait a slow
// mutation imposes on later ones is counted.  The arrival rate is a constant
// of the workload, never derived from the host.
//
// The stream comes from StationaryTrace (stream.h), so the world hovers
// around its warmup size and per-mutation cost does not drift with the seed.
//
// The same timed stream, with the same arrival schedule, is replayed in as
// many passes as fit in the run, each pass into a freshly opened and warmed
// service; every pass must commit the same Omega sequence.  A mutation's
// latency and service time are RepeatTime over its passes, so a host stall
// that backs the queue up in one pass does not reach the tail, and the
// percentiles are taken over the distinct mutations.
//
// The traced run logs queue-wait and service-time spans in its passes and
// then replays the same trace once in lockstep through a second service and
// a shadow World + Replanner + JournalWriter driven from here, timing each
// layer's public call; after every mutation the shadow's fingerprints must
// equal the service's.  Nothing is traced inside ProcessNext, so the layer
// times are those of the shadow's execution, not nested spans of the
// service's.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/memhook.h"
#include "common/rng.h"
#include "core/validation.h"
#include "gen/arrival_trace.h"
#include "obs/flight_recorder.h"
#include "report.h"
#include "stream.h"
#include "serve/journal.h"
#include "serve/replanner.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using usep::serve::Mutation;
using usep::serve::MutationKind;
using usep::serve::ProcessResult;
using usep::serve::StreamingService;

constexpr double kArrivalsPerSecond = 150.0;
constexpr int kWarmupUsers = 120;
constexpr int kWarmupEvents = 30;
constexpr int kWarmup = kWarmupUsers + kWarmupEvents;
// Timed mutations per pass.  The stream is the run's only input, so it is
// long enough that the seed moves the mean live Omega by a few percent.
constexpr int kTimed = 2000;
constexpr int kSnapshotEvery = 64;
// A run whose backlog never drains is cut here; what is left counts failed.
constexpr double kMaxDrainSeconds = 120.0;

constexpr double kInf = std::numeric_limits<double>::infinity();

usep::serve::ServiceOptions ServiceOptionsFor(
    const usep::gen::ArrivalTrace& trace, const std::string& dir,
    usep::obs::FlightRecorder* flight) {
  usep::serve::ServiceOptions options;
  options.world = trace.world;
  options.journal_path = dir + "/journal";
  options.snapshot_path = dir + "/snapshot";
  options.snapshot_every = kSnapshotEvery;
  options.flight = flight;
  return options;
}

std::string FailureOf(const usep::StatusOr<ProcessResult>& r) {
  if (!r.ok()) return "ProcessNext failed: " + r.status().ToString();
  if (!r->apply_status.ok()) {
    return "mutation rejected: " + r->apply_status.ToString();
  }
  if (r->seq == 0) return "mutation not committed";
  return std::string();
}

// Opens a service in a fresh `dir` and applies the warmup prefix.
std::unique_ptr<StreamingService> OpenWarm(
    const usep::gen::ArrivalTrace& trace, const std::string& dir,
    usep::obs::FlightRecorder* flight) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  usep::StatusOr<std::unique_ptr<StreamingService>> service =
      StreamingService::Open(ServiceOptionsFor(trace, dir, flight));
  if (!service.ok()) {
    std::fprintf(stderr, "perfbench: service open failed: %s\n",
                 service.status().ToString().c_str());
    return nullptr;
  }
  for (int i = 0; i < kWarmup; ++i) {
    if (!(*service)->Submit(trace.mutations[i]).ok()) return nullptr;
    const std::string failure = FailureOf((*service)->ProcessNext());
    if (!failure.empty()) {
      std::fprintf(stderr, "perfbench: warmup: %s\n", failure.c_str());
      return nullptr;
    }
  }
  return std::move(*service);
}

// End-of-run oracle: the live planning is feasible, and recovering from the
// journal + snapshot on disk reproduces the service's state exactly.
std::string CheckFinalState(const StreamingService& service,
                            const usep::gen::ArrivalTrace& trace) {
  if (service.planning() != nullptr) {
    const usep::Status feasible =
        usep::CheckPlanningFeasible(*service.instance(), *service.planning());
    if (!feasible.ok()) {
      return "final planning infeasible: " + feasible.ToString();
    }
  }
  const usep::StatusOr<usep::serve::RecoveredState> recovered =
      usep::serve::RecoverState(trace.world, service.options().journal_path,
                                service.options().snapshot_path);
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  if (recovered->world.Fingerprint() != service.world().Fingerprint() ||
      recovered->state.Fingerprint() != service.plan_state().Fingerprint()) {
    return "recovered state differs from the live service";
  }
  return std::string();
}

// Raw samples of one open-loop pass.  The per-mutation vectors are indexed
// by position in the timed stream; a refused or failed mutation keeps an
// infinite latency and omega NaN.
struct OpenLoop {
  std::vector<double> latency_ms;     // due -> end of ProcessNext
  std::vector<double> queue_wait_ms;  // due -> start of ProcessNext
  std::vector<double> process_ms;     // inside ProcessNext
  std::vector<double> peak_mb;        // memhook peak above the pre-op heap
  std::vector<double> omega;
  std::vector<double> submit_lag_ms;  // lateness of each idle wait
  std::vector<ProcessResult> results;  // committed mutations, in order
  double span_record_ms = 0.0;  // traced pass: time spent logging spans
  size_t alloc_bytes = 0;
  size_t allocs = 0;
  int64_t refused = 0;
  int64_t shed = 0;
};

// Span ids of the pass are `op_base` + position in the timed stream.
void RunOpenLoop(StreamingService* service, const std::vector<Mutation>& timed,
                 uint64_t seed, Report* report, SpanLog* log, int64_t op_base,
                 OpenLoop* out) {
  const size_t n = timed.size();
  out->latency_ms.assign(n, kInf);
  out->queue_wait_ms.assign(n, kInf);
  out->process_ms.assign(n, 0.0);
  out->peak_mb.assign(n, 0.0);
  out->omega.assign(n, std::numeric_limits<double>::quiet_NaN());
  // Poisson arrivals: exponential gaps at the fixed rate.
  usep::Rng rng(SplitMix64(seed ^ 0x6f70656e6c6f6f70ULL));
  std::vector<Clock::time_point> due(n);
  const Clock::time_point origin = Clock::now();
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.NextDouble()) / kArrivalsPerSecond;
    due[i] = origin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t));
  }
  const Clock::time_point cutoff =
      due.back() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kMaxDrainSeconds));

  std::vector<size_t> queued;  // FIFO of submitted trace positions
  size_t head = 0;
  size_t next = 0;
  while (next < n || head < queued.size()) {
    if (head == queued.size() && due[next] > Clock::now()) {
      // Idle: the generator busy-polls until the next arrival (a sleeping
      // core wakes after a variable, host-dependent delay that would land in
      // every latency sample); how late it submits is its own lag, separate
      // from queue wait.
      SpinUntil(due[next]);
      out->submit_lag_ms.push_back(MsBetween(due[next], Clock::now()));
    }
    const Clock::time_point now = Clock::now();
    for (; next < n && due[next] <= now; ++next) {
      if (service->Submit(timed[next]).ok()) {
        queued.push_back(next);
      } else {
        ++out->refused;
        report->Attempt("mutation refused at admission");
      }
    }
    if (head == queued.size()) continue;
    if (Clock::now() > cutoff) {
      for (size_t left = queued.size() - head + (n - next); left > 0; --left) {
        report->Attempt("backlog did not drain");
      }
      break;
    }
    const size_t i = queued[head++];

    usep::memhook::ResetPeak();
    const size_t base = usep::memhook::CurrentBytes();
    const size_t allocs0 = usep::memhook::TotalAllocations();
    const size_t bytes0 = usep::memhook::TotalAllocatedBytes();
    const Clock::time_point t0 = Clock::now();
    const usep::StatusOr<ProcessResult> r = service->ProcessNext();
    const Clock::time_point t1 = Clock::now();
    out->allocs += usep::memhook::TotalAllocations() - allocs0;
    out->alloc_bytes += usep::memhook::TotalAllocatedBytes() - bytes0;
    out->peak_mb[i] = (static_cast<double>(usep::memhook::PeakBytes()) -
                       static_cast<double>(base)) /
                      (1024.0 * 1024.0);

    const std::string failure = FailureOf(r);
    report->Attempt(failure);
    out->queue_wait_ms[i] = MsBetween(due[i], t0);
    out->process_ms[i] = MsBetween(t0, t1);
    if (log != nullptr) {
      const Clock::time_point s0 = Clock::now();
      const int64_t id = op_base + static_cast<int64_t>(i);
      const int root = log->Add("mutation", due[i], t1, id);
      log->Add("service.queue_wait", due[i], t0, id, root);
      log->Add("service.process", t0, t1, id, root);
      out->span_record_ms += MsBetween(s0, Clock::now());
    }
    if (!failure.empty()) continue;
    out->latency_ms[i] = MsBetween(due[i], t1);
    out->omega[i] = r->repair.omega;
    out->results.push_back(*r);
    if (r->shed) ++out->shed;
  }
}

// The traced lockstep replay: a second service and a shadow of its layers.
struct Lockstep {
  std::vector<double> process_ms, overhead_ms;
  std::vector<double> apply_ms, repair_ms, repair_structural_ms,
      repair_capacity_ms, journal_ms, snapshot_ms;
};

bool RunLockstep(const usep::gen::ArrivalTrace& trace, const std::string& dir,
                 usep::obs::FlightRecorder* flight, Report* report,
                 SpanLog* log, Lockstep* out) {
  std::unique_ptr<StreamingService> service =
      OpenWarm(trace, dir + "/service", flight);
  if (service == nullptr) return false;
  const std::string shadow_dir = dir + "/shadow";
  fs::remove_all(shadow_dir);
  fs::create_directories(shadow_dir);
  usep::serve::World world(trace.world);
  usep::serve::PlanState state;
  usep::serve::Replanner replanner(usep::serve::LadderOptions{}, nullptr,
                                   nullptr);
  usep::StatusOr<usep::serve::JournalWriter> journal =
      usep::serve::JournalWriter::Open(shadow_dir + "/journal");
  if (!journal.ok()) return false;

  uint64_t seq = 0;
  int since_snapshot = 0;
  const auto shadow_step = [&](const Mutation& m, int64_t op,
                               const ProcessResult* expect) -> std::string {
    const int root = log->Begin("shadow", op);
    int span = log->Begin("world.apply", op, root);
    const usep::Status applied = world.Apply(m);
    log->End(span);
    if (!applied.ok()) return "shadow apply rejected: " + applied.ToString();
    span = log->Begin("replanner.repair", op, root);
    const usep::serve::PlanState before = state;
    const usep::StatusOr<usep::serve::RepairOutcome> repair =
        replanner.Repair(world, m, &state, /*shed=*/false);
    world.ClearDirty();
    log->End(span);
    if (!repair.ok()) {
      return "shadow repair failed: " + repair.status().ToString();
    }
    span = log->Begin("journal.append", op, root);
    usep::serve::JournalRecord record;
    record.seq = ++seq;
    record.mutation = m;
    record.ops = usep::serve::PlanState::Diff(before, state);
    const usep::Status appended = journal->Append(record);
    log->End(span);
    if (!appended.ok()) return "shadow journal append failed";
    if (++since_snapshot >= kSnapshotEvery) {
      since_snapshot = 0;
      usep::serve::Snapshot snapshot;
      snapshot.seq = seq;
      snapshot.world = world;
      snapshot.plan = state;
      span = log->Begin("snapshot.write", op, root);
      const usep::Status written =
          usep::serve::WriteSnapshotFile(snapshot, shadow_dir + "/snapshot");
      log->End(span);
      if (!written.ok()) return "shadow snapshot write failed";
    }
    log->End(root);
    if (expect != nullptr && expect->repair.omega != repair->omega) {
      return "shadow Omega differs from the service";
    }
    return std::string();
  };
  for (int i = 0; i < kWarmup; ++i) {
    const std::string failure = shadow_step(trace.mutations[i], -1, nullptr);
    if (!failure.empty()) {
      std::fprintf(stderr, "perfbench: shadow warmup: %s\n", failure.c_str());
      return false;
    }
  }

  for (size_t i = kWarmup; i < trace.mutations.size(); ++i) {
    const Mutation& m = trace.mutations[i];
    const int64_t op = static_cast<int64_t>(i - kWarmup);
    if (!service->Submit(m).ok()) {
      report->Attempt("lockstep submit refused");
      continue;
    }
    const int process = log->Begin("lockstep.process", op);
    const usep::StatusOr<ProcessResult> r = service->ProcessNext();
    log->End(process);
    std::string failure = FailureOf(r);
    const size_t shadow_root = log->spans().size();
    if (failure.empty()) failure = shadow_step(m, op, &*r);
    if (failure.empty() &&
        (world.Fingerprint() != service->world().Fingerprint() ||
         state.Fingerprint() != service->plan_state().Fingerprint())) {
      failure = "shadow fingerprint differs from the service";
    }
    if (failure.empty() && service->planning() != nullptr) {
      const usep::Status feasible = usep::CheckPlanningFeasible(
          *service->instance(), *service->planning());
      if (!feasible.ok()) {
        failure = "infeasible planning: " + feasible.ToString();
      }
    }
    report->Attempt(failure);
    if (!failure.empty()) continue;

    const auto& spans = log->spans();
    const double process_ms =
        spans[process].end_ms - spans[process].start_ms;
    double layers_ms = 0.0;
    for (size_t s = shadow_root + 1; s < spans.size(); ++s) {
      const double ms = spans[s].end_ms - spans[s].start_ms;
      layers_ms += ms;
      const std::string name = spans[s].name;
      if (name == "world.apply") out->apply_ms.push_back(ms);
      if (name == "journal.append") out->journal_ms.push_back(ms);
      if (name == "snapshot.write") out->snapshot_ms.push_back(ms);
      if (name == "replanner.repair") {
        out->repair_ms.push_back(ms);
        (m.kind == MutationKind::kCapacityChange ? out->repair_capacity_ms
                                                 : out->repair_structural_ms)
            .push_back(ms);
      }
    }
    out->process_ms.push_back(process_ms);
    out->overhead_ms.push_back(process_ms - layers_ms);
  }
  return true;
}

}  // namespace

bool RunServe(const Args& args, Report* report) {
  if (args.workload != "serve-open") return false;
  usep::obs::FlightRecorder flight;

  // The stream comes from the benchmark's own generator, so it is made
  // once, outside every clock.
  const usep::gen::ArrivalTrace trace = StationaryTrace(
      SplitMix64(args.seed), kWarmupUsers, kWarmupEvents, kTimed);

  // --- Set-up (off the op clock): service open and the warmup prefix.
  // Repeated before the first pass, whose service is the last one opened;
  // each later pass opens its own, timed as one more set-up. --------------
  std::unique_ptr<StreamingService> service;
  std::vector<double> setup_s;
  const std::string dir = args.scratch + "/service";
  const auto open = [&] {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = OpenWarm(trace, dir, &flight);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    return service != nullptr;
  };
  while (WantAnotherSetup(setup_s)) {
    if (!open()) return false;
  }
  const std::vector<Mutation> timed_mutations(
      trace.mutations.begin() + kWarmup, trace.mutations.end());
  const size_t n = timed_mutations.size();

  // --- Timed open-loop passes -----------------------------------------------
  // As many whole passes as the arrival schedule fits into --seconds, a
  // number that depends on nothing but the arguments.
  const int num_passes = std::max(
      1, static_cast<int>(args.seconds * kArrivalsPerSecond / kTimed));
  SpanLog log(Clock::now());
  std::vector<OpenLoop> passes;
  uint64_t journal_bytes = 0;
  while (static_cast<int>(passes.size()) < num_passes) {
    if (!passes.empty() && !open()) return false;
    const uint64_t journal_bytes0 = fs::file_size(dir + "/journal");
    passes.emplace_back();
    OpenLoop& loop = passes.back();
    const auto op_base = static_cast<int64_t>((passes.size() - 1) * n);
    RunOpenLoop(service.get(), timed_mutations, args.seed, report,
                args.trace ? &log : nullptr, op_base, &loop);
    std::string failure = CheckFinalState(*service, trace);
    if (failure.empty() && passes.size() > 1 &&
        std::memcmp(loop.omega.data(), passes.front().omega.data(),
                    n * sizeof(double)) != 0) {
      failure = "a replayed pass committed a different Omega sequence";
    }
    if (!failure.empty()) report->Fail(failure);
    if (passes.size() == 1) {
      journal_bytes = fs::file_size(dir + "/journal") - journal_bytes0;
    }
  }
  service.reset();

  // Per mutation: RepeatTime over the passes of its latency and of its
  // service time.  Mean live Omega and memory come from the first pass.
  const OpenLoop& first = passes.front();
  std::vector<double> latency_ms(n), peak_mb, repeats;
  double committed = 0.0, busy_ms = 0.0, omega_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    repeats.clear();
    for (const OpenLoop& pass : passes) repeats.push_back(pass.latency_ms[i]);
    latency_ms[i] = RepeatTime(repeats);
    if (std::isnan(first.omega[i])) continue;
    repeats.clear();
    for (const OpenLoop& pass : passes) repeats.push_back(pass.process_ms[i]);
    busy_ms += RepeatTime(repeats);
    peak_mb.push_back(first.peak_mb[i]);
    omega_sum += first.omega[i];
    committed += 1.0;
  }

  if (!args.trace) {
    report->Set("setup_s", Median(setup_s), Unit::kSeconds);
    report->Set("ops_per_s", committed / (busy_ms / 1e3), Unit::kPerSecond);
    report->Set("op_ms.p50", Percentile(latency_ms, 0.5), Unit::kMillis);
    report->Set("op_ms.tail", Percentile(latency_ms, 0.99), Unit::kMillis);
    report->Set("omega", committed > 0 ? omega_sum / committed : 0.0,
                Unit::kOmega);
    report->Set("peak_mem_mb", Percentile(peak_mb, 0.9), Unit::kMiB);
    std::printf("serve-open: %zu passes x %zu timed mutations at %.0f/s; "
                "op = one mutation from due time to done, timed as its "
                "second-slowest pass; tail = p99 over the %zu mutations (%zu "
                "beyond it)\n",
                passes.size(), n, kArrivalsPerSecond, n, n / 100);
    return true;
  }

  // Work counts come from the first pass, so they do not depend on the
  // number of passes; times are pooled over every pass.
  const auto pooled = [&](std::vector<double> OpenLoop::*field) {
    std::vector<double> out;
    for (const OpenLoop& pass : passes) {
      for (size_t i = 0; i < n; ++i) {
        if (!std::isnan(pass.omega[i])) out.push_back((pass.*field)[i]);
      }
    }
    return out;
  };
  std::vector<double> submit_lag_ms;
  double span_record_ms = 0.0, raw_busy_ms = 0.0;
  for (const OpenLoop& pass : passes) {
    submit_lag_ms.insert(submit_lag_ms.end(), pass.submit_lag_ms.begin(),
                         pass.submit_lag_ms.end());
    span_record_ms += pass.span_record_ms;
    for (const double ms : pass.process_ms) raw_busy_ms += ms;
  }
  Lockstep lock;
  if (!RunLockstep(trace, args.scratch + "/lockstep", &flight, report, &log,
                   &lock)) {
    return false;
  }

  int64_t rebuilds = 0, reused = 0, evictions = 0;
  int64_t tiers[4] = {0, 0, 0, 0};
  for (const ProcessResult& r : first.results) {
    rebuilds += r.repair.instance_rebuilt;
    reused += r.repair.index_reused;
    evictions += r.repair.evictions;
    ++tiers[static_cast<int>(r.repair.tier)];
  }
  double lock_ms = 0.0, overhead_ms = 0.0;
  for (const double ms : lock.process_ms) lock_ms += ms;
  for (const double ms : lock.overhead_ms) overhead_ms += ms;

  report->Set("op.samples", static_cast<double>(passes.size() * n),
              Unit::kOps);
  report->Set("trace.op_ms.p50", Percentile(latency_ms, 0.5), Unit::kMillis);
  // Share of lockstep ProcessNext time the shadow's layer calls do not
  // account for (the service's own bookkeeping).  A difference of two
  // executions, so it is noisy and holds op = layers + rest by construction.
  report->Set("trace.unattributed_frac",
              lock_ms > 0 ? overhead_ms / lock_ms : 0.0,
              Unit::kFraction);
  // The traced open loop differs from the untraced one only by logging its
  // spans between ProcessNext calls; that time over the busy time.
  report->Set("trace.overhead_frac", span_record_ms / raw_busy_ms,
              Unit::kFraction);
  report->Set("generator.submit_lag_ms.p99",
              Percentile(submit_lag_ms, 0.99), Unit::kMillis);
  const std::vector<double> queue_wait_ms = pooled(&OpenLoop::queue_wait_ms);
  const std::vector<double> pass_process_ms = pooled(&OpenLoop::process_ms);
  report->Set("service.queue_wait_ms.p50", Percentile(queue_wait_ms, 0.5),
              Unit::kMillis);
  report->Set("service.queue_wait_ms.p99",
              Percentile(queue_wait_ms, 0.99), Unit::kMillis);
  report->Set("service.process_ms.p50", Percentile(pass_process_ms, 0.5),
              Unit::kMillis);
  report->Set("service.process_ms.p99", Percentile(pass_process_ms, 0.99),
              Unit::kMillis);
  report->Set("service.overhead_ms.p50", Median(lock.overhead_ms),
              Unit::kMillis);
  report->Set("service.shed", static_cast<double>(first.shed), Unit::kCount);
  report->Set("service.refused", static_cast<double>(first.refused),
              Unit::kCount);
  report->Set("world.apply_ms.p50", Median(lock.apply_ms), Unit::kMillis);
  report->Set("replanner.repair_ms.p50", Percentile(lock.repair_ms, 0.5),
              Unit::kMillis);
  report->Set("replanner.repair_ms.p99", Percentile(lock.repair_ms, 0.99),
              Unit::kMillis);
  report->Set("replanner.repair_ms.structural.p50",
              Percentile(lock.repair_structural_ms, 0.5), Unit::kMillis);
  report->Set("replanner.repair_ms.structural.p99",
              Percentile(lock.repair_structural_ms, 0.99), Unit::kMillis);
  report->Set("replanner.repair_ms.capacity.p50",
              Percentile(lock.repair_capacity_ms, 0.5), Unit::kMillis);
  report->Set("replanner.repair_ms.capacity.p99",
              Percentile(lock.repair_capacity_ms, 0.99), Unit::kMillis);
  report->Set("replanner.rebuilds", static_cast<double>(rebuilds),
              Unit::kCount);
  report->Set("replanner.index_reused", static_cast<double>(reused),
              Unit::kCount);
  report->Set("replanner.evictions", static_cast<double>(evictions),
              Unit::kCount);
  for (int tier = 0; tier < 4; ++tier) {
    const auto repair_tier = static_cast<usep::serve::RepairTier>(tier);
    report->Set(std::string("replanner.tier.") +
                    usep::serve::RepairTierName(repair_tier),
                static_cast<double>(tiers[tier]), Unit::kCount);
  }
  report->Set("journal.append_ms.p50", Percentile(lock.journal_ms, 0.5),
              Unit::kMillis);
  report->Set("journal.append_ms.p99", Percentile(lock.journal_ms, 0.99),
              Unit::kMillis);
  report->Set("journal.bytes_per_mutation",
              committed > 0 ? static_cast<double>(journal_bytes) / committed
                            : 0.0,
              Unit::kBytes);
  report->Set("snapshot.write_ms.p50", Percentile(lock.snapshot_ms, 0.5),
              Unit::kMillis);
  report->Set("snapshot.write_ms.max", Percentile(lock.snapshot_ms, 1.0),
              Unit::kMillis);
  report->Set("snapshot.count", static_cast<double>(lock.snapshot_ms.size()),
              Unit::kCount);
  report->Set("serve.alloc_kb_per_mutation",
              committed > 0 ? first.alloc_bytes / 1024.0 / committed : 0.0,
              Unit::kKiB);
  report->Set("serve.allocs_per_mutation",
              committed > 0 ? static_cast<double>(first.allocs) / committed
                            : 0.0,
              Unit::kCount);
  log.WriteJson(args.scratch + "/spans.json");
  return true;
}

}  // namespace perfbench
