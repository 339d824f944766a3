#include "stream.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace perfbench {
namespace {

using usep::serve::Mutation;
using usep::serve::MutationKind;
using usep::serve::MutationUtility;

// ArrivalTraceConfig defaults, except that event start times are uniform
// over the day (stationary) rather than advancing with stream position.
constexpr int64_t kGrid = 1000;
constexpr int64_t kDuration = 120;
constexpr int64_t kHorizon = 1440;
constexpr int kMinCapacity = 3;
constexpr int kMaxCapacity = 9;
constexpr int kMaxCapacityGrowth = 3;
constexpr int kMaxInterests = 24;
constexpr double kInterestProb = 0.5;

// Departures grow with the 8th power of the alive count over its warmup
// size: a strong pull back to that size, so the world's size (and with it
// the cost of a mutation) barely moves over a run.
constexpr double kRestoring = 8.0;
constexpr double kJoin = 0.20, kLeave = 0.20, kPost = 0.15, kCancel = 0.15,
                 kCapacity = 0.30;

struct Alive {
  std::vector<uint64_t> users;
  std::vector<uint64_t> events;
  std::vector<int> capacities;  // parallel to `events`
  uint64_t next_user = 1;
  uint64_t next_event = 1;
};

std::vector<MutationUtility> Interests(const std::vector<uint64_t>& others,
                                       usep::Rng& rng) {
  std::vector<uint64_t> pool = others;
  std::vector<MutationUtility> out;
  const int draws = std::min<int>(kMaxInterests, static_cast<int>(pool.size()));
  for (int i = 0; i < draws; ++i) {
    const auto j = static_cast<size_t>(
        rng.UniformInt(i, static_cast<int64_t>(pool.size()) - 1));
    std::swap(pool[static_cast<size_t>(i)], pool[j]);
    if (!rng.Bernoulli(kInterestProb)) continue;
    out.push_back(MutationUtility{pool[static_cast<size_t>(i)],
                                  1.0 - rng.NextDouble()});
  }
  std::sort(out.begin(), out.end(),
            [](const MutationUtility& a, const MutationUtility& b) {
              return a.key < b.key;
            });
  return out;
}

usep::Point RandomPoint(usep::Rng& rng) {
  const int64_t x = rng.UniformInt(0, kGrid - 1);
  return usep::Point{x, rng.UniformInt(0, kGrid - 1)};
}

Mutation Join(Alive* alive, usep::Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kUserJoin;
  m.key = alive->next_user++;
  m.budget = rng.UniformInt(kGrid, 4 * kGrid);
  m.location = RandomPoint(rng);
  m.utilities = Interests(alive->events, rng);
  alive->users.push_back(m.key);
  return m;
}

Mutation Post(Alive* alive, usep::Rng& rng) {
  Mutation m;
  m.kind = MutationKind::kEventPost;
  m.key = alive->next_event++;
  m.interval.start = rng.UniformInt(0, kHorizon - kDuration);
  m.interval.end = m.interval.start + kDuration;
  m.capacity = static_cast<int>(rng.UniformInt(kMinCapacity, kMaxCapacity));
  m.location = RandomPoint(rng);
  m.utilities = Interests(alive->users, rng);
  alive->events.push_back(m.key);
  alive->capacities.push_back(m.capacity);
  return m;
}

size_t Pick(size_t n, usep::Rng& rng) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

}  // namespace

usep::gen::ArrivalTrace StationaryTrace(uint64_t seed, int warmup_users,
                                        int warmup_events, int timed) {
  usep::Rng rng(seed);
  Alive alive;
  usep::gen::ArrivalTrace trace;
  trace.mutations.reserve(static_cast<size_t>(warmup_users + warmup_events +
                                              timed));
  for (int i = 0; i < warmup_events; ++i) {
    trace.mutations.push_back(Post(&alive, rng));
  }
  for (int i = 0; i < warmup_users; ++i) {
    trace.mutations.push_back(Join(&alive, rng));
  }
  for (int i = 0; i < timed; ++i) {
    const double users = static_cast<double>(alive.users.size());
    const double events = static_cast<double>(alive.events.size());
    const double weights[] = {
        kJoin, kLeave * std::pow(users / warmup_users, kRestoring), kPost,
        kCancel * std::pow(events / warmup_events, kRestoring),
        events > 0 ? kCapacity : 0.0};
    double r = rng.NextDouble() *
               (weights[0] + weights[1] + weights[2] + weights[3] + weights[4]);
    int kind = 0;
    while (kind < 4 && r >= weights[kind]) r -= weights[kind++];
    Mutation m;
    switch (kind) {
      case 0:
        m = Join(&alive, rng);
        break;
      case 1: {
        const size_t u = Pick(alive.users.size(), rng);
        m.kind = MutationKind::kUserLeave;
        m.key = alive.users[u];
        alive.users.erase(alive.users.begin() + static_cast<ptrdiff_t>(u));
        break;
      }
      case 2:
        m = Post(&alive, rng);
        break;
      case 3: {
        const size_t v = Pick(alive.events.size(), rng);
        m.kind = MutationKind::kEventCancel;
        m.key = alive.events[v];
        alive.events.erase(alive.events.begin() + static_cast<ptrdiff_t>(v));
        alive.capacities.erase(alive.capacities.begin() +
                               static_cast<ptrdiff_t>(v));
        break;
      }
      default: {
        const size_t v = Pick(alive.events.size(), rng);
        const int current = alive.capacities[v];
        const int delta = static_cast<int>(rng.UniformInt(
            -std::max(1, current / 2), kMaxCapacityGrowth));
        m.kind = MutationKind::kCapacityChange;
        m.key = alive.events[v];
        m.capacity = std::max(1, current + delta);
        alive.capacities[v] = m.capacity;
        break;
      }
    }
    trace.mutations.push_back(std::move(m));
  }
  return trace;
}

}  // namespace perfbench
