// The serve-open mutation stream: a stationary arrival/departure process.
#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cstdint>

#include "gen/arrival_trace.h"

namespace perfbench {

// A warmup prefix (`warmup_events` posts, then `warmup_users` joins) followed
// by `timed` mutations whose kinds follow a birth-death process: joins and
// posts arrive at constant rates, while leaves and cancels grow steeply with
// the number of alive users and events, so the world stays near its warmup
// size instead of drifting.  At the warmup size the mix is join .20,
// leave .20, post .15, cancel .15, capacity change .30.
//
// gen::GenerateArrivalTrace draws kinds with constant probabilities, which
// makes the user and event counts random walks: over a few thousand
// mutations the world drifts far from its start (events can die out), so
// per-mutation cost would depend on the seed rather than on the program.
// Payloads (budgets, locations, capacities, sparse interests) follow that
// generator's defaults.  Deterministic in `seed`.
usep::gen::ArrivalTrace StationaryTrace(uint64_t seed, int warmup_users,
                                        int warmup_events, int timed);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
