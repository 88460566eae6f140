// M2 — Simulation-engine microbenchmarks on the in-tree perf harness: event
// queue throughput (schedule/pop, cancellation, MAC-style timer churn),
// packet header operations, frame codec round-trips, RNG draw rate, and
// end-to-end simulated-seconds-per-wall-second for a canonical saturated
// BSS. The long-format CSV (--csv=) is what the CI perf-smoke job uploads,
// and the before/after table in the README came from this binary.

#include <vector>

#include "bench/bench_util.h"
#include "bench/perf_harness.h"
#include "core/event_queue.h"
#include "mac/frames.h"

namespace wlansim {
namespace {

// One fill-and-drain cycle of `n` events at uniformly random timestamps,
// repeated until ~`target_items` events have been processed.
uint64_t ScheduleAndPop(int64_t n, uint64_t target_items) {
  Rng rng(1);
  uint64_t executed = 0;
  while (executed < target_items) {
    EventQueue q;
    uint64_t batch = 0;
    for (int64_t i = 0; i < n; ++i) {
      q.Schedule(Time::Nanos(rng.UniformInt(0, 1'000'000)), [&batch] { ++batch; });
    }
    while (!q.IsEmpty()) {
      q.PopNext(nullptr)();
    }
    executed += batch;
  }
  return executed;
}

// Schedule `n`, cancel every other one, drain: the tombstone path.
uint64_t CancelHalf(uint64_t rounds) {
  Rng rng(2);
  constexpr int kN = 10000;
  uint64_t processed = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(kN);
    for (int i = 0; i < kN; ++i) {
      ids.push_back(q.Schedule(Time::Nanos(rng.UniformInt(0, 1'000'000)), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      ids[i].Cancel();
    }
    while (!q.IsEmpty()) {
      q.PopNext(nullptr)();
    }
    processed += kN;
  }
  return processed;
}

// The MAC hot pattern: a block of stations each keeping one pending timeout
// that is cancelled and rescheduled on every "frame exchange". Exercises
// cancel + generation reuse rather than straight drains.
uint64_t TimerChurn(uint64_t exchanges) {
  constexpr size_t kStations = 64;
  Rng rng(3);
  EventQueue q;
  std::vector<EventId> timeout(kStations);
  Time now;
  for (uint64_t i = 0; i < exchanges; ++i) {
    const size_t sta = static_cast<size_t>(rng.UniformInt(0, kStations - 1));
    timeout[sta].Cancel();
    timeout[sta] = q.Schedule(now + Time::Nanos(rng.UniformInt(1, 100'000)), [] {});
    // Run the queue forward a little so executed and cancelled slots recycle.
    if ((i & 15u) == 0 && !q.IsEmpty()) {
      Time at;
      q.PopNext(&at)();
      now = at;
    }
  }
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  return exchanges;
}

uint64_t PacketHeaderCycle(uint64_t rounds) {
  const std::vector<uint8_t> header(24, 0xAA);
  uint64_t total_size = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    Packet p(1500);
    p.AddHeader(header);
    p.RemoveHeader(24);
    total_size += p.size();
  }
  // Defeats dead-code elimination; total_size is data-dependent on the work.
  return total_size > 0 ? rounds : 0;
}

uint64_t FrameCodecRoundTrip(uint64_t rounds) {
  MacHeader h;
  h.type = FrameType::kData;
  h.addr1 = MacAddress::FromId(1);
  h.addr2 = MacAddress::FromId(2);
  h.addr3 = MacAddress::FromId(3);
  const std::vector<uint8_t> body(1500, 0x77);
  uint64_t parsed_ok = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    Packet mpdu = BuildMpdu(h, body);
    auto parsed = ParseMpdu(mpdu);
    parsed_ok += parsed.has_value() ? 1 : 0;
  }
  return parsed_ok == rounds ? rounds : 0;
}

uint64_t RngDraws(uint64_t draws) {
  Rng rng(4);
  uint64_t acc = 0;
  for (uint64_t i = 0; i < draws; ++i) {
    acc ^= rng.NextU64();
  }
  return acc != 0 ? draws : draws + 1;
}

// End-to-end engine speed: items are measured simulated microseconds of a
// 5-station saturated BSS (after its 1 s warm-up), so items/s reads as
// simulated-us per wall-second.
uint64_t SaturatedBss(uint64_t sim_seconds) {
  const ReplicationResult r = RunScenarioOnce(
      "saturation", {{"n_stas", "5"}, {"sim_time_s", std::to_string(sim_seconds)}}, 1);
  return r.metrics.at("goodput_mbps") > 0 ? sim_seconds * 1'000'000 : 0;
}

int Run(int argc, char** argv) {
  const PerfArgs args = ParsePerfArgs(argc, argv, "bench_m2_engine");
  if (!args.ok) {
    return 1;
  }
  PerfHarness harness("M2: simulation-engine microbenchmarks", args);
  harness.Bench("event_schedule_pop_1k", [] { return ScheduleAndPop(1000, 400'000); });
  harness.Bench("event_schedule_pop_100k", [] { return ScheduleAndPop(100'000, 400'000); });
  harness.Bench("event_cancel_half", [] { return CancelHalf(40); });
  harness.Bench("event_timer_churn", [] { return TimerChurn(400'000); });
  harness.Bench("packet_header_cycle", [] { return PacketHeaderCycle(200'000); });
  harness.Bench("frame_codec_roundtrip", [] { return FrameCodecRoundTrip(100'000); });
  harness.Bench("rng_draws", [] { return RngDraws(10'000'000); });
  harness.Bench("saturated_bss_5sta", [] { return SaturatedBss(2); });
  return harness.Finish();
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
