// Shared helpers for the experiment harnesses. Benches run the library's
// registered scenarios, one replication at a time through RunScenarioOnce
// (runner/scenario_registry.h) or as a grid through the sweep engine, so the
// campaign runner, the benches and the tests execute identical scenario
// code; this header re-exports both plus the table-printing glue the bench
// mains use.

#ifndef WLANSIM_BENCH_BENCH_UTIL_H_
#define WLANSIM_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "bench/perf_harness.h"
#include "net/network.h"
#include "rate/arf.h"
#include "rate/minstrel.h"
#include "rate/onoe.h"
#include "rate/sample_rate.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "stats/table.h"

namespace wlansim {

inline void PrintTable(const std::string& title, const Table& table, int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") {
      csv = true;
    }
  }
  std::printf("=== %s ===\n", title.c_str());
  std::fputs(csv ? table.ToCsv().c_str() : table.ToString().c_str(), stdout);
  std::printf("\n");
}

// --- Helpers for the sweep-engine figure benches (f1/f4/f11) -----------------

// CLI of a sweep-driven bench: replications, worker threads, base seed, and
// an optional CSV output path (a prefix when the bench writes several files).
struct SweepBenchArgs {
  uint64_t reps = 1;
  unsigned jobs = 0;  // all hardware threads; results are jobs-independent
  uint64_t seed = 1;
  std::string csv;
  bool ok = true;
};

inline SweepBenchArgs ParseSweepBenchArgs(int argc, char** argv, const char* bench_name) {
  SweepBenchArgs args;
  // Digits-only, like wlansim_run: a typo'd flag value must be a usage
  // error, not a silently different campaign.
  auto parse_u64 = [&args](const char* flag, const char* v, uint64_t* out) {
    if (!ParseBenchU64(flag, v, out)) {
      args.ok = false;
    }
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t jobs = 0;
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      parse_u64("--reps", arg + 7, &args.reps);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      parse_u64("--jobs", arg + 7, &jobs);
      args.jobs = static_cast<unsigned>(jobs);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      parse_u64("--seed", arg + 7, &args.seed);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      args.csv = arg + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--reps=N] [--jobs=N] [--seed=N] [--csv=PATH]\n",
                   bench_name);
      args.ok = false;
      return args;
    }
  }
  if (args.ok && args.reps == 0) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    args.ok = false;
  }
  return args;
}

// Runs one figure sweep into `collected`. With args.csv set, the
// long-format CSV is streamed to args.csv + csv_suffix by
// StreamingSweepCsvWriter, the writer behind wlansim_run --csv. False, after
// complaining, when the CSV cannot be written or the run fails.
inline bool RunBenchSweep(SweepOptions options, const SweepBenchArgs& args,
                          const std::string& csv_suffix, AggregateCollector* collected) {
  options.point_sinks.push_back(collected);
  const std::string path = args.csv.empty() ? std::string() : args.csv + csv_suffix;
  std::ofstream out;
  std::unique_ptr<StreamingSweepCsvWriter> csv;
  if (!path.empty()) {
    out.open(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    csv = std::make_unique<StreamingSweepCsvWriter>(out);
    options.point_sinks.push_back(csv.get());
  }
  try {
    RunSweepCampaign(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  if (!path.empty()) {
    std::printf("wrote %s\n", path.c_str());
  }
  return true;
}

// Mean of one metric at a grid point; 0 when the metric is absent.
inline double MetricMean(const AggregateCollector::Point& point, const std::string& metric) {
  for (const MetricAggregate& a : point.aggregates) {
    if (a.metric == metric) {
      return a.mean;
    }
  }
  return 0.0;
}

// The value a grid point assigned to a swept key ("" when not swept).
inline std::string PointValue(const AggregateCollector::Point& point, const std::string& key) {
  for (const auto& [k, v] : point.info.point) {
    if (k == key) {
      return v;
    }
  }
  return std::string();
}

}  // namespace wlansim

#endif  // WLANSIM_BENCH_BENCH_UTIL_H_
