// A small in-tree perf harness for the engine microbenchmarks, replacing the
// google-benchmark dependency on the hot-path benches. Each benchmark is a
// callable that performs one timed batch of work and returns the number of
// items it processed; the harness repeats it, folds the per-repetition
// samples with the campaign engine's own AggregateScalarSamples, and emits
// the same aggregate statistics (mean / stddev / CI / P50 / P95) and
// long-format CSV the engine produces — so the repo measures its own
// speedups with its own reporting machinery.

#ifndef WLANSIM_BENCH_PERF_HARNESS_H_
#define WLANSIM_BENCH_PERF_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/result_sink.h"
#include "stats/table.h"

namespace wlansim {

// Digits-only uint64 flag parsing shared by the bench CLIs (sweep and perf
// harnesses): a typo'd value must be a usage error, not a silently
// different run. Prints the error itself; returns false on failure.
inline bool ParseBenchU64(const char* flag, const char* v, uint64_t* out) {
  if (*v == '\0' || std::strspn(v, "0123456789") != std::strlen(v)) {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n", flag, v);
    return false;
  }
  *out = std::strtoull(v, nullptr, 10);
  return true;
}

// CLI of a perf-harness bench: repetitions per benchmark, an optional
// warmup toggle, a substring filter, and an optional CSV output path.
struct PerfArgs {
  uint64_t reps = 5;
  std::string filter;
  std::string csv;
  bool warmup = true;
  bool ok = true;
};

// `default_reps` seeds --reps for benches whose single repetition is already
// expensive (whole-simulation benches like t1); the flag still overrides.
inline PerfArgs ParsePerfArgs(int argc, char** argv, const char* bench_name,
                              uint64_t default_reps = 5) {
  PerfArgs args;
  args.reps = default_reps;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      if (!ParseBenchU64("--reps", arg + 7, &args.reps)) {
        args.ok = false;
        return args;
      }
    } else if (std::strncmp(arg, "--filter=", 9) == 0) {
      args.filter = arg + 9;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      args.csv = arg + 6;
    } else if (std::strcmp(arg, "--no-warmup") == 0) {
      args.warmup = false;
    } else {
      std::fprintf(stderr, "usage: %s [--reps=N] [--filter=SUBSTR] [--csv=PATH] [--no-warmup]\n",
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

class PerfHarness {
 public:
  PerfHarness(std::string title, PerfArgs args) : title_(std::move(title)), args_(args) {}

  // Runs one benchmark: `fn` performs a timed batch and returns the number
  // of items it processed (events popped, packets built, RNG draws, ...).
  // Skipped when the name does not contain the --filter substring.
  void Bench(const std::string& name, const std::function<uint64_t()>& fn) {
    if (!args_.filter.empty() && name.find(args_.filter) == std::string::npos) {
      return;
    }
    if (args_.warmup) {
      (void)fn();  // touch caches and lazy allocations outside the timing
    }
    // Per-metric samples in repetition order; a metric a repetition does
    // not report (no items) aggregates over the repetitions that do.
    std::map<std::string, std::vector<double>> samples;
    for (uint64_t rep = 0; rep < args_.reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const uint64_t items = fn();
      const auto end = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(end - start).count();
      samples["wall_ms"].push_back(secs * 1e3);
      if (items > 0) {
        samples["ns_per_item"].push_back(secs * 1e9 / static_cast<double>(items));
        samples["items_per_sec"].push_back(static_cast<double>(items) / secs);
      }
    }
    SweepRow row;
    row.param_values = {name};
    for (const auto& [metric, values] : samples) {
      row.aggregates.push_back(AggregateScalarSamples(metric, values));
    }
    rows_.push_back(std::move(row));
  }

  // Prints the summary table and writes the long-format CSV; returns the
  // process exit code.
  int Finish() {
    std::printf("=== %s (%llu rep(s)/bench) ===\n", title_.c_str(),
                static_cast<unsigned long long>(args_.reps));
    Table table({"bench", "items/s", "ns/item", "p50_ns", "p95_ns", "wall_ms"});
    for (const SweepRow& row : rows_) {
      const MetricAggregate* per_item = nullptr;
      const MetricAggregate* per_sec = nullptr;
      const MetricAggregate* wall = nullptr;
      for (const MetricAggregate& a : row.aggregates) {
        if (a.metric == "ns_per_item") {
          per_item = &a;
        } else if (a.metric == "items_per_sec") {
          per_sec = &a;
        } else if (a.metric == "wall_ms") {
          wall = &a;
        }
      }
      table.AddRow({row.param_values[0],
                    per_sec != nullptr ? Table::Num(per_sec->mean, 0) : "-",
                    per_item != nullptr ? Table::Num(per_item->mean, 1) : "-",
                    per_item != nullptr ? Table::Num(per_item->p50, 1) : "-",
                    per_item != nullptr ? Table::Num(per_item->p95, 1) : "-",
                    wall != nullptr ? Table::Num(wall->mean, 2) : "-"});
    }
    std::fputs(table.ToString().c_str(), stdout);
    if (!args_.csv.empty()) {
      std::ofstream out(args_.csv, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args_.csv.c_str());
        return 1;
      }
      out << SweepLongCsv({"bench"}, rows_);
      std::printf("wrote %s\n", args_.csv.c_str());
    }
    return 0;
  }

 private:
  std::string title_;
  PerfArgs args_;
  std::vector<SweepRow> rows_;
};

}  // namespace wlansim

#endif  // WLANSIM_BENCH_PERF_HARNESS_H_
