// M7 — query-engine column analytics: cold vs warm extent-cache fetches,
// on the in-tree perf harness.
//
// A synthetic WLSR campaign file (the M5 "counters" record mix, whose
// delta-varint integer columns make decoding genuinely expensive) is
// registered in a query catalog at 10^4, 10^5 and 10^6 rows. The core pair
// of benches fetches three scalar columns through the ExtentCache and folds
// them: *cold* clears the cache first (every fetch decodes the extents),
// *warm* hits the decoded columns left by the previous pass. The fold sums
// must match bitwise between the two — the cache can change when work
// happens, never what is computed (invariant #8).
//
// A second, informational pair runs the full `AGGREGATE` query cold vs
// warm; its exact-quantile sort dominates both sides, so it is reported
// for scale but not gated.
//
// With --check the bench hard-fails unless, at 10^6 rows, the warm column
// fetch is >= 2x faster than the cold one and the fold sums agree.

#include <stdlib.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/perf_harness.h"
#include "core/random.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "stats/table.h"

namespace wlansim {
namespace {

constexpr int kCounters = 20;
const char* const kFetchColumns[] = {"count_0", "count_7", "value_0"};

// The M5 "counters" record mix: twenty near-constant integer counters (the
// delta-varint codec's home turf, so decoding them back is real work) plus
// one full-entropy value column.
void FillRecord(ReplicationRecord& r, uint64_t rep, Rng& rng) {
  r.replication = rep;
  r.metrics["value_0"] = rng.NextDouble();
  for (int c = 0; c < kCounters; ++c) {
    const double jitter = std::floor(rng.NextDouble() * 31.0) - 15.0;
    r.metrics["count_" + std::to_string(c)] = 1.0e7 + 100.0 * c + jitter;
  }
}

// Writes a campaign WLSR file of `rows` records. Scenario names carry the
// row count so each size forms its own catalog collection.
bool WriteCampaignFile(const std::string& path, const std::string& scenario, uint64_t rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  GroupEncoder encoder(0, 1, {}, rows);
  Rng rng(42);
  ReplicationRecord record;
  for (uint64_t rep = 0; rep < rows; ++rep) {
    FillRecord(record, rep, rng);
    encoder.Add(record);
  }
  BinaryResultsWriter writer(out);
  writer.BeginSweep({scenario, 1, rows, {}, 1, 1});
  writer.OnPointDone({}, {}, encoder.Finish());
  writer.EndSweep();
  return static_cast<bool>(out);
}

// A private scratch directory from mkdtemp, removed with its contents on
// scope exit, so concurrent runs never write the same file.
class ScratchDir {
 public:
  ScratchDir() {
    std::string templ = (std::filesystem::temp_directory_path() / "bench_m7_XXXXXX").string();
    if (mkdtemp(templ.data()) != nullptr) {
      path_ = templ;
    }
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  // Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

size_t ColumnIndex(const BinaryGroup& group, const char* name) {
  for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
    if (group.header.scalar_names[c] == name) {
      return c;
    }
  }
  std::fprintf(stderr, "column %s missing from the generated file\n", name);
  std::exit(1);
}

// Fetches the three bench columns through the cache and folds them to one
// sum — the arithmetic a served aggregate would run after the fetch.
double FetchAndFold(ExtentCache& cache, const BinaryGroup& group) {
  double sum = 0.0;
  for (const char* name : kFetchColumns) {
    const ColumnPtr values = cache.GetScalarColumn(group, ColumnIndex(group, name));
    for (double v : *values) {
      sum += v;
    }
  }
  return sum;
}

struct TimedRun {
  double secs = 0.0;
  double fold_sum = 0.0;
};

int Run(int argc, char** argv) {
  bool check = false;
  std::vector<char*> filtered{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  PerfArgs args = ParsePerfArgs(static_cast<int>(filtered.size()), filtered.data(),
                                "bench_m7_query [--check]", /*default_reps=*/3);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // cold/warm is the measurement itself

  PerfHarness harness("M7: query column fetch, cold vs warm extent cache (items = rows)", args);
  Table table({"rows", "cold_Mrows_s", "warm_Mrows_s", "warm_speedup", "query_cold_ms",
               "query_warm_ms", "fold_match"});

  const ScratchDir scratch;
  if (scratch.path().empty()) {
    std::perror("mkdtemp");
    return 1;
  }
  double speedup_at_largest = 0.0;
  bool folds_match = true;
  for (const uint64_t rows : {uint64_t{10000}, uint64_t{100000}, uint64_t{1000000}}) {
    const std::string scenario = "bench_m7_" + std::to_string(rows);
    const std::string path = scratch.path() + "/" + scenario + ".wlsr";
    char name[64];
    std::snprintf(name, sizeof(name), "colfetch_cold_%llu",
                  static_cast<unsigned long long>(rows));
    if (!args.filter.empty() && std::string(name).find(args.filter) == std::string::npos) {
      continue;  // keep the figure table aligned with the benches that ran
    }
    if (!WriteCampaignFile(path, scenario, rows)) {
      return 1;
    }
    Catalog catalog;
    const CatalogFile& file = catalog.RegisterFile(path);
    const BinaryGroup& group = file.file.groups.front();
    ExtentCache cache(64u << 20);
    QueryEngine engine(&catalog, &cache);

    TimedRun cold{}, warm{};
    harness.Bench(name, [&cache, &group, &cold] {
      cache.Clear();
      const auto start = std::chrono::steady_clock::now();
      cold.fold_sum = FetchAndFold(cache, group);
      cold.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      return static_cast<uint64_t>(3 * group.header.n_rows);
    });
    // The cold pass left the columns resident; every warm fetch hits.
    std::snprintf(name, sizeof(name), "colfetch_warm_%llu",
                  static_cast<unsigned long long>(rows));
    harness.Bench(name, [&cache, &group, &warm] {
      const auto start = std::chrono::steady_clock::now();
      warm.fold_sum = FetchAndFold(cache, group);
      warm.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      return static_cast<uint64_t>(3 * group.header.n_rows);
    });

    const std::string query = "AGGREGATE " + scenario + ":campaign";
    TimedRun query_cold{}, query_warm{};
    std::snprintf(name, sizeof(name), "query_cold_%llu", static_cast<unsigned long long>(rows));
    harness.Bench(name, [&cache, &engine, &query, &query_cold] {
      cache.Clear();
      const auto start = std::chrono::steady_clock::now();
      const std::string body = engine.Execute(query);
      query_cold.secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      return static_cast<uint64_t>(body.size());
    });
    std::snprintf(name, sizeof(name), "query_warm_%llu", static_cast<unsigned long long>(rows));
    harness.Bench(name, [&cache, &engine, &query, &query_warm] {
      const auto start = std::chrono::steady_clock::now();
      const std::string body = engine.Execute(query);
      query_warm.secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      return static_cast<uint64_t>(body.size());
    });
    std::remove(path.c_str());

    // The fold must not merely be close — a cache hit returns the decoded
    // column verbatim, so the sums are the same doubles in the same order.
    const bool match = cold.fold_sum == warm.fold_sum;
    folds_match = folds_match && match;
    const double speedup = cold.secs / warm.secs;
    const double n = static_cast<double>(3 * rows);
    table.AddRow({std::to_string(rows), Table::Num(n / cold.secs / 1e6, 2),
                  Table::Num(n / warm.secs / 1e6, 2), Table::Num(speedup, 2),
                  Table::Num(query_cold.secs * 1e3, 2), Table::Num(query_warm.secs * 1e3, 2),
                  match ? "yes" : "NO"});
    if (rows == 1000000) {
      speedup_at_largest = speedup;
    }
  }

  const int rc = harness.Finish();
  std::printf("=== M7: cold vs warm query column fetch ===\n%s\n", table.ToString().c_str());
  if (check) {
    if (!folds_match) {
      std::fprintf(stderr, "cold and warm fold sums differ: the cache changed an answer\n");
      return 1;
    }
    if (speedup_at_largest < 2.0) {
      std::fprintf(stderr, "warm column fetch at 10^6 rows is %.2fx cold, expected >= 2x\n",
                   speedup_at_largest);
      return 1;
    }
    std::printf("check passed: warm fetch %.2fx faster than cold at 10^6 rows, folds identical\n",
                speedup_at_largest);
  }
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
