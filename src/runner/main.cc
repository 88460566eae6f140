// wlansim_run — the campaign CLI. Runs N independent replications of any
// registered scenario across a worker pool and prints (or writes) the
// aggregated results. With one or more --sweep axes it runs a whole
// parameter grid as per-point replication batches and emits one long-format
// table; --shard=i/n partitions the grid across processes or hosts without
// changing any result. Both are one engine: a campaign is the sweep with
// zero axes.
//
//   wlansim_run --list
//   wlansim_run --describe=saturation
//   wlansim_run --scenario=saturation --reps=8 --jobs=4 --param n_stas=10
//   wlansim_run --scenario=edca --reps=16 --jobs=0 --csv=agg.csv --json=agg.json
//   wlansim_run --scenario=rate_vs_distance --sweep distance=10:100:10 --reps=8 --csv=f1.csv
//   wlansim_run --scenario=saturation --sweep n_stas=1,5,10 --shard=0/2 --csv=half0.csv

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hotpath_stats.h"
#include "core/version.h"
#include "results/binary_writer.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "stats/table.h"

namespace wlansim {
namespace {

void PrintUsage() {
  std::printf(
      "usage: wlansim_run --scenario=NAME [options]\n"
      "\n"
      "options:\n"
      "  --scenario=NAME     registered scenario to run (see --list)\n"
      "  --reps=N            independent replications (default 1)\n"
      "  --jobs=N            worker threads; 0 = all hardware threads (default 1)\n"
      "  --seed=N            campaign base seed (default 1)\n"
      "  --param KEY=VALUE   scenario parameter (repeatable; also --param=KEY=VALUE)\n"
      "  --sweep KEY=SPEC    sweep a parameter over a value grid (repeatable);\n"
      "                      SPEC is v1,v2,... or an inclusive range lo:hi:step.\n"
      "                      Multiple --sweep axes form a cartesian grid, run as\n"
      "                      one replication batch per point.\n"
      "  --shard=I/N         run only this process's slice of the sweep grid\n"
      "                      (contiguous, disjoint, exhaustive across shards);\n"
      "                      results are identical for any shard split\n"
      "  --csv=FILE          write the aggregate table as CSV (long format when\n"
      "                      sweeping: params...,metric,count,mean,stddev,...),\n"
      "                      one grid point at a time as points complete\n"
      "  --json=FILE         write the aggregate table as JSON (no sweep mode)\n"
      "  --reps-csv=FILE     write one CSV row per replication, streamed from\n"
      "                      the finished run's records (no sweep mode)\n"
      "  --binary-out=FILE   write the full per-replication record stream\n"
      "                      (metrics plus histogram snapshots) as a WLSR\n"
      "                      binary columnar file, in campaign and sweep mode\n"
      "                      alike; wlansim_results can inspect/merge/export/\n"
      "                      aggregate it. Output bytes are identical for any\n"
      "                      --jobs value, and sweep shard files merge into\n"
      "                      exactly the unsharded file\n"
      "  --list              list registered scenarios\n"
      "  --version           print the build version and exit\n"
      "  --describe=NAME     show a scenario's parameters and defaults\n"
      "  --quiet             suppress the stdout table\n"
      "  --verbose           after the run, print hot-path diagnostic counters\n"
      "                      (packet bytes deep-copied in channel fan-out,\n"
      "                      event closures that missed the slab's inline\n"
      "                      buffer); stdout only, never in any result file\n"
      "\n"
      "Aggregates are exact at any replication count: each grid point's records\n"
      "are stored as one compact WLSR group and folded a column at a time, so\n"
      "p50/p95 are true sample quantiles and memory holds one encoded group per\n"
      "in-flight point, never the row set.\n");
}

int ListScenarios() {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  Table table({"scenario", "description"});
  for (const std::string& name : registry.Names()) {
    table.AddRow({name, std::string(registry.Find(name)->description())});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

int DescribeScenario(const std::string& name) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; run --list\n", name.c_str());
    return 1;
  }
  std::printf("%s — %s\n\n", name.c_str(), std::string(scenario->description()).c_str());
  Table table({"parameter", "default", "help"});
  for (const ParamSpec& spec : scenario->param_specs()) {
    table.AddRow({spec.name, spec.default_value, spec.help});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

// The --verbose footer: process-wide hot-path counters, folded into
// HotPathStats as each replication's Channel and EventQueue are destroyed.
// Both should read 0 on the steady-state zero-copy fan-out; a nonzero value
// is a performance regression signal, not an error. Diagnostic stdout only —
// result artifacts never include it, so --verbose cannot perturb a CSV.
void PrintHotPathStats() {
  std::printf("hot-path: bytes_copied=%llu event_heap_fallbacks=%llu\n",
              static_cast<unsigned long long>(
                  HotPathStats::channel_bytes_copied.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  HotPathStats::event_heap_fallbacks.load(std::memory_order_relaxed)));
}

// Parses "I/N" into (index, count); false on anything else.
bool ParseShard(const std::string& spec, unsigned* index, unsigned* count) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    return false;
  }
  const std::string i = spec.substr(0, slash);
  const std::string n = spec.substr(slash + 1);
  if (i.find_first_not_of("0123456789") != std::string::npos ||
      n.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    const unsigned long iv = std::stoul(i);
    const unsigned long nv = std::stoul(n);
    if (nv == 0 || iv >= nv) {
      return false;
    }
    *index = static_cast<unsigned>(iv);
    *count = static_cast<unsigned>(nv);
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

// Opens `path` for one output flag; false (after complaining) when it
// cannot be written.
bool OpenOutput(const std::string& path, std::ofstream* out) {
  out->open(path, std::ios::binary);
  if (!*out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// The stdout table: a banner naming the run, then one row per grid point
// and metric, read from the collected aggregates.
void PrintAggregateTable(const SweepOptions& options, const AggregateCollector& collected) {
  if (options.grid.empty()) {
    std::printf("=== %s: %llu replication(s), base seed %llu ===\n", options.scenario.c_str(),
                static_cast<unsigned long long>(options.replications),
                static_cast<unsigned long long>(options.base_seed));
  } else {
    std::printf(
        "=== %s sweep: %zu/%zu grid point(s) [shard %u/%u], %llu replication(s)/point, "
        "base seed %llu ===\n",
        options.scenario.c_str(), collected.points().size(), options.grid.NumPoints(),
        options.shard_index, options.shard_count,
        static_cast<unsigned long long>(options.replications),
        static_cast<unsigned long long>(options.base_seed));
  }
  std::vector<std::string> header = options.grid.Keys();
  for (const char* col :
       {"metric", "count", "mean", "stddev", "ci95_half", "min", "max", "p50", "p95"}) {
    header.emplace_back(col);
  }
  Table table(header);
  for (const AggregateCollector::Point& point : collected.points()) {
    for (const MetricAggregate& a : point.aggregates) {
      std::vector<std::string> row;
      for (const auto& [key, value] : point.info.point) {
        row.push_back(value);
      }
      row.push_back(a.metric);
      row.push_back(std::to_string(a.count));
      for (double v : {a.mean, a.stddev, a.ci95_half, a.min, a.max, a.p50, a.p95}) {
        row.push_back(Table::Num(v, 4));
      }
      table.AddRow(row);
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
}

// Runs the campaign (zero axes) or sweep and writes every requested output.
// Every output comes from a point sink: --csv, --reps-csv and --binary-out
// are written as each grid point finishes, and the stdout table and --json
// read an AggregateCollector, attached only when one of them is wanted — a
// --quiet run without --json holds nothing beyond its in-flight points. A
// failed write of any output is an error.
int Run(SweepOptions& options, const std::string& csv_path, const std::string& json_path,
        const std::string& reps_csv_path, const std::string& binary_out_path, bool quiet,
        bool verbose) {
  std::ofstream csv_out;
  std::unique_ptr<StreamingSweepCsvWriter> csv_writer;
  if (!csv_path.empty()) {
    if (!OpenOutput(csv_path, &csv_out)) {
      return 1;
    }
    csv_writer = std::make_unique<StreamingSweepCsvWriter>(csv_out);
    options.point_sinks.push_back(csv_writer.get());
  }
  std::ofstream binary_out;
  std::unique_ptr<BinaryResultsWriter> binary_writer;
  if (!binary_out_path.empty()) {
    if (!OpenOutput(binary_out_path, &binary_out)) {
      return 1;
    }
    binary_writer = std::make_unique<BinaryResultsWriter>(binary_out);
    options.point_sinks.push_back(binary_writer.get());
  }
  std::ofstream reps_out;
  std::unique_ptr<ReplicationCsvWriter> reps_writer;
  if (!reps_csv_path.empty()) {
    if (!OpenOutput(reps_csv_path, &reps_out)) {
      return 1;
    }
    reps_writer = std::make_unique<ReplicationCsvWriter>(reps_out);
    options.point_sinks.push_back(reps_writer.get());
  }
  std::ofstream json_out;
  if (!json_path.empty() && !OpenOutput(json_path, &json_out)) {
    return 1;
  }
  AggregateCollector collected;
  if (!quiet || !json_path.empty()) {
    options.point_sinks.push_back(&collected);
  }

  try {
    RunSweepCampaign(options);
    if (!quiet) {
      PrintAggregateTable(options, collected);
    }
    if (!json_path.empty()) {
      // --json is campaign-only: the run has exactly one point.
      json_out << AggregatesToJson(options.scenario, options.replications,
                                   collected.points().front().aggregates);
      json_out.flush();
      if (!json_out) {
        throw std::runtime_error("JSON write failed");
      }
    }
    if (verbose) {
      PrintHotPathStats();
    }
    if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
      throw std::runtime_error("stdout write failed");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  SweepOptions options;
  std::vector<std::string> sweep_specs;
  std::string shard_spec;
  std::string csv_path;
  std::string json_path;
  std::string reps_csv_path;
  std::string binary_out_path;
  std::vector<std::string> param_keys_seen;
  bool quiet = false;
  bool verbose = false;

  auto value_of = [](const char* arg, const char* flag) -> const char* {
    const size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 && arg[n] == '=' ? arg + n + 1 : nullptr;
  };
  // Digits-only parse: stoull would accept "-1" (wrapping to 2^64-1) and
  // terminate the process on "abc"; a flag typo deserves a usage error.
  bool parse_failed = false;
  auto parse_u64 = [&parse_failed](const char* flag, const char* v) -> uint64_t {
    if (*v == '\0' || std::strspn(v, "0123456789") != std::strlen(v)) {
      std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n", flag, v);
      parse_failed = true;
      return 0;
    }
    try {
      return std::stoull(v);
    } catch (const std::out_of_range&) {
      std::fprintf(stderr, "%s value '%s' is out of range\n", flag, v);
      parse_failed = true;
      return 0;
    }
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else if (std::strcmp(arg, "--version") == 0) {
      std::fputs(VersionLine("wlansim_run").c_str(), stdout);
      return 0;
    } else if (std::strcmp(arg, "--list") == 0) {
      return ListScenarios();
    } else if ((v = value_of(arg, "--describe")) != nullptr) {
      return DescribeScenario(v);
    } else if ((v = value_of(arg, "--scenario")) != nullptr) {
      options.scenario = v;
    } else if ((v = value_of(arg, "--reps")) != nullptr) {
      options.replications = parse_u64("--reps", v);
    } else if ((v = value_of(arg, "--jobs")) != nullptr) {
      const uint64_t jobs = parse_u64("--jobs", v);
      if (jobs > UINT_MAX) {
        std::fprintf(stderr, "--jobs value '%s' is out of range\n", v);
        parse_failed = true;
      }
      options.jobs = static_cast<unsigned>(jobs);
    } else if ((v = value_of(arg, "--seed")) != nullptr) {
      options.base_seed = parse_u64("--seed", v);
    } else if ((v = value_of(arg, "--param")) != nullptr ||
               (std::strcmp(arg, "--param") == 0 && i + 1 < argc && (v = argv[++i]) != nullptr)) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        std::fprintf(stderr, "--param expects KEY=VALUE, got '%s'\n", v);
        return 1;
      }
      std::string key(v, eq);
      for (const std::string& seen : param_keys_seen) {
        if (seen == key) {
          std::fprintf(stderr,
                       "--param %s given twice; the second value would silently win\n",
                       key.c_str());
          return 1;
        }
      }
      param_keys_seen.push_back(key);
      options.base_params.Set(key, std::string(eq + 1));
    } else if ((v = value_of(arg, "--sweep")) != nullptr ||
               (std::strcmp(arg, "--sweep") == 0 && i + 1 < argc && (v = argv[++i]) != nullptr)) {
      sweep_specs.emplace_back(v);
    } else if ((v = value_of(arg, "--shard")) != nullptr) {
      shard_spec = v;
    } else if ((v = value_of(arg, "--csv")) != nullptr) {
      csv_path = v;
    } else if ((v = value_of(arg, "--json")) != nullptr) {
      json_path = v;
    } else if ((v = value_of(arg, "--reps-csv")) != nullptr) {
      reps_csv_path = v;
    } else if ((v = value_of(arg, "--binary-out")) != nullptr) {
      binary_out_path = v;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n\n", arg);
      PrintUsage();
      return 1;
    }
  }

  if (parse_failed) {
    return 1;
  }
  if (options.scenario.empty()) {
    PrintUsage();
    return 1;
  }
  if (options.replications == 0) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    return 1;
  }
  // Each output flag owns its file; two flags aimed at one path would just
  // overwrite each other in flag order.
  {
    const std::pair<const char*, const std::string*> outputs[] = {
        {"--csv", &csv_path},
        {"--json", &json_path},
        {"--reps-csv", &reps_csv_path},
        {"--binary-out", &binary_out_path},
    };
    for (size_t a = 0; a < std::size(outputs); ++a) {
      for (size_t b = a + 1; b < std::size(outputs); ++b) {
        if (!outputs[a].second->empty() && *outputs[a].second == *outputs[b].second) {
          std::fprintf(stderr, "%s and %s both point at '%s'; each output needs its own file\n",
                       outputs[a].first, outputs[b].first, outputs[a].second->c_str());
          return 1;
        }
      }
    }
  }
  if (!shard_spec.empty() &&
      !ParseShard(shard_spec, &options.shard_index, &options.shard_count)) {
    std::fprintf(stderr, "--shard expects I/N with 0 <= I < N, got '%s'\n", shard_spec.c_str());
    return 1;
  }
  if (!sweep_specs.empty()) {
    if (!json_path.empty() || !reps_csv_path.empty()) {
      std::fprintf(stderr, "--json/--reps-csv are not supported in sweep mode; use --csv\n");
      return 1;
    }
    try {
      for (const std::string& spec : sweep_specs) {
        options.grid.AddAxis(ParseSweepAxis(spec));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else if (!shard_spec.empty()) {
    std::fprintf(stderr, "--shard requires at least one --sweep axis\n");
    return 1;
  }
  return Run(options, csv_path, json_path, reps_csv_path, binary_out_path, quiet, verbose);
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Main(argc, argv);
}
