// The traced run: splits the work of every workload among the layers by
// timing calls into each layer's public functions from the benchmark's own
// code, one span per call. It never runs during an end-to-end measurement.

#include <sys/stat.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/random.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "query/protocol.h"
#include "results/binary_reader.h"
#include "runner/scenario_registry.h"
#include "workloads.h"

namespace wlansim::e2e {
namespace {

using Scope = SpanRecorder::Scope;

struct ReplayStats {
  std::vector<double> rep_ms;
  double host_ms = 0.0;
  double tx_attempts = 0.0;
  double rx_ok = 0.0;
};

double MetricOr0(const ReplicationResult& result, const char* name) {
  const auto it = result.metrics.find(name);
  return it == result.metrics.end() ? 0.0 : it->second;
}

// Replays requests [0, count) of a simulation workload in-process on the
// client threads, one span per request and per replication. Returns the
// statistics per scenario.
std::map<std::string, ReplayStats> ReplaySim(const Config& config, SpanRecorder& recorder,
                                             const std::string& workload, uint64_t count,
                                             Report& report) {
  const std::vector<Profile> profiles = SimProfiles(workload, config.smoke);
  Scope phase(recorder, "phase.replay:" + workload);
  std::mutex mu;
  std::map<std::string, ReplayStats> stats;
  const LoopResult loop = RunClosedLoop(config.clients, 1e9, count, [&](uint64_t i, unsigned) {
    const Profile& profile = profiles[i % profiles.size()];
    const Scenario* scenario = ScenarioRegistry::Global().Find(profile.scenario);
    ScenarioParams params;
    for (const auto& [key, value] : profile.params) {
      params.Set(key, value);
    }
    const uint64_t request_seed = RequestSeed(config.seed, workload, i);
    Scope request(recorder, "runner.request:" + workload, phase.id(), static_cast<int64_t>(i));
    for (uint64_t rep = 0; rep < profile.reps; ++rep) {
      ReplicationContext ctx;
      ctx.seed = SubstreamSeed(request_seed, profile.scenario, rep);
      ctx.replication = rep;
      Scope span(recorder, "runner.replication:" + profile.scenario, request.id(),
                 static_cast<int64_t>(i));
      const ReplicationResult result = scenario->Run(params, ctx);
      const double ms = span.End();
      std::lock_guard<std::mutex> lock(mu);
      ReplayStats& s = stats[profile.scenario];
      s.rep_ms.push_back(ms);
      s.host_ms += ms;
      s.tx_attempts += MetricOr0(result, "tx_attempts");
      s.rx_ok += MetricOr0(result, "rx_ok");
    }
    return Outcome{true, request.End(), 0};
  });
  report.attempted += loop.attempted;
  report.failed += loop.failed;
  if (loop.failed > 0) {
    report.Fail("an in-process replication failed");
  }
  return stats;
}

// One m-suite row, imported as its p50 ns/item times `scale`.
struct SuiteRow {
  const char* metric;
  const char* unit;
  const std::string Programs::*program;
  const char* filter;  // --filter of the run that produces the row
  const char* row;
  double scale;
};

const SuiteRow kSuiteRows[] = {
    {"core.event_ns.1k", "ns", &Programs::m2, "event_", "event_schedule_pop_1k", 1.0},
    {"core.event_ns.100k", "ns", &Programs::m2, "event_", "event_schedule_pop_100k", 1.0},
    {"core.timer_churn_ns", "ns", &Programs::m2, "event_", "event_timer_churn", 1.0},
    {"phy.rx_eval_ns.d8", "ns", &Programs::m3, "_sweep_d", "rx_eval_sweep_d8", 1.0},
    {"phy.rx_eval_ns.d32", "ns", &Programs::m3, "_sweep_d", "rx_eval_sweep_d32", 1.0},
    {"phy.cca_ns.d64", "ns", &Programs::m3, "_sweep_d", "cca_eval_sweep_d64", 1.0},
    {"phy.offer_ns.d32", "ns", &Programs::m6, "_d32", "zerocopy_d32", 1.0},
    {"phy.send_us.spatial_n1000", "us", &Programs::m4, "send_spatial_cut_n1000",
     "send_spatial_cut_n1000", 1e-3},
    {"crypto.ccmp_ns_per_byte", "ns/B", &Programs::m1, "protect_ccmp/1500B", "protect_ccmp/1500B",
     1.0},
};

// Runs the m-suite binaries (each filter once) and returns the long-format
// CSV of every run keyed by program + filter.
std::map<std::string, std::string> RunSuite(const Config& config, SpanRecorder& recorder,
                                            Report& report) {
  Scope phase(recorder, "phase.msuite");
  std::map<std::string, std::string> csvs;
  int run = 0;
  for (const SuiteRow& row : kSuiteRows) {
    const std::string& program = config.programs.*row.program;
    const std::string key = program + " " + row.filter;
    if (csvs.count(key) != 0) {
      continue;
    }
    const std::string tag = Tag("msuite", run++);
    Scope span(recorder, std::string("msuite:") + row.filter, phase.id());
    const ChildResult child = RunProcess(
        {program, "--reps=3", std::string("--filter=") + row.filter, "--csv=" + tag + ".csv"},
        tag + ".out", 120.0);
    ++report.attempted;
    if (!child.ok()) {
      ++report.failed;
      report.Fail(program + " --filter=" + row.filter + " failed:\n" + ReadFile(tag + ".out"));
      csvs[key] = "";
    } else {
      csvs[key] = ReadFile(tag + ".csv");
    }
    RemoveFile(tag + ".out");
    RemoveFile(tag + ".csv");
  }
  return csvs;
}

// The p50 ns/item of `row` in a perf-harness long-format CSV; -1 if absent.
double SuiteP50(const std::string& csv, const std::string& row) {
  const std::string prefix = row + ",ns_per_item,";
  size_t pos = csv.find(prefix);
  if (pos != 0) {
    pos = csv.find("\n" + prefix);
    if (pos == std::string::npos) {
      return -1.0;
    }
    ++pos;
  }
  // Columns: bench,metric,count,mean,stddev,ci95_half,min,max,p50,p95.
  const size_t end = csv.find('\n', pos);
  std::string line = csv.substr(pos, end - pos);
  size_t field = 0;
  size_t start = 0;
  while (field < 8) {
    start = line.find(',', start);
    if (start == std::string::npos) {
      return -1.0;
    }
    ++start;
    ++field;
  }
  return std::strtod(line.c_str() + start, nullptr);
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("cannot stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

Report RunTraced(const Config& config, const std::string& workload,
                 const std::string& spans_path) {
  Report report;
  report.workload = workload;
  SpanRecorder recorder;
  const bool smoke = config.smoke;

  // ---- tools: what one CLI request costs beyond its simulation ----------
  {
    Scope phase(recorder, "phase.tools");
    std::vector<double> ms;
    const int spawns = smoke ? 4 : 32;
    for (int i = 0; i < spawns; ++i) {
      const std::string tag = Tag("spawn", i);
      Scope span(recorder, "tools.wlansim_run", phase.id(), i);
      const ChildResult child = RunProcess(
          {config.programs.run, "--scenario=pipeline_probe", "--reps=1", "--quiet",
           "--csv=" + tag + ".csv"},
          tag + ".out");
      ms.push_back(span.End());
      ++report.attempted;
      if (!child.ok()) {
        ++report.failed;
        report.Fail("wlansim_run failed:\n" + ReadFile(tag + ".out"));
      }
      RemoveFile(tag + ".out");
      RemoveFile(tag + ".csv");
    }
    report.Add("tools.spawn_ms", Median(ms), "ms", ms.size());
  }

  // ---- runner and mac: in-process replay of each simulation workload ----
  const auto dense = ReplaySim(config, recorder, "dense_bss", smoke ? 4 : 24, report);
  const auto city = ReplaySim(config, recorder, "city_grid", smoke ? 4 : 32, report);
  const std::vector<Profile> mix_profiles = SimProfiles("scenario_mix", smoke);
  const auto mix = ReplaySim(config, recorder, "scenario_mix",
                             (smoke ? 1 : 4) * mix_profiles.size(), report);
  const ReplayStats& dense_stats = dense.at("dense_multi_bss");
  const ReplayStats& city_stats = city.at("city_grid");
  report.Add("runner.rep_ms_p50.dense_bss", Median(dense_stats.rep_ms), "ms",
             dense_stats.rep_ms.size());
  report.Add("runner.rep_ms_p50.city_grid", Median(city_stats.rep_ms), "ms",
             city_stats.rep_ms.size());
  for (const Profile& profile : mix_profiles) {
    const ReplayStats& s = mix.at(profile.scenario);
    report.Add("runner.rep_ms_p50.mix." + profile.scenario, Median(s.rep_ms), "ms",
               s.rep_ms.size());
  }

  // Jobs scaling of one write campaign, through the CLI.
  {
    Scope phase(recorder, "phase.jobs_scaling");
    std::vector<double> serial_ms;
    std::vector<double> parallel_ms;
    for (int round = 0; round < (smoke ? 1 : 5); ++round) {
      for (const unsigned jobs : {1u, config.clients}) {
        const std::string tag = Tag(Tag("scale", round) + "_", jobs);
        Scope span(recorder, "tools.wlansim_run.write", phase.id(), round);
        const ChildResult child = RunProcess(
            WriteArgs(config, jobs, RequestSeed(config.seed, "results_write", 0), tag),
            tag + ".out");
        (jobs == 1 ? serial_ms : parallel_ms).push_back(span.End());
        ++report.attempted;
        if (!child.ok()) {
          ++report.failed;
          report.Fail("write campaign failed:\n" + ReadFile(tag + ".out"));
        }
        for (const char* ext : {".out", ".csv", ".wlsr"}) {
          RemoveFile(tag + ext);
        }
      }
    }
    report.Add("runner.jobs_scaling.write", Median(serial_ms) / Median(parallel_ms), "ratio",
               parallel_ms.size());
  }

  auto per_rep = [](const ReplayStats& s) {
    return s.rep_ms.empty() ? 0.0 : s.tx_attempts / static_cast<double>(s.rep_ms.size());
  };
  auto us_per_attempt = [](const ReplayStats& s) {
    return s.tx_attempts > 0 ? s.host_ms * 1e3 / s.tx_attempts : 0.0;
  };
  report.Add("mac.tx_attempts_per_rep.dense_bss", per_rep(dense_stats), "count",
             dense_stats.rep_ms.size());
  report.Add("mac.tx_attempts_per_rep.city_grid", per_rep(city_stats), "count",
             city_stats.rep_ms.size());
  report.Add("mac.host_us_per_attempt.dense_bss", us_per_attempt(dense_stats), "us",
             dense_stats.rep_ms.size());
  report.Add("mac.host_us_per_attempt.city_grid", us_per_attempt(city_stats), "us",
             city_stats.rep_ms.size());
  report.Add("mac.delivery_frac.dense_bss",
             dense_stats.tx_attempts > 0 ? dense_stats.rx_ok / dense_stats.tx_attempts : 0.0,
             "ratio", dense_stats.rep_ms.size());

  // ---- core, phy and crypto: m-suite rows ---------------------------------
  const std::map<std::string, std::string> suite = RunSuite(config, recorder, report);
  for (const SuiteRow& row : kSuiteRows) {
    const std::string& program = config.programs.*row.program;
    const double p50 = SuiteP50(suite.at(program + " " + row.filter), row.row);
    if (p50 < 0) {
      report.Fail(std::string("m-suite row ") + row.row + " is missing");
    }
    report.Add(row.metric, p50 * row.scale, row.unit, 3);
  }

  // Guard counters from the --verbose footer of one round of every
  // simulation workload's requests.
  {
    Scope phase(recorder, "phase.guard_counters");
    std::mutex guard_mu;
    uint64_t bytes_copied = 0;
    uint64_t heap_fallbacks = 0;
    uint64_t requests = 0;
    for (const std::string name : {"dense_bss", "city_grid", "scenario_mix"}) {
      const std::vector<Profile> profiles = SimProfiles(name, smoke);
      const LoopResult loop = RunClosedLoop(
          config.clients, 1e9, profiles.size(), [&](uint64_t i, unsigned) {
            Scope span(recorder, "tools.wlansim_run", phase.id(), static_cast<int64_t>(i));
            const SimOutput out = RunSimRequest(config, profiles[i],
                                                RequestSeed(config.seed, name, i),
                                                Tag("guard_" + name, i));
            if (!out.error.empty()) {
              std::fprintf(stderr, "%s request %llu: %s\n", name.c_str(),
                           static_cast<unsigned long long>(i), out.error.c_str());
            }
            std::lock_guard<std::mutex> lock(guard_mu);
            bytes_copied += out.bytes_copied;
            heap_fallbacks += out.heap_fallbacks;
            return out.outcome;
          });
      requests += loop.attempted;
      report.attempted += loop.attempted;
      report.failed += loop.failed;
    }
    report.Add("phy.bytes_copied", static_cast<double>(bytes_copied), "bytes", requests);
    report.Add("core.heap_fallbacks", static_cast<double>(heap_fallbacks), "count", requests);
  }

  // ---- results: the WLSR layer on the query workload's campaign files ----
  Scope results_phase(recorder, "phase.results");
  const ResultsData data = WriteResultsData(config, "data", &recorder, results_phase.id());
  std::vector<BinaryResultsFile> campaign;
  uint64_t campaign_bytes = 0;
  double parse_ms = 0.0;
  for (const std::string& path : data.campaign_files) {
    campaign_bytes += FileSize(path);
    Scope span(recorder, "results.read_file", results_phase.id());
    campaign.push_back(ReadBinaryResultsFile(path));
    parse_ms += span.End();
  }
  report.Add("results.bytes_per_record",
             static_cast<double>(campaign_bytes) / static_cast<double>(data.campaign_rows),
             "bytes", data.campaign_rows);
  report.Add("results.parse_ms_per_mb",
             parse_ms / (static_cast<double>(campaign_bytes) / (1 << 20)), "ms/MB",
             campaign.size());
  {
    double decode_ms = 0.0;
    uint64_t values = 0;
    std::vector<double> column;
    for (const BinaryResultsFile& file : campaign) {
      for (const BinaryGroup& group : file.groups) {
        for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
          Scope span(recorder, "results.decode_column", results_phase.id());
          ReadScalarColumn(group, c, &column);
          decode_ms += span.End();
          values += column.size();
        }
      }
    }
    report.Add("results.decode_ns_per_value", decode_ms * 1e6 / static_cast<double>(values),
               "ns", values);
  }
  std::vector<const BinaryResultsFile*> campaign_ptrs;
  for (const BinaryResultsFile& file : campaign) {
    campaign_ptrs.push_back(&file);
  }
  Scope aggregate_span(recorder, "results.aggregate", results_phase.id());
  const std::string agg_campaign = AggregateBinary(campaign_ptrs);
  report.Add("results.aggregate_ms.campaign", aggregate_span.End(), "ms", 1);
  std::vector<BinaryResultsFile> sweep;
  for (const std::string& path : data.sweep_files) {
    sweep.push_back(ReadBinaryResultsFile(path));
  }
  const std::string agg_sweep = AggregateBinary(sweep);
  results_phase.End();

  // ---- query: catalog, cache and engine in-process, then the server ----
  Scope query_phase(recorder, "phase.query");
  Catalog catalog;
  {
    Scope span(recorder, "query.register", query_phase.id());
    for (const auto* files : {&data.campaign_files, &data.sweep_files}) {
      for (const std::string& path : *files) {
        catalog.RegisterFile(path);
      }
    }
    report.Add("query.register_ms", span.End(), "ms", catalog.file_count());
  }
  ExtentCache cache(static_cast<size_t>(QueryCacheMb(smoke)) << 20);
  std::mutex mu;
  std::map<std::string, std::vector<double>> class_ms;
  double busy_ms = 0.0;
  const LoopResult queries = RunClosedLoop(
      config.clients, 1e9, smoke ? 60 : 300, [&](uint64_t i, unsigned) {
        const Query q = QueryFor(config.seed, i);
        QueryEngine engine(&catalog, &cache);
        Scope span(recorder, "query.execute:" + q.klass, query_phase.id(),
                   static_cast<int64_t>(i));
        const std::string body = engine.Execute(q.text);
        const double ms = span.End();
        const bool ok = (q.text != "AGGREGATE pipeline_probe:campaign" || body == agg_campaign) &&
                        (q.text != "AGGREGATE pipeline_probe:sweep" || body == agg_sweep);
        std::lock_guard<std::mutex> lock(mu);
        if (!ok) {
          report.Fail("in-process answer to '" + q.text + "' differs from the offline aggregate");
        }
        class_ms[q.klass].push_back(ms);
        busy_ms += ms;
        return Outcome{ok, ms, 0};
      });
  report.attempted += queries.attempted;
  report.failed += queries.failed;
  for (const std::string& klass : QueryClasses()) {
    const std::vector<double>& ms = class_ms[klass];
    report.Add("query.engine_ms_p50." + klass, Median(ms), "ms", ms.size());
  }
  const ExtentCacheStats cache_stats = cache.Stats();
  report.Add("query.cache_hit_frac",
             cache_stats.lookups > 0 ? static_cast<double>(cache_stats.hits) /
                                           static_cast<double>(cache_stats.lookups)
                                     : 0.0,
             "ratio", cache_stats.lookups);
  report.Add("query.cache_evictions", static_cast<double>(cache_stats.evictions), "count",
             cache_stats.lookups);
  report.Add("query.worker_busy_frac", busy_ms / (config.clients * queries.wall_s * 1e3), "ratio",
             queries.latency_ms.size());

  // What the daemon adds to one warm sel_sweep query: socket, framing and
  // dispatch, measured against the engine alone on one thread each.
  {
    Daemon daemon({config.programs.queryd, "--socket=trace.sock", "--register=" + data.dir,
                   "--threads=1", "--cache-mb=" + std::to_string(QueryCacheMb(smoke))},
                  "queryd_trace.out");
    std::unique_ptr<QueryConnection> conn = ConnectWhenReady(daemon, "trace.sock");
    QueryEngine engine(&catalog, &cache);
    std::vector<double> overhead_ms;  // paired: the same query both ways
    for (int i = 0; i < 48; ++i) {
      const std::string text =
          "SELECT value_0,count_1 FROM pipeline_probe:sweep WHERE samples=" +
          std::to_string(16 << (i % 4)) + " GROUP BY n_metrics";
      std::string served;
      Scope round_trip(recorder, "query.round_trip:sel_sweep", query_phase.id(), i);
      const uint8_t status = conn->Ask(text, &served);
      const double served_time = round_trip.End();
      Scope span(recorder, "query.execute:sel_sweep", query_phase.id(), i);
      const std::string local = engine.Execute(text);
      const double engine_time = span.End();
      ++report.attempted;
      if (status != kStatusOk || served != local) {
        ++report.failed;
        report.Fail("served answer to '" + text + "' differs from the in-process engine");
      }
      if (i >= 8) {  // the first round trips warm the daemon's cache
        overhead_ms.push_back(served_time - engine_time);
      }
    }
    conn.reset();
    if (!daemon.Stop().ok()) {
      report.Fail("wlansim_queryd did not shut down cleanly");
    }
    report.Add("query.serve_overhead_ms_p50", Median(overhead_ms), "ms", overhead_ms.size());
  }
  query_phase.End();

  recorder.WriteJson(spans_path);
  std::printf("wrote %zu spans to %s\n", recorder.size(), spans_path.c_str());
  return report;
}

}  // namespace wlansim::e2e
