// The end-to-end workloads: each sets up several times (reporting the
// median set-up time), checks the fixed set-up outputs against their
// committed digests, then runs its closed loop for the measured phase.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "query/protocol.h"
#include "results/binary_reader.h"
#include "workloads.h"

namespace wlansim::e2e {
namespace {

constexpr uint64_t kNoCap = std::numeric_limits<uint64_t>::max();

// Smoke runs are fixed work: this many measured requests per workload.
uint64_t SmokeCap(const std::string& workload) {
  if (workload == "scenario_mix") {
    return 13;
  }
  if (workload == "results_write") {
    return 2;
  }
  if (workload == "results_query") {
    return 60;
  }
  return 4;
}

// Folds per-request digests in request order.
std::string FoldInOrder(const std::map<uint64_t, std::string>& digests) {
  Fnv64 fold;
  for (const auto& [index, digest] : digests) {
    fold.Add(digest);
  }
  return fold.Hex();
}

// Records one set-up repetition's golden digest: every repetition must
// produce the same one.
void NoteGolden(Report& report, const std::string& golden) {
  if (report.golden.empty()) {
    report.golden = golden;
  } else if (report.golden != golden) {
    report.Fail("set-up outputs differ between repetitions");
  }
}

}  // namespace

Report RunSimWorkload(const Config& config, const std::string& workload) {
  Report report;
  report.workload = workload;
  const std::vector<Profile> profiles = SimProfiles(workload, config.smoke);
  const uint64_t kinds = profiles.size();

  // Set-up: one request per profile, the first round of the seed-1 list, so
  // its outputs are fixed whatever --seed says.
  std::vector<double> setup_s;
  for (unsigned rep = 0; rep < config.setup_repeats; ++rep) {
    std::vector<std::string> csvs(kinds);
    const auto start = Clock::now();
    const LoopResult warm = RunClosedLoop(
        std::min<unsigned>(config.clients, static_cast<unsigned>(kinds)), 1e9, kinds,
        [&](uint64_t i, unsigned) {
          SimOutput out = RunSimRequest(config, profiles[i], RequestSeed(1, workload, i),
                                        Tag(Tag("setup", rep) + "_", i));
          if (!out.error.empty()) {
            std::fprintf(stderr, "%s set-up request %llu: %s\n", workload.c_str(),
                         static_cast<unsigned long long>(i), out.error.c_str());
          }
          csvs[i] = std::move(out.csv);
          return out.outcome;
        });
    setup_s.push_back(SecondsSince(start));
    if (warm.failed > 0) {
      report.Fail("a set-up request failed");
    }
    Fnv64 golden;
    for (const std::string& csv : csvs) {
      golden.Add(csv);
    }
    NoteGolden(report, golden.Hex());
  }

  std::vector<double> request_sim_seconds;
  for (const Profile& profile : profiles) {
    request_sim_seconds.push_back(static_cast<double>(profile.reps) * SimSecondsPerRep(profile));
  }
  std::mutex mu;
  std::map<uint64_t, std::string> digests;
  double sim_seconds = 0.0;
  uint64_t bytes_copied = 0;
  uint64_t heap_fallbacks = 0;
  const LoopResult loop = RunClosedLoop(
      config.clients, config.seconds, config.smoke ? SmokeCap(workload) : kNoCap,
      [&](uint64_t i, unsigned) {
        const SimOutput out = RunSimRequest(config, profiles[i % kinds],
                                            RequestSeed(config.seed, workload, i), Tag("r", i));
        std::lock_guard<std::mutex> lock(mu);
        if (!out.error.empty()) {
          std::fprintf(stderr, "%s request %llu: %s\n", workload.c_str(),
                       static_cast<unsigned long long>(i), out.error.c_str());
          return out.outcome;
        }
        digests[i] = DigestHex(out.csv);
        sim_seconds += request_sim_seconds[i % kinds];
        bytes_copied += out.bytes_copied;
        heap_fallbacks += out.heap_fallbacks;
        return out.outcome;
      });
  AddEndToEndMetrics(report, setup_s, loop, loop.rss_kb);
  report.digest = FoldInOrder(digests);
  const uint64_t done = loop.latency_ms.size();
  report.extras.push_back({"sim_s_per_wall_s", sim_seconds / loop.wall_s, "sim-s/s", done});
  report.extras.push_back({"phy.bytes_copied", static_cast<double>(bytes_copied), "bytes", done});
  report.extras.push_back(
      {"core.heap_fallbacks", static_cast<double>(heap_fallbacks), "count", done});
  return report;
}

namespace {

struct WriteOutput {
  Outcome outcome;
  BinaryResultsFile file;
  std::string error;  // empty when the request succeeded and its files checked
};

// Runs one results_write request and checks what it wrote: the aggregate
// CSV counts every replication, and the WLSR file parses, passes its CRCs
// and holds every record. The files are removed before returning, so
// written data never piles up in the page cache.
WriteOutput RunWriteRequest(const Config& config, uint64_t campaign_seed,
                            const std::string& tag) {
  WriteOutput out;
  const ChildResult child = RunProcess(WriteArgs(config, 1, campaign_seed, tag), tag + ".out");
  out.outcome = {child.ok(), child.wall_ms, child.max_rss_kb};
  try {
    if (!child.ok()) {
      throw std::runtime_error("failed: " + ReadFile(tag + ".out"));
    }
    out.error = CheckAggregateCsv(ReadFile(tag + ".csv"), kWriteReps);
    out.file = ReadBinaryResultsFile(tag + ".wlsr");
    if (out.file.groups.size() != 1 || out.file.groups[0].header.n_rows != kWriteReps) {
      throw std::runtime_error(tag + ".wlsr does not hold one group of " +
                               std::to_string(kWriteReps) + " records");
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.outcome.ok = out.error.empty();
  for (const char* ext : {".out", ".csv", ".wlsr"}) {
    RemoveFile(tag + ext);
  }
  return out;
}

// Digest of every decoded scalar value: the records themselves, without the
// file framing. Costs a fraction of a millisecond, unlike the aggregate.
std::string RecordDigest(const BinaryResultsFile& file) {
  Fnv64 digest;
  std::vector<double> column;
  for (const BinaryGroup& group : file.groups) {
    for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
      ReadScalarColumn(group, c, &column);
      digest.Add(group.header.scalar_names[c]);
      digest.Add(std::string_view(reinterpret_cast<const char*>(column.data()),
                                  column.size() * sizeof(double)));
    }
  }
  return digest.Hex();
}

}  // namespace

Report RunWriteWorkload(const Config& config) {
  Report report;
  report.workload = "results_write";

  std::vector<double> setup_s;
  for (unsigned rep = 0; rep < config.setup_repeats; ++rep) {
    const WriteOutput warm =
        RunWriteRequest(config, RequestSeed(1, report.workload, 0), Tag("setup", rep));
    setup_s.push_back(warm.outcome.latency_ms / 1e3);
    if (!warm.outcome.ok) {
      report.Fail("set-up request: " + warm.error);
    } else {
      // The exact offline aggregate, not the run's CSV: a streamed run
      // labels its quantiles approximate, and the stored records are exact.
      NoteGolden(report, DigestHex(AggregateBinary(
                             std::vector<const BinaryResultsFile*>{&warm.file})));
    }
  }

  // C single-threaded campaigns at once, like shards of one large run. A
  // campaign at --jobs=J has a latency tail from its worker hand-offs that
  // makes p90 unsteady; the traced run reports that jobs scaling instead.
  std::mutex mu;
  std::map<uint64_t, std::string> digests;
  const LoopResult loop = RunClosedLoop(
      config.clients, config.seconds, config.smoke ? SmokeCap(report.workload) : kNoCap,
      [&](uint64_t i, unsigned) {
        const WriteOutput out =
            RunWriteRequest(config, RequestSeed(config.seed, report.workload, i), Tag("w", i));
        if (!out.outcome.ok) {
          std::fprintf(stderr, "results_write request %llu: %s\n",
                       static_cast<unsigned long long>(i), out.error.c_str());
        } else {
          const std::string digest = RecordDigest(out.file);
          std::lock_guard<std::mutex> lock(mu);
          digests[i] = digest;
        }
        return out.outcome;
      });
  AddEndToEndMetrics(report, setup_s, loop, loop.rss_kb);
  report.digest = FoldInOrder(digests);
  const uint64_t done = loop.latency_ms.size();
  report.extras.push_back({"records_per_s",
                           static_cast<double>(done * kWriteReps) / loop.wall_s, "records/s",
                           done});
  return report;
}

namespace {

std::string OfflineAggregate(const Config& config, const std::vector<std::string>& files,
                             const std::string& out) {
  std::vector<std::string> argv = {config.programs.results, "aggregate"};
  argv.insert(argv.end(), files.begin(), files.end());
  argv.push_back("--out=" + out);
  const ChildResult child = RunProcess(argv, out + ".log");
  if (!child.ok()) {
    throw std::runtime_error("wlansim_results aggregate failed:\n" + ReadFile(out + ".log"));
  }
  RemoveFile(out + ".log");
  return ReadFile(out);
}

}  // namespace

Report RunQueryWorkload(const Config& config) {
  Report report;
  report.workload = "results_query";
  const unsigned threads = config.clients;

  // Input preparation, not set-up: the served files are the same for every
  // seed, and results_write measures writing them.
  const ResultsData data = WriteResultsData(config, "data");
  const std::string agg_campaign = OfflineAggregate(config, data.campaign_files, "agg_campaign");
  const std::string agg_sweep = OfflineAggregate(config, data.sweep_files, "agg_sweep");
  auto expected_answer = [&](const std::string& text) -> const std::string* {
    if (text == "AGGREGATE pipeline_probe:campaign") {
      return &agg_campaign;
    }
    if (text == "AGGREGATE pipeline_probe:sweep") {
      return &agg_sweep;
    }
    return nullptr;
  };

  std::mutex mu;
  std::map<std::string, std::string> answers;  // query text -> answer digest
  // Checks one answer: an AGGREGATE equals the offline aggregate, and every
  // answer to a text equals the first one (cache state must not show).
  auto check_answer = [&](const std::string& text, const std::string& body) -> bool {
    const std::string* expected = expected_answer(text);
    const std::string digest = DigestHex(body);
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, inserted] = answers.emplace(text, digest);
    if ((expected != nullptr && *expected != body) || it->second != digest) {
      report.Fail("served answer to '" + text + "' differs from the reference");
      return false;
    }
    return true;
  };

  const std::vector<std::string> argv_base = {
      config.programs.queryd, "--register=" + data.dir, "--threads=" + std::to_string(threads),
      "--cache-mb=" + std::to_string(QueryCacheMb(config.smoke))};
  // Set-up: start the daemon, wait until it listens (registration done) and
  // answer one fixed query per class on one connection. The timed set-ups
  // are then stopped to read their peak RSS: one query at a time, it
  // repeats, while the serving peak depends on how heavy queries happen to
  // overlap. One more daemon, set up the same way, serves.
  const std::vector<Query> warmups = WarmupQueries();
  std::vector<double> setup_s;
  std::vector<double> setup_rss_kb;
  std::unique_ptr<Daemon> daemon;
  // One connection per daemon worker, each owned by one client: a
  // connection beyond the pool size would wait for a worker.
  std::vector<std::unique_ptr<QueryConnection>> conns;
  ServerStats before;
  for (unsigned rep = 0; rep <= config.setup_repeats; ++rep) {
    const bool serving = rep == config.setup_repeats;
    const std::string socket_path = Tag("q", rep) + ".sock";
    std::vector<std::string> argv = argv_base;
    argv.push_back("--socket=" + socket_path);
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(argv, Tag("queryd", rep) + ".out");
    std::vector<std::string> bodies(warmups.size());
    {
      std::unique_ptr<QueryConnection> conn = ConnectWhenReady(*daemon, socket_path);
      for (size_t i = 0; i < warmups.size(); ++i) {
        if (conn->Ask(warmups[i].text, &bodies[i]) != kStatusOk) {
          report.Fail("set-up query '" + warmups[i].text + "' failed: " + bodies[i]);
        }
      }
    }
    if (!serving) {
      setup_s.push_back(SecondsSince(start));
    }
    Fnv64 golden;
    golden.Add(agg_campaign);
    golden.Add(agg_sweep);
    for (size_t i = 0; i < warmups.size(); ++i) {
      check_answer(warmups[i].text, bodies[i]);
      golden.Add(bodies[i]);
    }
    NoteGolden(report, golden.Hex());
    if (serving) {
      for (unsigned c = 0; c < threads; ++c) {
        conns.push_back(std::make_unique<QueryConnection>(socket_path));
      }
      std::string stats;
      conns[0]->Ask("STATS", &stats);
      before = ParseServerStats(stats);
    } else {
      const ChildResult stopped = daemon->Stop();
      if (!stopped.ok()) {
        report.Fail("wlansim_queryd did not shut down cleanly");
      }
      setup_rss_kb.push_back(static_cast<double>(stopped.max_rss_kb));
    }
  }

  std::map<uint64_t, std::string> digests;
  const LoopResult loop = RunClosedLoop(
      threads, config.seconds, config.smoke ? SmokeCap(report.workload) : kNoCap,
      [&](uint64_t i, unsigned client) {
        const Query q = QueryFor(config.seed, i);
        std::string body;
        const auto start = Clock::now();
        const uint8_t status = conns[client]->Ask(q.text, &body);
        Outcome outcome{status == kStatusOk, SecondsSince(start) * 1e3, 0};
        if (!outcome.ok) {
          std::fprintf(stderr, "results_query '%s': %s", q.text.c_str(), body.c_str());
        } else if (check_answer(q.text, body)) {
          std::lock_guard<std::mutex> lock(mu);
          digests[i] = DigestHex(body);
        } else {
          outcome.ok = false;
        }
        return outcome;
      });
  std::string stats;
  conns[0]->Ask("STATS", &stats);
  const ServerStats after = ParseServerStats(stats);
  conns.clear();
  const ChildResult served = daemon->Stop();
  if (!served.ok()) {
    report.Fail("wlansim_queryd did not shut down cleanly");
  }

  AddEndToEndMetrics(report, setup_s, loop, setup_rss_kb);
  report.digest = FoldInOrder(digests);
  const uint64_t done = loop.latency_ms.size();
  const uint64_t lookups = after.lookups - before.lookups;
  report.extras.push_back({"latency_ms_p99", Percentile(loop.latency_ms, 99), "ms", done});
  report.extras.push_back(
      {"serving_peak_rss_mb", static_cast<double>(served.max_rss_kb) / 1024.0, "MB", 1});
  report.extras.push_back(
      {"query.cache_hit_frac",
       lookups > 0 ? static_cast<double>(after.hits - before.hits) / static_cast<double>(lookups)
                   : 0.0,
       "ratio", lookups});
  report.extras.push_back({"query.cache_evictions",
                           static_cast<double>(after.evictions - before.evictions), "count",
                           lookups});
  report.extras.push_back({"query.worker_busy_frac",
                           (after.busy_us - before.busy_us) / 1e6 / (threads * loop.wall_s),
                           "ratio", done});
  return report;
}

}  // namespace wlansim::e2e
