// Request generation shared by the end-to-end workloads and the traced run:
// simulation profiles, the results data set, the query mix, and a client
// for the query daemon's frame protocol.

#ifndef WLANSIM_BENCH_E2E_WORKLOADS_H_
#define WLANSIM_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2e.h"

namespace wlansim::e2e {

// One kind of wlansim_run request: a scenario, its parameters and a
// replication count.
struct Profile {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> params;
  uint64_t reps = 1;
};

// The request kinds of a simulation workload. Request i of a run uses
// profile i % size() and campaign seed RequestSeed(seed, workload, i).
std::vector<Profile> SimProfiles(const std::string& workload, bool smoke);

uint64_t RequestSeed(uint64_t seed, const std::string& workload, uint64_t index);

// Simulated seconds per replication: the 1 s warm-up plus sim_time_s, except
// for roaming, whose sim_time_s is the whole run.
double SimSecondsPerRep(const Profile& profile);

// Checks a wlansim_run aggregate CSV: the header, then at least one metric
// row whose count is `reps`. Returns an empty string or what is wrong.
std::string CheckAggregateCsv(const std::string& csv, uint64_t reps);

struct SimOutput {
  Outcome outcome;
  std::string csv;
  uint64_t bytes_copied = 0;    // from the --verbose footer
  uint64_t heap_fallbacks = 0;  // from the --verbose footer
  std::string error;            // empty when the request succeeded and checked
};

// Runs one simulation request as a wlansim_run child, checks its aggregate
// CSV and footer, and removes its files (named after `tag`).
SimOutput RunSimRequest(const Config& config, const Profile& profile, uint64_t campaign_seed,
                        const std::string& tag);

// Replications of one pipeline_probe write request: the size at which
// wlansim_run streams its records.
inline constexpr uint64_t kWriteReps = 10000;

// The wlansim_run arguments of one results_write campaign on `jobs` workers.
std::vector<std::string> WriteArgs(const Config& config, unsigned jobs, uint64_t campaign_seed,
                                   const std::string& tag);

// The fixed (seed-independent) WLSR files that results_query serves.
struct ResultsData {
  std::string dir;
  std::vector<std::string> campaign_files;
  std::vector<std::string> sweep_files;
  uint64_t campaign_rows = 0;
};

// Writes the data set with wlansim_run into `dir`; throws on failure. When
// `recorder` is set, each write is a span under `parent`.
ResultsData WriteResultsData(const Config& config, const std::string& dir,
                             SpanRecorder* recorder = nullptr, uint64_t parent = 0);

// Cache budget of the query daemon, in MiB: about half of the decoded
// campaign columns, so LRU eviction is active.
unsigned QueryCacheMb(bool smoke);

struct Query {
  std::string klass;
  std::string text;
};

// The query classes, in report order.
const std::vector<std::string>& QueryClasses();

// Query `index` of the stream drawn from `seed`. Each block of 100 queries
// holds every class in its fixed share, shuffled, so the work per run does
// not swing with the seed.
Query QueryFor(uint64_t seed, uint64_t index);

// One fixed query per class: the set-up warm-up.
std::vector<Query> WarmupQueries();

// A connection to wlansim_queryd speaking the frame protocol.
class QueryConnection {
 public:
  // Connects to `socket_path`; throws std::runtime_error on failure.
  explicit QueryConnection(const std::string& socket_path);
  ~QueryConnection();
  QueryConnection(const QueryConnection&) = delete;
  QueryConnection& operator=(const QueryConnection&) = delete;

  // Sends one query and returns the status byte; `body` receives the answer
  // or the error text. Throws on a broken connection or a 60 s timeout.
  uint8_t Ask(const std::string& query, std::string* body);

 private:
  int fd_ = -1;
};

// Connects once the daemon listens; throws if it exits or 60 s pass.
std::unique_ptr<QueryConnection> ConnectWhenReady(Daemon& daemon, const std::string& socket_path);

// Parses the counters of a STATS answer.
struct ServerStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  double busy_us = 0.0;  // sum over verbs of count x mean service time
};
ServerStats ParseServerStats(const std::string& stats);

}  // namespace wlansim::e2e

#endif  // WLANSIM_BENCH_E2E_WORKLOADS_H_
