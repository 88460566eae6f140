#include "workloads.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/random.h"
#include "query/protocol.h"
#include "runner/scenario_registry.h"

namespace wlansim::e2e {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"dense_bss", "city_grid", "scenario_mix",
                                                 "results_write", "results_query"};
  return names;
}

std::vector<Profile> SimProfiles(const std::string& workload, bool smoke) {
  if (workload == "dense_bss") {
    // 45 co-channel nodes that all hear each other.
    Profile p{"dense_multi_bss", {{"n_bss", "9"}, {"stas_per_bss", "4"}}, 1};
    if (smoke) {
      p.params.emplace_back("sim_time_s", "0.5");
    }
    return {p};
  }
  if (workload == "city_grid") {
    // 192 nodes on the spatial index with the -100 dBm cutoff. Larger grids
    // made run-to-run times several times noisier on a 4-vCPU VM.
    return {{"city_grid",
             {{"n_bss", smoke ? "16" : "64"},
              {"sim_time_s", smoke ? "0.1" : "0.3"},
              {"spatial", "true"}},
             1}};
  }
  if (workload == "scenario_mix") {
    // Every registered simulation scenario, each request sized to about
    // 0.2-0.3 s of one core.
    std::vector<Profile> mix = {
        {"saturation", {{"cipher", "ccmp"}, {"n_stas", "4"}}, 1},
        {"hidden_terminal", {}, 8},
        {"edca", {}, 4},
        {"dense_multi_bss", {}, 2},
        {"city_grid", {}, 2},
        {"rate_vs_distance", {{"controller", "minstrel"}, {"fading", "true"}}, 24},
        {"ism_interference", {}, 16},
        {"sensor_coexistence", {{"with_jammer", "true"}}, 16},
        {"lora_coexistence", {}, 8},
        {"adhoc_vs_infra", {}, 4},
        {"coexistence", {}, 2},
        {"fragmentation", {}, 24},
        {"roaming", {{"n_aps", "3"}}, 32},
    };
    if (smoke) {
      for (Profile& p : mix) {
        p.params.emplace_back("sim_time_s", p.scenario == "roaming" ? "2" : "0.5");
        p.reps = 1;
      }
    }
    return mix;
  }
  throw std::invalid_argument("not a simulation workload: " + workload);
}

uint64_t RequestSeed(uint64_t seed, const std::string& workload, uint64_t index) {
  return SubstreamSeed(seed, workload, index);
}

double SimSecondsPerRep(const Profile& profile) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(profile.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario " + profile.scenario);
  }
  std::string sim_time;
  for (const ParamSpec& spec : scenario->param_specs()) {
    if (spec.name == "sim_time_s") {
      sim_time = spec.default_value;
    }
  }
  for (const auto& [key, value] : profile.params) {
    if (key == "sim_time_s") {
      sim_time = value;
    }
  }
  const double seconds = std::stod(sim_time);
  return profile.scenario == "roaming" ? seconds : 1.0 + seconds;
}

std::string CheckAggregateCsv(const std::string& csv, uint64_t reps) {
  static const std::string kHeader = "metric,count,mean,stddev,ci95_half,min,max,p50";
  if (csv.compare(0, kHeader.size(), kHeader) != 0) {
    return "aggregate CSV has an unexpected header";
  }
  size_t rows = 0;
  size_t pos = csv.find('\n');
  while (pos != std::string::npos && pos + 1 < csv.size()) {
    const size_t end = csv.find('\n', pos + 1);
    const std::string row = csv.substr(pos + 1, end - pos - 1);
    const size_t c1 = row.find(',');
    const size_t c2 = c1 == std::string::npos ? c1 : row.find(',', c1 + 1);
    if (c2 == std::string::npos || std::count(row.begin(), row.end(), ',') != 8 ||
        row.substr(c1 + 1, c2 - c1 - 1) != std::to_string(reps)) {
      return "aggregate CSV row '" + row + "' is malformed or does not count " +
             std::to_string(reps) + " replications";
    }
    ++rows;
    pos = end;
  }
  return rows > 0 ? "" : "aggregate CSV has no metric rows";
}

namespace {

// The wlansim_run arguments of one simulation request writing its aggregate
// CSV to `csv_path`.
std::vector<std::string> SimArgs(const Config& config, const Profile& profile,
                                 uint64_t campaign_seed, const std::string& csv_path) {
  std::vector<std::string> argv = {config.programs.run, "--scenario=" + profile.scenario};
  for (const auto& [key, value] : profile.params) {
    argv.push_back("--param=" + key + "=" + value);
  }
  argv.push_back("--reps=" + std::to_string(profile.reps));
  argv.push_back("--jobs=1");
  argv.push_back("--seed=" + std::to_string(campaign_seed));
  argv.push_back("--quiet");
  argv.push_back("--verbose");
  argv.push_back("--csv=" + csv_path);
  return argv;
}

// Reads the `--verbose` footer counters; false when the footer is missing.
bool ParseHotPathFooter(const std::string& output, uint64_t* bytes_copied,
                        uint64_t* heap_fallbacks) {
  const size_t copied = output.find("bytes_copied=");
  const size_t fallbacks = output.find("heap_fallbacks=");
  if (copied == std::string::npos || fallbacks == std::string::npos) {
    return false;
  }
  *bytes_copied = std::strtoull(output.c_str() + copied + 13, nullptr, 10);
  *heap_fallbacks = std::strtoull(output.c_str() + fallbacks + 15, nullptr, 10);
  return true;
}

}  // namespace

SimOutput RunSimRequest(const Config& config, const Profile& profile, uint64_t campaign_seed,
                        const std::string& tag) {
  SimOutput out;
  const ChildResult child =
      RunProcess(SimArgs(config, profile, campaign_seed, tag + ".csv"), tag + ".out");
  out.outcome.latency_ms = child.wall_ms;
  out.outcome.rss_kb = child.max_rss_kb;
  const std::string output = ReadFile(tag + ".out");
  if (!child.ok()) {
    out.error = (child.timed_out ? "timed out: " : "failed: ") + output;
  } else {
    out.csv = ReadFile(tag + ".csv");
    out.error = CheckAggregateCsv(out.csv, profile.reps);
    if (out.error.empty() &&
        !ParseHotPathFooter(output, &out.bytes_copied, &out.heap_fallbacks)) {
      out.error = "no --verbose footer in the output";
    }
  }
  out.outcome.ok = out.error.empty();
  RemoveFile(tag + ".out");
  RemoveFile(tag + ".csv");
  return out;
}

std::vector<std::string> WriteArgs(const Config& config, unsigned jobs, uint64_t campaign_seed,
                                   const std::string& tag) {
  return {config.programs.run,
          "--scenario=pipeline_probe",
          "--param=counters=8",
          "--param=hist=true",
          "--reps=" + std::to_string(kWriteReps),
          "--jobs=" + std::to_string(jobs),
          "--seed=" + std::to_string(campaign_seed),
          "--quiet",
          "--csv=" + tag + ".csv",
          "--binary-out=" + tag + ".wlsr"};
}

ResultsData WriteResultsData(const Config& config, const std::string& dir,
                             SpanRecorder* recorder, uint64_t parent) {
  constexpr int campaign_files = 2;
  const uint64_t campaign_reps = config.smoke ? 10000 : 100000;
  const uint64_t sweep_reps = config.smoke ? 500 : 5000;
  constexpr int kShards = 4;
  ResultsData data;
  data.dir = dir;
  std::filesystem::create_directories(dir);
  auto write = [&](const std::vector<std::string>& argv, const std::string& path) {
    std::unique_ptr<SpanRecorder::Scope> span;
    if (recorder != nullptr) {
      span = std::make_unique<SpanRecorder::Scope>(*recorder, "tools.wlansim_run.write", parent);
    }
    const ChildResult result = RunProcess(argv, path + ".out");
    if (!result.ok()) {
      throw std::runtime_error("writing " + path + " failed:\n" + ReadFile(path + ".out"));
    }
    RemoveFile(path + ".out");
  };
  for (int f = 0; f < campaign_files; ++f) {
    const std::string path = dir + "/campaign_" + std::to_string(f) + ".wlsr";
    write({config.programs.run, "--scenario=pipeline_probe", "--param=counters=8",
           "--param=hist=true", "--reps=" + std::to_string(campaign_reps),
           "--jobs=" + std::to_string(config.clients),
           "--seed=" + std::to_string(SubstreamSeed(1, "results_query.campaign", f)), "--quiet",
           "--binary-out=" + path},
          path);
    data.campaign_files.push_back(path);
    data.campaign_rows += campaign_reps;
  }
  for (int s = 0; s < kShards; ++s) {
    const std::string path = dir + "/sweep_" + std::to_string(s) + ".wlsr";
    write({config.programs.run, "--scenario=pipeline_probe", "--sweep=samples=16,32,64,128",
           "--sweep=n_metrics=2,4", "--param=counters=4", "--param=hist=true",
           "--reps=" + std::to_string(sweep_reps), "--jobs=" + std::to_string(config.clients),
           "--seed=" + std::to_string(SubstreamSeed(1, "results_query.sweep", 0)),
           "--shard=" + std::to_string(s) + "/" + std::to_string(kShards), "--quiet",
           "--binary-out=" + path},
          path);
    data.sweep_files.push_back(path);
  }
  return data;
}

unsigned QueryCacheMb(bool smoke) { return smoke ? 1 : 16; }

namespace {

struct QueryClass {
  const char* name;
  int share;  // queries per block of 100
};

constexpr QueryClass kQueryClasses[] = {
    {"sel_sweep", 40}, {"hist_sweep", 12}, {"schema", 3},  {"agg_sweep", 18},
    {"sel_camp", 15},  {"hist_camp", 10},  {"agg_camp", 2},
};

Query MakeQuery(const std::string& klass, Rng& rng) {
  static const char* kSamples[] = {"16", "32", "64", "128"};
  if (klass == "sel_sweep") {
    return {klass, std::string("SELECT value_0,count_1 FROM pipeline_probe:sweep WHERE samples=") +
                       kSamples[rng.UniformInt(0, 3)] + " GROUP BY n_metrics"};
  }
  if (klass == "hist_sweep") {
    return {klass, "HIST pipeline_probe:sweep latency_hist WHERE n_metrics=" +
                       std::to_string(rng.Chance(0.5) ? 2 : 4)};
  }
  if (klass == "schema") {
    return {klass, "SCHEMA pipeline_probe:campaign"};
  }
  if (klass == "agg_sweep") {
    return {klass, "AGGREGATE pipeline_probe:sweep"};
  }
  if (klass == "sel_camp") {
    const int64_t counter = rng.UniformInt(0, 7);
    const int64_t value = rng.UniformInt(0, 2);
    return {klass, "SELECT count_" + std::to_string(counter) + ",value_" + std::to_string(value) +
                       " FROM pipeline_probe:campaign"};
  }
  if (klass == "hist_camp") {
    return {klass, "HIST pipeline_probe:campaign latency_hist"};
  }
  return {klass, "AGGREGATE pipeline_probe:campaign"};
}

}  // namespace

const std::vector<std::string>& QueryClasses() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const QueryClass& c : kQueryClasses) {
      out.emplace_back(c.name);
    }
    return out;
  }();
  return names;
}

Query QueryFor(uint64_t seed, uint64_t index) {
  std::vector<const char*> slots;
  for (const QueryClass& c : kQueryClasses) {
    slots.insert(slots.end(), static_cast<size_t>(c.share), c.name);
  }
  Rng order = Rng::Substream(seed, "results_query.mix", index / slots.size());
  for (size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[static_cast<size_t>(order.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  Rng params = Rng::Substream(seed, "results_query.params", index);
  return MakeQuery(slots[index % slots.size()], params);
}

std::vector<Query> WarmupQueries() {
  std::vector<Query> queries;
  uint64_t index = 0;
  for (const QueryClass& c : kQueryClasses) {
    Rng params = Rng::Substream(1, "results_query.warmup", index++);
    queries.push_back(MakeQuery(c.name, params));
  }
  return queries;
}

QueryConnection::QueryConnection(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") + std::strerror(errno));
  }
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot connect to " + socket_path + ": " + reason);
  }
}

QueryConnection::~QueryConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

uint8_t QueryConnection::Ask(const std::string& query, std::string* body) {
  WriteFrame(fd_, query);
  std::string payload;
  if (!ReadFrame(fd_, &payload)) {
    throw std::runtime_error("query daemon closed the connection");
  }
  return DecodeResponse(payload, body);
}

std::unique_ptr<QueryConnection> ConnectWhenReady(Daemon& daemon, const std::string& socket_path) {
  const auto start = Clock::now();
  while (true) {
    try {
      return std::make_unique<QueryConnection>(socket_path);
    } catch (const std::runtime_error&) {
      if (daemon.Exited() || SecondsSince(start) > 60.0) {
        throw std::runtime_error("wlansim_queryd did not start listening on " + socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

ServerStats ParseServerStats(const std::string& stats) {
  ServerStats out;
  size_t pos = 0;
  while (pos < stats.size()) {
    size_t end = stats.find('\n', pos);
    if (end == std::string::npos) {
      end = stats.size();
    }
    const std::string line = stats.substr(pos, end - pos);
    unsigned long long lookups = 0;
    unsigned long long hits = 0;
    unsigned long long misses = 0;
    unsigned long long evictions = 0;
    unsigned long long count = 0;
    double mean = 0.0;
    if (std::sscanf(line.c_str(), "cache lookups=%llu hits=%llu misses=%llu evictions=%llu",
                    &lookups, &hits, &misses, &evictions) == 4) {
      out.lookups = lookups;
      out.hits = hits;
      out.evictions = evictions;
    } else if (line.rfind("latency ", 0) == 0) {
      const size_t fields = line.find(": count=");
      if (fields != std::string::npos &&
          std::sscanf(line.c_str() + fields, ": count=%llu mean=%lf", &count, &mean) == 2) {
        out.busy_us += static_cast<double>(count) * mean;
      }
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace wlansim::e2e
