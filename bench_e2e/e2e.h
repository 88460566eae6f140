// Shared pieces of wlansim_bench_e2e, the end-to-end benchmark: the run
// configuration, metric reports, child-process control, the closed-loop
// load generator, output digests and the span recorder of the traced run.
//
// The benchmark drives the binaries users run (wlansim_run, wlansim_queryd,
// wlansim_results) as child processes; only the traced run calls library
// functions directly, to split a request's time among the layers.

#ifndef WLANSIM_BENCH_E2E_E2E_H_
#define WLANSIM_BENCH_E2E_E2E_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wlansim::e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// Absolute paths of the programs the benchmark runs, fixed at build time.
struct Programs {
  std::string run;
  std::string queryd;
  std::string results;
  std::string m1;
  std::string m2;
  std::string m3;
  std::string m4;
  std::string m6;
};

struct Config {
  uint64_t seed = 1;
  double seconds = 10.0;   // length of the measured phase
  unsigned clients = 4;    // C = J = min(4, usable CPUs)
  bool smoke = false;      // tiny profiles, fixed request counts
  unsigned setup_repeats = 3;
  Programs programs;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct Report {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Digest of the fixed (seed-independent) set-up outputs, compared with
  // digests.txt; empty for the traced run.
  std::string golden;
  // Digest of the measured requests' outputs in request order: equal for
  // two commits run with the same seed and request count.
  std::string digest;
  std::vector<Metric> metrics;  // the metrics BENCHMARK.json lists, in its order
  std::vector<Metric> extras;   // printed on stdout only

  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  void Add(std::string name, double value, std::string unit, uint64_t samples);
};

// ---- statistics ------------------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// ---- digests ---------------------------------------------------------------

// FNV-1a 64. Add() folds a length prefix before the bytes, so a fold of
// several outputs cannot be confused with a fold of their concatenation.
class Fnv64 {
 public:
  void Add(std::string_view bytes);
  std::string Hex() const;

 private:
  void AddRaw(const void* data, size_t size);
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string DigestHex(std::string_view bytes);

// ---- child processes -------------------------------------------------------

struct ChildResult {
  int exit_code = -1;  // -1 when killed by a signal
  bool timed_out = false;
  double wall_ms = 0.0;
  long max_rss_kb = 0;
  bool ok() const { return exit_code == 0 && !timed_out; }
};

// Runs argv[0] (an absolute path) with stdin from /dev/null and stdout plus
// stderr written to `output_path`, killing it after `timeout_s`. Throws
// std::runtime_error when the program cannot be started.
ChildResult RunProcess(const std::vector<std::string>& argv, const std::string& output_path,
                       double timeout_s = 60.0);

// A child started the same way and left running (the query daemon). The
// destructor stops it.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& output_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // True once the process has exited (it is then reaped).
  bool Exited();
  // SIGTERM, then waits up to 10 s before SIGKILL; returns the reaped result.
  ChildResult Stop();

 private:
  pid_t pid_ = -1;
  Clock::time_point start_;
  bool reaped_ = false;
  ChildResult result_;
};

// "<prefix><index>": a per-request file name stem. Every request writes
// fresh files; truncating an existing file on ext4 flushes it to disk
// first (auto_da_alloc), which adds tens of milliseconds to a request.
std::string Tag(std::string prefix, uint64_t index);

std::string ReadFile(const std::string& path);
void RemoveFile(const std::string& path);

// ---- load generation -------------------------------------------------------

struct Outcome {
  bool ok = false;
  double latency_ms = 0.0;
  long rss_kb = 0;
};

struct LoopResult {
  std::vector<double> latency_ms;  // successful requests only
  std::vector<double> rss_kb;      // successful requests only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};

// A closed loop: `clients` threads each claim the next request index and
// run request(index, client) until `seconds` have passed or `cap` indices
// are claimed; requests in flight at the deadline run to completion and
// count. An exception from a request counts as one failed request.
LoopResult RunClosedLoop(unsigned clients, double seconds, uint64_t cap,
                         const std::function<Outcome(uint64_t, unsigned)>& request);

// The end-to-end metric set shared by every workload, in BENCHMARK.json
// order: setup_s, requests_per_s, latency_ms_p50, latency_ms_p90 and
// peak_rss_mb, the median of `rss_kb` (each child's peak RSS).
void AddEndToEndMetrics(Report& report, const std::vector<double>& setup_s,
                        const LoopResult& loop, const std::vector<double>& rss_kb);

// ---- tracing ---------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t request = -1;
  std::string name;
  unsigned thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Collects spans in memory; WriteJson() adds each span's self time (its
// duration minus the part of it covered by its children).
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  // One span: opened by the constructor, closed by End() or the destructor.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, uint64_t parent = 0, int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }
    // Closes the span and returns its duration in milliseconds.
    double End();

   private:
    SpanRecorder& recorder_;
    Span span_;
    bool open_ = true;
  };

  size_t size() const;
  // Throws std::runtime_error when the file cannot be written.
  void WriteJson(const std::string& path) const;

 private:
  int64_t Now() const;

  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- workloads -------------------------------------------------------------

// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

Report RunSimWorkload(const Config& config, const std::string& workload);
Report RunWriteWorkload(const Config& config);
Report RunQueryWorkload(const Config& config);

// The traced run: the same for every workload, it covers every layer and
// reports the per-layer metrics. Spans go to `spans_path`.
Report RunTraced(const Config& config, const std::string& workload,
                 const std::string& spans_path);

}  // namespace wlansim::e2e

#endif  // WLANSIM_BENCH_E2E_E2E_H_
