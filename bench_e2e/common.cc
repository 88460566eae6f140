#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "e2e.h"

extern char** environ;

namespace wlansim::e2e {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "%s: %s\n", workload.c_str(), why.c_str());
}

void Report::Add(std::string name, double value, std::string unit, uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

void Fnv64::AddRaw(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv64::Add(std::string_view bytes) {
  unsigned char length[8];
  for (int i = 0; i < 8; ++i) {
    length[i] = static_cast<unsigned char>(static_cast<uint64_t>(bytes.size()) >> (8 * i));
  }
  AddRaw(length, sizeof(length));
  AddRaw(bytes.data(), bytes.size());
}

std::string Fnv64::Hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash_));
  return text;
}

std::string DigestHex(std::string_view bytes) {
  Fnv64 digest;
  digest.Add(bytes);
  return digest.Hex();
}

namespace {

pid_t Spawn(const std::vector<std::string>& argv, const std::string& output_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, output_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv.at(0).c_str(), &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + " writing to " + output_path + ": " +
                             std::strerror(rc));
  }
  return pid;
}

// Blocks until `pid` can be reaped or the deadline passes; false on timeout.
bool AwaitExit(pid_t pid, Clock::time_point deadline) {
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    return true;  // no pidfd_open (Linux < 5.3): the reap blocks, without a timeout
  }
  bool exited = false;
  while (true) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    pollfd pfd{pidfd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(left.count(), 0)));
    if (ready > 0) {
      exited = true;
      break;
    }
    if (ready == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(pidfd);
  return exited;
}

ChildResult Reap(pid_t pid, Clock::time_point start, bool timed_out) {
  ChildResult result;
  result.timed_out = timed_out;
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4 failed: ") + std::strerror(errno));
    }
  }
  result.wall_ms = SecondsSince(start) * 1e3;
  result.max_rss_kb = usage.ru_maxrss;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Waits for `pid`, killing it once `timeout_s` has passed since `start`.
ChildResult WaitChild(pid_t pid, Clock::time_point start, double timeout_s) {
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(timeout_s));
  const bool exited = AwaitExit(pid, deadline);
  if (!exited) {
    ::kill(pid, SIGKILL);
  }
  return Reap(pid, start, !exited);
}

}  // namespace

ChildResult RunProcess(const std::vector<std::string>& argv, const std::string& output_path,
                       double timeout_s) {
  const auto start = Clock::now();
  return WaitChild(Spawn(argv, output_path), start, timeout_s);
}

Daemon::Daemon(const std::vector<std::string>& argv, const std::string& output_path)
    : pid_(Spawn(argv, output_path)), start_(Clock::now()) {}

Daemon::~Daemon() {
  try {
    Stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stopping %d: %s\n", static_cast<int>(pid_), e.what());
  }
}

bool Daemon::Exited() {
  if (!reaped_ && AwaitExit(pid_, Clock::now())) {
    result_ = Reap(pid_, start_, false);
    reaped_ = true;
  }
  return reaped_;
}

ChildResult Daemon::Stop() {
  if (!reaped_) {
    ::kill(pid_, SIGTERM);
    result_ = WaitChild(pid_, Clock::now(), 10.0);
    reaped_ = true;
  }
  return result_;
}

std::string Tag(std::string prefix, uint64_t index) {
  prefix += std::to_string(index);
  return prefix;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void RemoveFile(const std::string& path) { ::unlink(path.c_str()); }

LoopResult RunClosedLoop(unsigned clients, double seconds, uint64_t cap,
                         const std::function<Outcome(uint64_t, unsigned)>& request) {
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  LoopResult result;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  auto client_loop = [&](unsigned client) {
    while (Clock::now() < deadline) {
      const uint64_t index = next.fetch_add(1);
      if (index >= cap) {
        return;
      }
      Outcome outcome;
      try {
        outcome = request(index, client);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %llu: %s\n", static_cast<unsigned long long>(index),
                     e.what());
        outcome.ok = false;
      }
      std::lock_guard<std::mutex> lock(mu);
      ++result.attempted;
      if (outcome.ok) {
        result.latency_ms.push_back(outcome.latency_ms);
        result.rss_kb.push_back(static_cast<double>(outcome.rss_kb));
      } else {
        ++result.failed;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.wall_s = SecondsSince(start);
  return result;
}

void AddEndToEndMetrics(Report& report, const std::vector<double>& setup_s,
                        const LoopResult& loop, const std::vector<double>& rss_kb) {
  const uint64_t done = loop.latency_ms.size();
  report.attempted += loop.attempted;
  report.failed += loop.failed;
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("requests_per_s", loop.wall_s > 0 ? static_cast<double>(done) / loop.wall_s : 0.0,
             "1/s", done);
  report.Add("latency_ms_p50", Percentile(loop.latency_ms, 50), "ms", done);
  report.Add("latency_ms_p90", Percentile(loop.latency_ms, 90), "ms", done);
  report.Add("peak_rss_mb", Median(rss_kb) / 1024.0, "MB", rss_kb.size());
}

// ---- spans -----------------------------------------------------------------

namespace {

unsigned ThreadIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char code[8];
      std::snprintf(code, sizeof(code), "\\u%04x", c);
      out += code;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name, uint64_t parent,
                           int64_t request)
    : recorder_(recorder) {
  span_.id = recorder.next_id_.fetch_add(1);
  span_.parent = parent;
  span_.request = request;
  span_.name = std::move(name);
  span_.thread = ThreadIndex();
  span_.start_ns = recorder.Now();
}

SpanRecorder::Scope::~Scope() {
  if (open_) {
    End();
  }
}

double SpanRecorder::Scope::End() {
  if (open_) {
    span_.end_ns = recorder_.Now();
    open_ = false;
    std::lock_guard<std::mutex> lock(recorder_.mu_);
    recorder_.spans_.push_back(span_);
  }
  return static_cast<double>(span_.end_ns - span_.start_ns) / 1e6;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  // Self time: duration minus the union of the children's intervals,
  // clipped to the parent (children may run in parallel on other threads).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  auto index_of = [&spans](uint64_t id) -> size_t {
    const auto it = std::lower_bound(spans.begin(), spans.end(), id,
                                     [](const Span& s, uint64_t v) { return s.id < v; });
    return it != spans.end() && it->id == id ? static_cast<size_t>(it - spans.begin())
                                             : spans.size();
  };
  for (const Span& span : spans) {
    const size_t parent = index_of(span.parent);
    if (span.parent != 0 && parent < spans.size()) {
      children[parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": \"" << JsonEscape(s.name) << "\", \"thread\": " << s.thread
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << (s.end_ns - s.start_ns - covered) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace wlansim::e2e
