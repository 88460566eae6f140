// wlansim_bench_e2e — the end-to-end benchmark. It drives wlansim_run,
// wlansim_queryd and wlansim_results as child processes through five
// workloads, prints every end-to-end metric with its unit and sample count,
// and checks the outputs against the digests in digests.txt. A separate
// traced run (--trace) splits the work among the layers. README.md in this
// directory describes the workloads, metrics and span format.
//
//   wlansim_bench_e2e --json=out.json                  every workload, seed 1
//   wlansim_bench_e2e --workload=dense_bss --seed=7 --seconds=10
//   wlansim_bench_e2e --trace=spans.json               the traced run
//   wlansim_bench_e2e --smoke                          tiny profiles, all checks

#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.h"

namespace wlansim::e2e {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wlansim_bench_e2e [options]\n"
               "\n"
               "  --workload=NAME   dense_bss, city_grid, scenario_mix, results_write,\n"
               "                    results_query, or all (default all)\n"
               "  --seed=N          seed of the request lists (default 1)\n"
               "  --seconds=S       length of each measured phase (default 10)\n"
               "  --trace=FILE      run the traced run instead: per-layer metrics, spans to FILE\n"
               "  --json=FILE       also write the full report, with provenance, as JSON\n"
               "  --smoke           tiny fixed request lists plus the traced run; exits 1\n"
               "                    unless every check passes (any build type)\n");
  return 2;
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// digests.txt: "golden <workload> <full|smoke> <hex>" lines; '#' comments.
std::map<std::string, std::string> ReadGoldens(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::map<std::string, std::string> goldens;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag, workload, mode, hex;
    if (fields >> tag >> workload >> mode >> hex && tag == "golden") {
      goldens[workload + " " + mode] = hex;
    }
  }
  return goldens;
}

// The shortest text that reads back as exactly `value`.
std::string JsonNumber(double value) {
  char text[40];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  return std::string(text, result.ptr);
}

// The result line: exactly correct, attempted, failed and metrics.
std::string ResultLine(const Report& report) {
  std::string line = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    line += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return line + "}}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", " : "") + std::string("{\"name\": \"") + m.name +
           "\", \"value\": " + JsonNumber(m.value) + ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "]";
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s (n=%llu)\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

// Removes the working directory on every exit path.
class WorkDir {
 public:
  WorkDir() {
    std::filesystem::create_directories(".bench_work");
    std::string pattern = ".bench_work/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a working directory under .bench_work");
    }
    path_ = std::filesystem::absolute(pattern);
    home_ = std::filesystem::current_path();
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::current_path(home_, ec);
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(path_.parent_path(), ec);  // only if now empty
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  std::filesystem::path home_;
};

int Main(int argc, char** argv) {
  Config config;
  std::string workload = "all";
  std::string trace_path;
  std::string json_path;
  const std::string digests_path = WLANSIM_E2E_DIGESTS;
  bool seconds_given = false;

  auto value_of = [](const char* arg, const char* flag) -> const char* {
    const size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 && arg[n] == '=' ? arg + n + 1 : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    char* end = nullptr;
    if ((v = value_of(arg, "--workload")) != nullptr) {
      workload = v;
    } else if ((v = value_of(arg, "--seed")) != nullptr) {
      if (*v == '\0' || std::strspn(v, "0123456789") != std::strlen(v)) {
        std::fprintf(stderr, "--seed expects a non-negative integer, got '%s'\n", v);
        return Usage();
      }
      config.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of(arg, "--seconds")) != nullptr) {
      config.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(config.seconds > 0) || config.seconds > 3600) {
        std::fprintf(stderr, "--seconds expects a positive number, got '%s'\n", v);
        return Usage();
      }
      seconds_given = true;
    } else if ((v = value_of(arg, "--trace")) != nullptr) {
      trace_path = std::filesystem::absolute(v);
    } else if ((v = value_of(arg, "--json")) != nullptr) {
      json_path = std::filesystem::absolute(v);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else {
      if (std::strcmp(arg, "--help") != 0) {
        std::fprintf(stderr, "unknown option '%s'\n\n", arg);
      }
      return Usage();
    }
  }
  std::vector<std::string> workloads = WorkloadNames();
  if (workload != "all") {
    if (std::find(workloads.begin(), workloads.end(), workload) == workloads.end()) {
      std::fprintf(stderr, "unknown workload '%s'\n\n", workload.c_str());
      return Usage();
    }
    workloads = {workload};
  }
  if (!trace_path.empty()) {
    workloads = {workload};  // one traced run covers every workload's layers
  }
  if (config.smoke) {
    config.setup_repeats = 1;
    if (!seconds_given) {
      config.seconds = 60;  // smoke runs stop at their fixed request counts
    }
  }
  config.clients = std::min(4u, UsableCpus());
  config.programs = {WLANSIM_RUN_BIN,    WLANSIM_QUERYD_BIN, WLANSIM_RESULTS_BIN,
                     WLANSIM_BENCH_M1,   WLANSIM_BENCH_M2,   WLANSIM_BENCH_M3,
                     WLANSIM_BENCH_M4,   WLANSIM_BENCH_M6};
  const std::map<std::string, std::string> goldens = ReadGoldens(digests_path);
  const std::string mode = config.smoke ? "smoke" : "full";

  WorkDir workdir;
  std::filesystem::current_path(workdir.path());

  // Provenance: the build under test and the load shape.
  const ChildResult version_run = RunProcess({config.programs.run, "--version"}, "version.out");
  std::string version = ReadFile("version.out");
  version.erase(version.find_last_not_of("\n") + 1);
  if (!version_run.ok()) {
    std::fprintf(stderr, "wlansim_run --version failed: %s\n", version.c_str());
    return 1;
  }
  const bool release = version.find("(Release)") != std::string::npos;
  const std::string fs = FilesystemName(".");
  std::printf("provenance version=\"%s\" nproc=%u clients=%u jobs=%u seed=%llu seconds=%g "
              "workdir_fs=%s mode=%s\n",
              version.c_str(), UsableCpus(), config.clients, config.clients,
              static_cast<unsigned long long>(config.seed), config.seconds, fs.c_str(),
              mode.c_str());
  std::fflush(stdout);
  if (!release && !config.smoke) {
    std::fprintf(stderr, "refusing to time a non-Release build (%s); rebuild with "
                         "-DCMAKE_BUILD_TYPE=Release or use --smoke\n",
                 version.c_str());
    return 2;
  }

  std::vector<Report> reports;
  try {
    for (const std::string& name : workloads) {
      Report report;
      if (!trace_path.empty()) {
        report = RunTraced(config, name, trace_path);
      } else if (name == "results_write") {
        report = RunWriteWorkload(config);
      } else if (name == "results_query") {
        report = RunQueryWorkload(config);
      } else {
        report = RunSimWorkload(config, name);
      }
      if (trace_path.empty()) {
        const auto it = goldens.find(name + " " + mode);
        std::printf("golden %s %s %s\n", name.c_str(), mode.c_str(), report.golden.c_str());
        std::printf("digest %s seed=%llu requests=%llu %s\n", name.c_str(),
                    static_cast<unsigned long long>(config.seed),
                    static_cast<unsigned long long>(report.attempted), report.digest.c_str());
        if (it == goldens.end()) {
          report.Fail("no " + mode + " digest recorded in " + digests_path);
        } else if (it->second != report.golden) {
          report.Fail("set-up outputs digest " + report.golden + ", " + digests_path +
                      " records " + it->second);
        }
      }
      for (const Metric& m : report.metrics) {
        if (m.unit.empty() || !std::isfinite(m.value)) {
          report.Fail("metric " + m.name + " has no unit or no finite value");
        }
      }
      PrintMetrics(name, report.metrics);
      PrintMetrics(name, report.extras);
      std::printf("%s\n", ResultLine(report).c_str());
      std::fflush(stdout);
      reports.push_back(std::move(report));
    }
    if (config.smoke && trace_path.empty()) {
      Report traced = RunTraced(config, "smoke", "spans.json");
      PrintMetrics("traced", traced.metrics);
      reports.push_back(std::move(traced));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << "{\"provenance\": {\"version\": \"" << version << "\", \"nproc\": " << UsableCpus()
        << ", \"clients\": " << config.clients << ", \"jobs\": " << config.clients
        << ", \"seed\": " << config.seed << ", \"seconds\": " << JsonNumber(config.seconds)
        << ", \"workdir_fs\": \"" << fs << "\", \"mode\": \"" << mode << "\"},\n"
        << " \"reports\": [\n";
    for (size_t i = 0; i < reports.size(); ++i) {
      const Report& r = reports[i];
      out << "  {\"workload\": \"" << r.workload << "\", \"correct\": "
          << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
          << ", \"failed\": " << r.failed << ", \"golden\": \"" << r.golden
          << "\", \"digest\": \"" << r.digest << "\",\n   \"metrics\": " << MetricsJson(r.metrics)
          << ",\n   \"extras\": " << MetricsJson(r.extras) << "}"
          << (i + 1 < reports.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (config.smoke) {
    for (const Report& r : reports) {
      if (!r.correct || r.failed > 0) {
        std::fprintf(stderr, "smoke check failed: %s\n", r.workload.c_str());
        return 1;
      }
    }
    std::printf("smoke checks passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace wlansim::e2e

int main(int argc, char** argv) { return wlansim::e2e::Main(argc, argv); }
