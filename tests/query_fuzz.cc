// Seeded mutation fuzzer for the query grammar and the response framing.
//
// A campaign and a two-axis sweep, both with a histogram column, are
// written in-process and registered in one catalog. Each mutant applies one
// to three random edits to one of a fixed set of well-formed query lines:
// token edits (drop, duplicate, swap, replace or insert a grammar word,
// split or fuse tokens) and byte edits (bit flip, byte overwrite,
// insertion, deletion, truncation). Then
//   - QueryEngine::Execute must return a body or throw std::runtime_error,
//     and the answer (or error text) must not depend on the cache state:
//     a warm 64 MiB cache and a 1-byte cache give the same bytes;
//   - the answer, framed by EncodeResponse, must decode back to itself,
//     and DecodeResponse on a damaged copy of that payload must return a
//     known status or throw std::runtime_error.
// Any other outcome is a failure, printed with the mutant index that
// reproduces it.
//
// The run is a pure function of --seed and --mutants:
//   query_fuzz [--mutants=N] [--seed=S]

#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/random.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "query/protocol.h"
#include "results/binary_writer.h"
#include "runner/sweep.h"

namespace wlansim {
namespace {

std::string SeedFile(bool sweep) {
  std::ostringstream bin;
  BinaryResultsWriter writer(bin);
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 23;
  options.replications = 5;
  options.jobs = 1;
  options.base_params.Set("counters", "1");
  options.base_params.Set("hist", "true");
  if (sweep) {
    options.grid.AddAxis(ParseSweepAxis("n_metrics=1,2"));
    options.grid.AddAxis(ParseSweepAxis("samples=4,8"));
  } else {
    options.base_params.Set("samples", "8");
  }
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  return bin.str();
}

// Well-formed lines covering every verb and clause of the grammar.
const std::vector<std::string> kQueries = {
    "LIST",
    "SCHEMA pipeline_probe:sweep",
    "AGGREGATE pipeline_probe:campaign",
    "AGGREGATE pipeline_probe:sweep",
    "SELECT * FROM pipeline_probe:sweep",
    "SELECT value_0, count_0 FROM pipeline_probe:campaign",
    "SELECT value_0 FROM pipeline_probe:sweep WHERE n_metrics=2 AND samples=8",
    "SELECT value_0,value_1 FROM pipeline_probe:sweep WHERE n_metrics=2 GROUP BY samples",
    "SELECT * FROM pipeline_probe:sweep GROUP BY n_metrics,samples",
    "HIST pipeline_probe:campaign latency_hist",
    "HIST pipeline_probe:sweep latency_hist WHERE n_metrics=2 AND samples=4",
};

// Grammar words, names and near-misses a token edit draws from.
const std::vector<std::string> kWords = {
    "LIST", "SCHEMA", "AGGREGATE", "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "HIST",
    "*", ",", "=", "value_0", "value_1", "count_0", "latency_hist", "pipeline_probe:sweep",
    "pipeline_probe:campaign", "n_metrics", "samples", "n_metrics=2", "samples=8",
    "n_metrics=", "=2", "a,,b", "value_0,", ",value_1",
};

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  return tokens;
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    line += (line.empty() ? "" : " ") + token;
  }
  return line;
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

// One token edit; a no-op on an empty token list.
std::string MutateTokens(const std::string& line, Rng& rng, std::string* log) {
  std::vector<std::string> tokens = Split(line);
  if (tokens.empty()) {
    return line;
  }
  const size_t at = Pick(rng, tokens.size());
  const std::string& word = kWords[Pick(rng, kWords.size())];
  switch (rng.UniformInt(0, 6)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      *log += " drop#" + std::to_string(at);
      break;
    case 1: {
      const std::string copy = tokens[at];
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), copy);
      *log += " dup#" + std::to_string(at);
      break;
    }
    case 2:
      std::swap(tokens[at], tokens[Pick(rng, tokens.size())]);
      *log += " swap#" + std::to_string(at);
      break;
    case 3:
      tokens[at] = word;
      *log += " replace#" + std::to_string(at) + "=" + word;
      break;
    case 4:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), word);
      *log += " insert#" + std::to_string(at) + "=" + word;
      break;
    case 5: {
      const size_t cut = Pick(rng, tokens[at].size() + 1);
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at) + 1, tokens[at].substr(cut));
      tokens[at].resize(cut);
      *log += " split#" + std::to_string(at) + "@" + std::to_string(cut);
      break;
    }
    default:
      if (at + 1 < tokens.size()) {
        tokens[at] += tokens[at + 1];
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at) + 1);
      }
      *log += " fuse#" + std::to_string(at);
      break;
  }
  return Join(tokens);
}

// One byte edit; `bytes` may come back empty.
void MutateBytes(std::string& bytes, Rng& rng, std::string* log) {
  static const char kInteresting[] = {'\0', ' ', '\t', '\n', ',', '=', '*',
                                      '\x01', '\x7F', '\x80', '\xFF'};
  const size_t at = Pick(rng, bytes.size() + 1);
  switch (rng.UniformInt(0, 4)) {
    case 0:
      if (at < bytes.size()) {
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.UniformInt(0, 7)));
      }
      *log += " flip@" + std::to_string(at);
      break;
    case 1:
      if (at < bytes.size()) {
        bytes[at] = kInteresting[Pick(rng, sizeof(kInteresting))];
      }
      *log += " set@" + std::to_string(at);
      break;
    case 2: {
      std::string insert;
      for (int64_t n = rng.UniformInt(1, 4); n > 0; --n) {
        insert.push_back(rng.Chance(0.5) ? kInteresting[Pick(rng, sizeof(kInteresting))]
                                         : static_cast<char>(rng.UniformInt(0, 255)));
      }
      bytes.insert(at, insert);
      *log += " insert" + std::to_string(insert.size()) + "@" + std::to_string(at);
      break;
    }
    case 3:
      if (at < bytes.size()) {
        bytes.erase(at, 1);
      }
      *log += " erase@" + std::to_string(at);
      break;
    default:
      bytes.resize(at);
      *log += " cut@" + std::to_string(at);
      break;
  }
}

// The answer to one query: its body, or its error text.
struct Answer {
  bool ok = false;
  std::string text;
  bool operator==(const Answer& other) const { return ok == other.ok && text == other.text; }
};

// Runs `query`; failure must surface as std::runtime_error. Returns false
// (and reports) on any other exception.
bool Execute(QueryEngine& engine, const std::string& query, const std::string& id,
             Answer* answer) {
  try {
    answer->text = engine.Execute(query);
    answer->ok = true;
  } catch (const std::runtime_error& e) {
    answer->text = e.what();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL %s: Execute threw %s\n", id.c_str(), e.what());
    return false;
  } catch (...) {
    std::fprintf(stderr, "FAIL %s: Execute threw a non-std exception\n", id.c_str());
    return false;
  }
  return true;
}

// The response framing of `answer` must round-trip, and a damaged copy
// must decode to a known status or throw std::runtime_error.
bool CheckResponse(const Answer& answer, Rng& rng, const std::string& id) {
  std::string payload = EncodeResponse(answer.ok ? kStatusOk : kStatusError, answer.text);
  std::string body;
  if (DecodeResponse(payload, &body) != (answer.ok ? kStatusOk : kStatusError) ||
      body != answer.text) {
    std::fprintf(stderr, "FAIL %s: response payload does not round-trip\n", id.c_str());
    return false;
  }
  std::string log;
  for (int64_t edits = rng.UniformInt(1, 3); edits > 0; --edits) {
    MutateBytes(payload, rng, &log);
  }
  try {
    const uint8_t status = DecodeResponse(payload, &body);
    if (status != kStatusOk && status != kStatusError) {
      std::fprintf(stderr, "FAIL %s: payload%s decoded to status %u\n", id.c_str(),
                   log.c_str(), status);
      return false;
    }
  } catch (const std::runtime_error&) {
  } catch (...) {
    std::fprintf(stderr, "FAIL %s: DecodeResponse on payload%s threw a non-runtime_error\n",
                 id.c_str(), log.c_str());
    return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  uint64_t mutants = 20000;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mutants=", 10) == 0) {
      mutants = std::stoull(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::stoull(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: query_fuzz [--mutants=N] [--seed=S]\n");
      return 2;
    }
  }

  namespace fs = std::filesystem;
  std::string dir_template = (fs::temp_directory_path() / "query_fuzz_XXXXXX").string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  const fs::path dir = dir_template;
  Catalog catalog;
  for (const bool sweep : {false, true}) {
    const std::string path = (dir / (sweep ? "sweep.wlsr" : "campaign.wlsr")).string();
    std::ofstream(path, std::ios::binary) << SeedFile(sweep);
    catalog.RegisterFile(path);
  }
  fs::remove_all(dir);  // the catalog holds the parsed files

  ExtentCache warm(64u << 20);
  ExtentCache starved(1);
  QueryEngine warm_engine(&catalog, &warm);
  QueryEngine starved_engine(&catalog, &starved);

  uint64_t failures = 0, answered = 0;
  for (uint64_t m = 0; m < mutants; ++m) {
    Rng rng = Rng::Substream(seed, "query_fuzz", m);
    std::string log;
    std::string query = kQueries[m % kQueries.size()];
    for (int64_t edits = rng.UniformInt(1, 3); edits > 0; --edits) {
      if (rng.Chance(0.5)) {
        query = MutateTokens(query, rng, &log);
      } else {
        MutateBytes(query, rng, &log);
      }
    }
    const std::string id = "mutant " + std::to_string(m) + " (seed " + std::to_string(seed) +
                           ", query " + std::to_string(m % kQueries.size()) + ":" + log + ")";
    Answer first, second;
    if (!Execute(warm_engine, query, id, &first) || !Execute(starved_engine, query, id, &second)) {
      ++failures;
      continue;
    }
    if (!(first == second)) {
      std::fprintf(stderr, "FAIL %s: the answer depends on the cache state\n", id.c_str());
      ++failures;
    }
    answered += first.ok ? 1 : 0;
    failures += CheckResponse(first, rng, id) ? 0 : 1;
  }
  std::printf("query_fuzz: %llu mutants (seed %llu), %llu answered, %llu failures\n",
              static_cast<unsigned long long>(mutants), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(answered), static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
