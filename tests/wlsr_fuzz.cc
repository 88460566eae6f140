// Seeded mutation fuzzer for the WLSR decoder and every reader behind it.
//
// Two small seed files — a campaign and a two-axis sweep, both with a
// histogram column — are written in-process. Each mutant applies one to
// three random edits to one of them (bit flip, byte overwrite, truncation,
// insertion); half the mutants then get every group CRC recomputed, so the
// decoder behind the CRC runs on damaged bytes too. Every mutant goes
// through ParseBinaryResults, InspectBinary, ExportBinaryCsv,
// AggregateBinary, ReadDistColumn and Catalog::RegisterFile (then the
// AGGREGATE and HIST queries the catalog serves). Damage must surface as a
// std::runtime_error; any other exception is a failure, printed with the
// mutant index that reproduces it.
//
// The run is a pure function of --seed and --mutants:
//   wlsr_fuzz [--mutants=N] [--seed=S]

#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/random.h"
#include "crypto/crc32.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "results/binary_format.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/sweep.h"

namespace wlansim {
namespace {

std::string SeedFile(bool sweep, uint64_t base_seed) {
  std::ostringstream bin;
  BinaryResultsWriter writer(bin);
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = base_seed;
  options.replications = 3;
  options.jobs = 1;
  options.base_params.Set("counters", "2");
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

// Recomputes the CRC of every group frame it can walk, so a mutation
// inside a body reaches the decoder instead of the CRC check. Stops at the
// first frame it cannot walk; a damaged file header leaves the bytes as is.
void Reseal(std::string& bytes) {
  try {
    ByteReader reader(bytes);
    DecodeFileHeader(reader);
    while (reader.remaining() >= 16) {
      reader.GetU32();  // group magic, deliberately unchecked
      const uint64_t body_len = reader.GetU64();
      if (body_len > reader.remaining() - 4) {
        return;
      }
      const size_t body_start = reader.pos();
      reader.GetRange(body_len);
      const uint32_t crc =
          Crc32({reinterpret_cast<const uint8_t*>(bytes.data()) + body_start, body_len});
      for (int i = 0; i < 4; ++i) {
        bytes[reader.pos() + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
      }
      reader.GetU32();
    }
  } catch (const std::runtime_error&) {
  }
}

std::string Mutate(const std::string& seed, Rng& rng, std::string* log) {
  std::string bytes = seed;
  const int edits = static_cast<int>(rng.UniformInt(1, 3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const size_t at =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.UniformInt(0, 7)));
        *log += " flip@" + std::to_string(at);
        break;
      case 1: {
        static const uint8_t kInteresting[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
        bytes[at] = static_cast<char>(rng.Chance(0.5) ? kInteresting[rng.UniformInt(0, 4)]
                                                       : rng.UniformInt(0, 255));
        *log += " set@" + std::to_string(at);
        break;
      }
      case 2:
        bytes.resize(at);
        *log += " cut@" + std::to_string(at);
        break;
      default: {
        const size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
        std::string insert;
        for (size_t i = 0; i < n; ++i) {
          insert.push_back(static_cast<char>(rng.UniformInt(0, 255)));
        }
        bytes.insert(at, insert);
        *log += " insert" + std::to_string(n) + "@" + std::to_string(at);
        break;
      }
    }
  }
  return bytes;
}

// Runs `step`; damage must surface as std::runtime_error. Returns false
// (and reports) on any other exception.
bool Survives(const std::string& id, const char* step, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL %s: %s threw %s\n", id.c_str(), step, e.what());
    return false;
  } catch (...) {
    std::fprintf(stderr, "FAIL %s: %s threw a non-std exception\n", id.c_str(), step);
    return false;
  }
  return true;
}

struct Outcome {
  bool parsed = false;
  int failures = 0;
};

// Feeds one mutant to every reader. The catalog reads it from `path`,
// beside `pristine`: an undamaged run of the same kind under another seed,
// so a mutant that still parses goes through the pooling rules too.
Outcome Exercise(const std::string& bytes, const std::string& path, const std::string& pristine,
                 const BinaryResultsFile& pristine_file, const std::string& id) {
  Outcome outcome;
  auto check = [&](const char* step, const std::function<void()>& fn) {
    outcome.failures += Survives(id, step, fn) ? 0 : 1;
  };
  std::optional<BinaryResultsFile> file;
  check("ParseBinaryResults", [&] { file = ParseBinaryResults(bytes); });
  if (file) {
    outcome.parsed = true;
    check("InspectBinary", [&] { InspectBinary(*file); });
    check("ReadDistColumn", [&] {
      std::vector<DistributionSnapshot> snapshots;
      for (const BinaryGroup& group : file->groups) {
        for (size_t d = 0; d < group.header.dist_names.size(); ++d) {
          ReadDistColumn(group, d, &snapshots);
        }
      }
    });
    check("ExportBinaryCsv", [&] {
      std::ostringstream csv;
      ExportBinaryCsv(*file, csv);
    });
    check("AggregateBinary", [&] {
      AggregateBinary(std::vector<const BinaryResultsFile*>{&pristine_file, &*file});
    });
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  Catalog catalog;
  catalog.RegisterFile(pristine);
  bool registered = false;
  check("Catalog::RegisterFile", [&] {
    catalog.RegisterFile(path);
    registered = true;
  });
  if (registered) {
    ExtentCache cache(1u << 20);
    QueryEngine engine(&catalog, &cache);
    for (const std::string& name : catalog.CollectionNames()) {
      check("AGGREGATE", [&] { engine.Execute("AGGREGATE " + name); });
      for (const std::string& dist : catalog.Find(name)->dist_names) {
        check("HIST", [&] { engine.Execute("HIST " + name + " " + dist); });
      }
    }
  }
  return outcome;
}

int Run(int argc, char** argv) {
  uint64_t mutants = 4000;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mutants=", 10) == 0) {
      mutants = std::stoull(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::stoull(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: wlsr_fuzz [--mutants=N] [--seed=S]\n");
      return 2;
    }
  }

  namespace fs = std::filesystem;
  std::string dir_template = (fs::temp_directory_path() / "wlsr_fuzz_XXXXXX").string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  const fs::path dir = dir_template;

  // Index 0 is the campaign, 1 the sweep.
  const std::string seeds[2] = {SeedFile(false, 17), SeedFile(true, 17)};
  std::string pristine_paths[2];
  BinaryResultsFile pristine_files[2];
  for (int kind = 0; kind < 2; ++kind) {
    const std::string bytes = SeedFile(kind == 1, 18);
    pristine_paths[kind] = (dir / ("pristine_" + std::to_string(kind) + ".wlsr")).string();
    std::ofstream(pristine_paths[kind], std::ios::binary) << bytes;
    pristine_files[kind] = ParseBinaryResults(bytes);
  }
  const std::string mutant_path = (dir / "mutant.wlsr").string();

  uint64_t failures = 0, parsed = 0;
  for (uint64_t m = 0; m < mutants; ++m) {
    Rng rng = Rng::Substream(seed, "wlsr_fuzz", m);
    const int kind = static_cast<int>(m % 2);
    std::string log;
    std::string bytes = Mutate(seeds[kind], rng, &log);
    const bool resealed = (m / 2) % 2 == 1;
    if (resealed) {
      Reseal(bytes);
    }
    const std::string id = "mutant " + std::to_string(m) + " (seed " + std::to_string(seed) +
                           ", " + (kind == 0 ? "campaign" : "sweep") +
                           (resealed ? ", resealed" : "") + ":" + log + ")";
    const Outcome outcome =
        Exercise(bytes, mutant_path, pristine_paths[kind], pristine_files[kind], id);
    failures += static_cast<uint64_t>(outcome.failures);
    parsed += outcome.parsed ? 1 : 0;
  }
  fs::remove_all(dir);
  std::printf("wlsr_fuzz: %llu mutants (seed %llu), %llu still parse, %llu failures\n",
              static_cast<unsigned long long>(mutants), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(parsed), static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
