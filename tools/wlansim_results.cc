// wlansim_results — the shard-merge/query CLI for WLSR binary result files
// (the --binary-out output of wlansim_run; format spec in docs/results.md).
//
//   wlansim_results inspect FILE             schema + per-group summary
//   wlansim_results merge OUT IN...          join the shard files of one run,
//                                            byte-identical to the unsharded
//                                            file when the shards cover the grid
//   wlansim_results export FILE [--out=CSV]  back to the exact long-format CSV
//                                            the run itself would have written
//   wlansim_results aggregate FILE... [--out=CSV]
//                                            Welford mean/stddev/CI + exact
//                                            quantiles per grid point over the
//                                            pooled groups, column at a time —
//                                            rows are never materialized

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/version.h"
#include "results/binary_reader.h"

namespace wlansim {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wlansim_results COMMAND ...\n"
               "\n"
               "commands:\n"
               "  inspect FILE            print the file's schema header and groups\n"
               "  merge OUT IN [IN...]    merge the shard files of one run (same seed)\n"
               "                          into OUT, groups ordered by grid point index;\n"
               "                          byte-identical to the unsharded file when the\n"
               "                          shards cover the whole grid\n"
               "  export FILE [--out=F]   re-emit the run's CSV byte-for-byte: the\n"
               "                          per-replication CSV for a file without sweep\n"
               "                          axes (a campaign), the long-format CSV for a\n"
               "                          file with axes (stdout unless --out)\n"
               "  aggregate FILE [FILE...] [--out=F]\n"
               "                          exact aggregates (Welford mean/stddev/CI +\n"
               "                          exact quantiles) per grid point, pooling the\n"
               "                          inputs' groups of each point in argument\n"
               "                          order; the same run given twice is rejected\n"
               "\n"
               "  --version               print the build version and exit\n");
  return 1;
}

// Positional-only commands (inspect/merge) still reject flag-looking
// arguments: `inspect --foo` is a usage error, not a filename.
bool RejectFlags(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Splits trailing --out=PATH off an argument list; returns false on any
// other flag-looking argument.
bool SplitOutFlag(std::vector<std::string>& args, std::string* out_path) {
  std::vector<std::string> kept;
  for (const std::string& arg : args) {
    if (arg.rfind("--out=", 0) == 0) {
      *out_path = arg.substr(6);
      if (out_path->empty()) {
        std::fprintf(stderr, "--out needs a path\n");
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
  return true;
}

// Runs `write` on --out's file, or on stdout when no path was given.
int WriteOutput(const std::string& out_path, const std::function<void(std::ostream&)>& write) {
  if (out_path.empty()) {
    write(std::cout);
    std::cout.flush();
    return std::cout ? 0 : 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  write(out);
  out.flush();
  return out ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "--version") {
      if (!args.empty()) {
        std::fprintf(stderr, "--version takes no arguments\n");
        return 1;
      }
      std::fputs(VersionLine("wlansim_results").c_str(), stdout);
      return 0;
    }
    if (command == "inspect") {
      if (!RejectFlags(args)) {
        return 1;
      }
      if (args.size() != 1) {
        std::fprintf(stderr, "inspect takes exactly one file\n");
        return 1;
      }
      std::fputs(InspectBinary(ReadBinaryResultsFile(args[0])).c_str(), stdout);
      return 0;
    }
    if (command == "merge") {
      if (!RejectFlags(args)) {
        return 1;
      }
      if (args.size() < 2) {
        std::fprintf(stderr, "merge takes an output file and at least one input\n");
        return 1;
      }
      const std::string out_path = args[0];
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      MergeBinaryFiles({args.begin() + 1, args.end()}, out);
      return 0;
    }
    if (command == "export") {
      std::string out_path;
      if (!SplitOutFlag(args, &out_path)) {
        return 1;
      }
      if (args.size() != 1) {
        std::fprintf(stderr, "export takes exactly one file (plus optional --out=F)\n");
        return 1;
      }
      const BinaryResultsFile file = ReadBinaryResultsFile(args[0]);
      return WriteOutput(out_path, [&](std::ostream& out) { ExportBinaryCsv(file, out); });
    }
    if (command == "aggregate") {
      std::string out_path;
      if (!SplitOutFlag(args, &out_path)) {
        return 1;
      }
      if (args.empty()) {
        std::fprintf(stderr, "aggregate takes at least one file\n");
        return 1;
      }
      std::vector<BinaryResultsFile> files;
      files.reserve(args.size());
      for (const std::string& path : args) {
        files.push_back(ReadBinaryResultsFile(path));
      }
      const std::string csv = AggregateBinary(files);
      return WriteOutput(out_path, [&](std::ostream& out) { out << csv; });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Main(argc, argv);
}
