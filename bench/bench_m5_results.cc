// M5 — results-sink cost: the WLSR binary columnar writer vs the
// per-replication CSV writer, on the in-tree perf harness.
//
// One synthetic record stream is encoded into a grid point's group, as the
// campaign engine does, and the finished group is written both ways: as a
// WLSR file (--binary-out) and as per-replication CSV rows (--reps-csv,
// WriteReplicationCsv). Each sink's time covers encoding plus its write, at
// 10^4, 10^5 and 10^6 replications. The "counters" mix mirrors the CI size gate
// (pipeline_probe --param counters=20 --param n_metrics=1): twenty
// count-style metrics near 1e7 with a small per-replication jitter plus one
// full-entropy value — the shape where delta+varint columns beat %.9g text
// decisively. The "histogram" mix adds a 40-bin DistributionSnapshot per
// record; the CSV writer cannot carry histograms at all, so that pair is
// reported for scale but excluded from the thresholds.
//
// With --check the bench hard-fails unless, at the largest replication
// count on the counters mix, the binary artifact is >= 5x smaller and the
// binary sink >= 3x faster (rows/s) than the CSV sink. Sinks write into a
// counting stream (bytes tallied, not stored) so the 10^6-row points don't
// hold a few hundred MB of CSV text in memory.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench/perf_harness.h"
#include "core/random.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "stats/table.h"

namespace wlansim {
namespace {

// Discards everything written to it, keeping only the byte count.
class CountingBuf final : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      ++bytes_;
    }
    return ch;
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t bytes_ = 0;
};

constexpr int kCounters = 20;

// Rewrites the template record in place for replication `rep`. Reusing the
// map nodes keeps generation cost small next to the sink cost being
// measured, and both sinks see the identical stream.
void FillRecord(ReplicationRecord& r, uint64_t rep, Rng& rng, bool with_hist) {
  r.replication = rep;
  r.metrics["value_0"] = rng.NextDouble();
  for (int c = 0; c < kCounters; ++c) {
    const double jitter = std::floor(rng.NextDouble() * 31.0) - 15.0;
    r.metrics["count_" + std::to_string(c)] = 1.0e7 + 100.0 * c + jitter;
  }
  if (with_hist) {
    DistributionSnapshot& d = r.distributions["latency_hist"];
    d.lo = 0.0;
    d.bin_width = 25.0;
    d.bins.assign(40, 0);
    // A narrow occupied band that drifts with the replication index: a few
    // nonzero bins amid zero runs, the shape the RLE bins codec targets.
    uint64_t total = 0;
    for (uint64_t j = 0; j < 5; ++j) {
      const uint64_t count = 10 + ((rep + j) % 17);
      d.bins[(rep / 64 + j) % 40] += count;
      total += count;
    }
    d.underflow = rep % 3;
    d.overflow = 0;
    d.total = total + d.underflow;
    d.min = 1.0;
    d.max = 990.0;
    d.mean = 480.0 + static_cast<double>(rep % 32);
  }
}

struct SinkRun {
  uint64_t bytes = 0;
  double secs = 0.0;
};

// Streams `rows` freshly generated records into a point's GroupEncoder,
// as the campaign engine does, and hands the finished group to `write`
// (one output of the point), timing the whole span.
template <typename WriteGroup>
SinkRun RunSink(uint64_t rows, bool with_hist, const WriteGroup& write) {
  CountingBuf buf;
  std::ostream out(&buf);
  Rng rng(42);
  ReplicationRecord record;
  const auto start = std::chrono::steady_clock::now();
  GroupEncoder encoder(0, 1, {}, rows);
  for (uint64_t rep = 0; rep < rows; ++rep) {
    FillRecord(record, rep, rng, with_hist);
    encoder.Add(record);
  }
  write(encoder.Finish(), out);
  const auto end = std::chrono::steady_clock::now();
  return {buf.bytes(), std::chrono::duration<double>(end - start).count()};
}

// --binary-out: the group framed into a WLSR file.
void WriteBinary(const BinaryGroup& group, std::ostream& out) {
  BinaryResultsWriter writer(out);
  writer.BeginSweep({"bench_m5", 1, group.header.n_rows, {}, 1, 1});
  writer.OnPointDone({}, {}, group);
  writer.EndSweep();
}

int Run(int argc, char** argv) {
  bool check = false;
  std::vector<char*> filtered{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  PerfArgs args = ParsePerfArgs(static_cast<int>(filtered.size()), filtered.data(),
                                "bench_m5_results [--check]", /*default_reps=*/2);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // the first timed pass over 10^4+ rows is its own warmup

  PerfHarness harness("M5: results sink, CSV vs WLSR binary (items = rows)", args);
  Table table({"mix", "rows", "csv_B_per_row", "bin_B_per_row", "size_ratio", "csv_Mrows_s",
               "bin_Mrows_s", "sink_speedup"});

  double size_ratio_at_largest = 0.0;
  double speed_ratio_at_largest = 0.0;
  for (const bool with_hist : {false, true}) {
    const char* mix = with_hist ? "histogram" : "counters";
    for (const uint64_t rows : {uint64_t{10000}, uint64_t{100000}, uint64_t{1000000}}) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s_csv_%llu", mix,
                    static_cast<unsigned long long>(rows));
      if (!args.filter.empty() && std::string(name).find(args.filter) == std::string::npos) {
        continue;  // keep the figure table aligned with the benches that ran
      }

      SinkRun csv{};
      harness.Bench(name, [rows, with_hist, &csv] {
        csv = RunSink(rows, with_hist, WriteReplicationCsv);
        return rows;
      });
      std::snprintf(name, sizeof(name), "%s_binary_%llu", mix,
                    static_cast<unsigned long long>(rows));
      SinkRun bin{};
      harness.Bench(name, [rows, with_hist, &bin] {
        bin = RunSink(rows, with_hist, WriteBinary);
        return rows;
      });

      const double size_ratio = static_cast<double>(csv.bytes) / static_cast<double>(bin.bytes);
      const double csv_mrows = static_cast<double>(rows) / csv.secs / 1e6;
      const double bin_mrows = static_cast<double>(rows) / bin.secs / 1e6;
      table.AddRow({mix, std::to_string(rows),
                    Table::Num(static_cast<double>(csv.bytes) / static_cast<double>(rows), 1),
                    Table::Num(static_cast<double>(bin.bytes) / static_cast<double>(rows), 1),
                    Table::Num(size_ratio, 2), Table::Num(csv_mrows, 2), Table::Num(bin_mrows, 2),
                    Table::Num(csv.secs / bin.secs, 2)});
      if (!with_hist && rows == 1000000) {
        size_ratio_at_largest = size_ratio;
        speed_ratio_at_largest = csv.secs / bin.secs;
      }
    }
  }

  const int rc = harness.Finish();
  std::printf("=== M5: results artifact size and sink throughput, CSV vs binary ===\n%s\n",
              table.ToString().c_str());
  if (check) {
    if (size_ratio_at_largest < 5.0) {
      std::fprintf(stderr, "binary/CSV size ratio at 10^6 rows is %.2fx, expected >= 5x\n",
                   size_ratio_at_largest);
      return 1;
    }
    if (speed_ratio_at_largest < 3.0) {
      std::fprintf(stderr, "binary sink speedup at 10^6 rows is %.2fx, expected >= 3x\n",
                   speed_ratio_at_largest);
      return 1;
    }
    std::printf("check passed: %.2fx smaller, %.2fx faster sink at 10^6 rows\n",
                size_ratio_at_largest, speed_ratio_at_largest);
  }
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
