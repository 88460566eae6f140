// WLSR binary results format tests: primitive/chunk codec round-trips, the
// schema header round-trip (and the reserved legacy header byte), writer
// determinism across worker counts, shard merge byte-identity against the
// unsharded file, sweep CSV export byte-identity against the long-format
// writer, a run's --csv == AggregateBinary of its own
// --binary-out, histogram (DistributionSnapshot) fidelity, schema-drift
// rejection, and corrupted/truncated-file rejection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "results/binary_format.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "runner/result_sink.h"
#include "runner/sweep.h"
#include "tests/run_support.h"

namespace wlansim {
namespace {

// --- primitive + chunk codecs --------------------------------------------------

TEST(BinaryCodec, VarintRoundTripsAcrossWidths) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128}, uint64_t{300},
        uint64_t{1} << 32, std::numeric_limits<uint64_t>::max()}) {
    std::string out;
    PutVarint(out, v);
    ByteReader in(out);
    EXPECT_EQ(in.GetVarint(), v);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST(BinaryCodec, ZigzagIsAnInvolutionOnExtremes) {
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

void RoundTripScalars(const std::vector<double>& values, ChunkEncoding expected) {
  std::string out;
  EncodeScalarChunk(out, values.data(), values.size());
  EXPECT_EQ(static_cast<ChunkEncoding>(static_cast<uint8_t>(out[0])), expected);
  ByteReader in(out);
  std::vector<double> decoded;
  DecodeScalarChunk(in, values.size(), &decoded);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    // Bitwise, not numeric: the format must preserve -0.0 and NaN payloads.
    EXPECT_EQ(std::memcmp(&decoded[i], &values[i], sizeof(double)), 0) << "row " << i;
  }
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(BinaryCodec, ScalarChunkPicksConstantDeltaOrRaw) {
  RoundTripScalars({3.25, 3.25, 3.25, 3.25}, ChunkEncoding::kConstant);
  RoundTripScalars({1e7, 1e7 + 3, 1e7 - 12, 1e7 + 100}, ChunkEncoding::kIntDelta);
  RoundTripScalars({0.1, 0.2, 0.30000000000000004}, ChunkEncoding::kRaw64);
  RoundTripScalars({-0.0, 0.0, 5.0, -9007199254740992.0, 9007199254740992.0},
                   ChunkEncoding::kRaw64);  // -0.0 is not integral bitwise
}

TEST(BinaryCodec, U64ChunkIsExactForAllMagnitudes) {
  const std::vector<uint64_t> hard = {0, std::numeric_limits<uint64_t>::max(), 1,
                                      uint64_t{1} << 63, 12345};
  std::string out;
  EncodeU64Chunk(out, hard.data(), hard.size());
  ByteReader in(out);
  std::vector<uint64_t> decoded;
  DecodeU64Chunk(in, hard.size(), &decoded);
  EXPECT_EQ(decoded, hard);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(BinaryCodec, BinsRoundTripAndCompressZeroRuns) {
  std::vector<uint64_t> bins(64, 0);
  bins[10] = 7;
  bins[11] = 1;
  bins[40] = 123456;
  std::string out;
  EncodeBins(out, bins.data(), bins.size());
  EXPECT_LT(out.size(), 16u);  // three varints + two zero runs, not 64 values
  ByteReader in(out);
  std::vector<uint64_t> decoded;
  DecodeBins(in, bins.size(), &decoded);
  EXPECT_EQ(decoded, bins);
}

// --- schema header round-trip ---------------------------------------------------

TEST(BinaryHeaders, FileAndGroupHeadersRoundTrip) {
  BinaryFileHeader fh;
  fh.n_groups = 6;
  fh.base_seed = 99;
  fh.replications = 1000;
  fh.scenario = "pipeline_probe";
  fh.param_keys = {"n_metrics", "samples"};
  std::string bytes;
  EncodeFileHeader(bytes, fh);
  ByteReader in(bytes);
  const BinaryFileHeader fh2 = DecodeFileHeader(in);
  EXPECT_EQ(static_cast<uint8_t>(bytes[6]), 1u);  // kind: derived from the axes
  EXPECT_EQ(static_cast<uint8_t>(bytes[7]), 0u);  // the reserved byte after kind
  EXPECT_EQ(fh2.n_groups, fh.n_groups);
  EXPECT_EQ(fh2.base_seed, fh.base_seed);
  EXPECT_EQ(fh2.replications, fh.replications);
  EXPECT_EQ(fh2.scenario, fh.scenario);
  EXPECT_EQ(fh2.param_keys, fh.param_keys);
  EXPECT_EQ(in.remaining(), 0u);

  BinaryGroupHeader gh;
  gh.point_index = 3;
  gh.point_seed = 777;
  gh.param_values = {"2", "8"};
  gh.n_rows = 1000;
  gh.scalar_names = {"count_0", "value_0"};
  gh.dist_names = {"latency_hist"};
  gh.dist_geometries = {{0.0, 25.0, 40}};
  std::string gbytes;
  EncodeGroupHeader(gbytes, gh);
  ByteReader gin(gbytes);
  const BinaryGroupHeader gh2 = DecodeGroupHeader(gin);
  EXPECT_EQ(gh2.point_index, gh.point_index);
  EXPECT_EQ(gh2.point_seed, gh.point_seed);
  EXPECT_EQ(gh2.param_values, gh.param_values);
  EXPECT_EQ(gh2.n_rows, gh.n_rows);
  EXPECT_EQ(gh2.scalar_names, gh.scalar_names);
  EXPECT_EQ(gh2.dist_names, gh.dist_names);
  ASSERT_EQ(gh2.dist_geometries.size(), 1u);
  EXPECT_EQ(gh2.dist_geometries[0].lo, 0.0);
  EXPECT_EQ(gh2.dist_geometries[0].bin_width, 25.0);
  EXPECT_EQ(gh2.dist_geometries[0].n_bins, 40u);
  EXPECT_EQ(gin.remaining(), 0u);
}

// --- end-to-end campaign/sweep fixtures ----------------------------------------

constexpr size_t kKindOffset = 6;  // magic u32 | version u16 | kind u8

// The probe campaign: a zero-axis grid, i.e. exactly what wlansim_run runs
// without --sweep.
SweepOptions ProbeCampaign(unsigned jobs, uint64_t reps) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 99;
  options.replications = reps;
  options.jobs = jobs;
  options.base_params.Set("counters", "3");
  options.base_params.Set("hist", "true");
  options.base_params.Set("gauge", "true");
  return options;
}

SweepOptions ProbeSweep(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.grid.AddAxis(ParseSweepAxis("n_metrics=1,2,3"));
  options.grid.AddAxis(ParseSweepAxis("samples=8,32"));
  options.base_seed = 5;
  options.replications = 6;
  options.jobs = jobs;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

std::string CampaignBinary(unsigned jobs, uint64_t reps) {
  return RunBinary(ProbeCampaign(jobs, reps));
}

std::string SweepBinary(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  return RunBinary(ProbeSweep(jobs, shard_index, shard_count));
}

TEST(BinaryWriter, CampaignBytesIdenticalAcrossWorkerCounts) {
  EXPECT_EQ(CampaignBinary(1, 64), CampaignBinary(8, 64));
}

TEST(BinaryWriter, ZeroAxisRunWritesACampaignFile) {
  const std::string bytes = CampaignBinary(2, 16);
  EXPECT_EQ(bytes[kKindOffset], 0);  // the kind byte follows the axis count
  const BinaryResultsFile file = ParseBinaryResults(bytes);
  EXPECT_TRUE(file.header.param_keys.empty());
  ASSERT_EQ(file.groups.size(), 1u);
  EXPECT_EQ(file.groups[0].header.point_index, 0u);
  EXPECT_EQ(file.groups[0].header.point_seed, 99u);  // the campaign's base seed
  EXPECT_EQ(file.groups[0].header.n_rows, 16u);
  EXPECT_EQ(SweepBinary(2, 0, 1)[kKindOffset], 1);
}

TEST(BinaryWriter, SweepBytesIdenticalAcrossWorkerCounts) {
  EXPECT_EQ(SweepBinary(1, 0, 1), SweepBinary(8, 0, 1));
}

TEST(BinaryWriter, ShardMergeIsByteIdenticalToUnshardedFile) {
  const std::string full = SweepBinary(4, 0, 1);
  std::vector<std::string> shard_paths;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const std::string path =
        testing::TempDir() + "wlsr_shard_" + std::to_string(shard) + ".bin";
    std::ofstream out(path, std::ios::binary);
    out << SweepBinary(4, shard, 3);
    ASSERT_TRUE(out.good());
    shard_paths.push_back(path);
  }
  std::ostringstream merged;
  MergeBinaryFiles(shard_paths, merged);
  EXPECT_EQ(merged.str(), full);
}

// One run's --csv bytes, with its --binary-out bytes in `bin_out`.
std::string RunCsvAndBinary(SweepOptions options, std::string* bin_out) {
  std::ostringstream csv;
  StreamingSweepCsvWriter csv_writer(csv);
  options.point_sinks.push_back(&csv_writer);
  *bin_out = RunBinary(options);
  return csv.str();
}

TEST(BinaryReader, SweepExportMatchesLongCsvByteForByte) {
  std::string bytes;
  const std::string csv = RunCsvAndBinary(ProbeSweep(4, 0, 1), &bytes);
  EXPECT_EQ(ExportCsv(bytes), csv);
}

TEST(BinaryReader, HistogramSnapshotsSurviveTheRoundTrip) {
  const SweepOptions options = ProbeCampaign(4, 48);
  const std::string bin = RunBinary(options);

  const BinaryResultsFile file = ParseBinaryResults(bin);
  ASSERT_EQ(file.groups.size(), 1u);
  const BinaryGroupHeader& header = file.groups[0].header;
  ASSERT_EQ(header.dist_names.size(), 1u);
  EXPECT_EQ(header.dist_names[0], "latency_hist");

  std::vector<DistributionSnapshot> decoded;
  ReadDistColumn(file.groups[0], 0, &decoded);
  ASSERT_EQ(decoded.size(), options.replications);
  for (size_t i = 0; i < decoded.size(); ++i) {
    const DistributionSnapshot want = RunReplication(options, i).distributions.at("latency_hist");
    EXPECT_EQ(decoded[i].bins, want.bins) << "row " << i;
    EXPECT_EQ(decoded[i].underflow, want.underflow);
    EXPECT_EQ(decoded[i].overflow, want.overflow);
    EXPECT_EQ(decoded[i].total, want.total);
    EXPECT_DOUBLE_EQ(decoded[i].min, want.min);
    EXPECT_DOUBLE_EQ(decoded[i].max, want.max);
    EXPECT_DOUBLE_EQ(decoded[i].mean, want.mean);
    EXPECT_DOUBLE_EQ(decoded[i].lo, want.lo);
    EXPECT_DOUBLE_EQ(decoded[i].bin_width, want.bin_width);
  }
}

// A run's --csv must equal `wlansim_results aggregate` of its own
// --binary-out: the engine folds the very group it writes, with the very
// function the offline path uses — at a replication count where the old
// CLI switched to approximate quantiles.
TEST(BinaryReader, CampaignCsvEqualsAggregateOfItsOwnBinaryAt10k) {
  std::string bin;
  const std::string csv = RunCsvAndBinary(ProbeCampaign(4, 10000), &bin);
  EXPECT_EQ(csv, AggregateBinary({ParseBinaryResults(bin)}));
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "metric,count,mean,stddev,ci95_half,min,max,p50,p95");
  EXPECT_NE(csv.find(",10000,"), std::string::npos);
}

TEST(BinaryReader, SweepCsvEqualsAggregateOfItsOwnBinary) {
  SweepOptions options = ProbeSweep(4, 0, 1);
  options.replications = 2000;
  std::string bin;
  const std::string csv = RunCsvAndBinary(options, &bin);
  EXPECT_EQ(csv, AggregateBinary({ParseBinaryResults(bin)}));
  EXPECT_EQ(csv, ExportCsv(bin));
}

TEST(BinaryReader, LegacyStreamedHeaderByteIsIgnored) {
  // Files written before the reserved byte was retired carry 1 there for
  // runs that aggregated with approximate quantiles. Their records are
  // exact, so they parse, export and aggregate exactly like a 0-byte file.
  constexpr size_t kReservedOffset = 7;  // magic u32 | version u16 | kind u8
  std::string sweep_bytes;
  const std::string exact_sweep_csv = RunCsvAndBinary(ProbeSweep(2, 0, 1), &sweep_bytes);
  const std::string campaign_bytes = CampaignBinary(2, 64);
  ASSERT_EQ(sweep_bytes[kReservedOffset], 0);
  ASSERT_EQ(campaign_bytes[kReservedOffset], 0);
  std::string legacy_sweep = sweep_bytes;
  legacy_sweep[kReservedOffset] = 1;
  std::string legacy_campaign = campaign_bytes;
  legacy_campaign[kReservedOffset] = 1;

  EXPECT_EQ(ExportCsv(legacy_sweep), exact_sweep_csv);
  EXPECT_EQ(AggregateBinary({ParseBinaryResults(legacy_sweep)}), exact_sweep_csv);
  const std::string legacy_agg = AggregateBinary({ParseBinaryResults(legacy_campaign)});
  EXPECT_EQ(legacy_agg, AggregateBinary({ParseBinaryResults(campaign_bytes)}));
  EXPECT_EQ(legacy_agg.substr(0, legacy_agg.find('\n')),
            "metric,count,mean,stddev,ci95_half,min,max,p50,p95");
  EXPECT_EQ(ExportCsv(legacy_campaign), ExportCsv(campaign_bytes));
  EXPECT_EQ(InspectBinary(ParseBinaryResults(legacy_campaign)),
            InspectBinary(ParseBinaryResults(campaign_bytes)));

  // A legacy shard merges with a current one; the merged header writes 0.
  std::vector<std::string> paths;
  for (unsigned shard = 0; shard < 2; ++shard) {
    std::string bytes = SweepBinary(2, shard, 2);
    if (shard == 0) {
      bytes[kReservedOffset] = 1;
    }
    paths.push_back(testing::TempDir() + "wlsr_legacy_" + std::to_string(shard) + ".bin");
    std::ofstream out(paths.back(), std::ios::binary);
    out << bytes;
    ASSERT_TRUE(out.good());
  }
  std::ostringstream merged;
  MergeBinaryFiles(paths, merged);
  EXPECT_EQ(merged.str(), sweep_bytes);
}

// --- rejection paths ------------------------------------------------------------

TEST(BinaryReader, RejectsForeignAndDamagedFiles) {
  EXPECT_THROW(
      {
        try {
          ParseBinaryResults("replication,value_0\n0,0.5\n");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("not a wlansim binary results file"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  const std::string good = CampaignBinary(1, 32);

  // Cut off mid-group: every prefix must fail loudly, never mis-parse.
  EXPECT_THROW(
      {
        try {
          ParseBinaryResults(good.substr(0, good.size() - 7));
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  // Flip one body byte: the group CRC must catch it.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(ParseBinaryResults(corrupt), std::runtime_error);

  // Trailing garbage after the last group is damage too, not slack.
  EXPECT_THROW(ParseBinaryResults(good + "x"), std::runtime_error);
}

TEST(BinaryWriter, RejectsSchemaDrift) {
  GroupEncoder encoder(0, 1, {}, 2);
  ReplicationRecord first;
  first.replication = 0;
  first.metrics["a"] = 1.0;
  encoder.Add(first);

  ReplicationRecord drifted;
  drifted.replication = 1;
  drifted.metrics["a"] = 2.0;
  drifted.metrics["extra"] = 3.0;
  EXPECT_THROW(encoder.Add(drifted), std::runtime_error);
}

TEST(BinaryWriter, RejectsSecondCampaign) {
  std::ostringstream bin;
  BinaryResultsWriter writer(bin);
  SweepOptions options = ProbeCampaign(2, 4);
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  EXPECT_THROW(RunSweepCampaign(options), std::logic_error);
}

// Frames hand-built group bodies under a file header, CRCs intact — the
// shape of a file a foreign or buggy writer could produce.
std::string FramedFile(const std::vector<std::string>& param_keys,
                       const std::vector<std::string>& bodies) {
  BinaryFileHeader header;
  header.n_groups = bodies.size();
  header.replications = 1;
  header.scenario = "crafted";
  header.param_keys = param_keys;
  std::string bytes;
  EncodeFileHeader(bytes, header);
  std::ostringstream out;
  out << bytes;
  for (const std::string& body : bodies) {
    WriteFramedGroup(out, body);
  }
  return out.str();
}

// One well-formed single-row group body at `point`.
std::string GroupBody(uint64_t point, std::vector<std::string> param_values) {
  GroupEncoder encoder(point, 1, std::move(param_values), 1);
  ReplicationRecord record;
  record.metrics["x"] = 1.0;
  encoder.Add(record);
  return encoder.Finish().body;
}

template <typename Fn>
std::string RuntimeErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no std::runtime_error)";
}

TEST(BinaryReader, KindByteThatDisagreesWithTheAxesIsCorrupt) {
  std::string campaign = CampaignBinary(1, 4);
  campaign[kKindOffset] = 1;
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(campaign); }).find("kind byte"),
            std::string::npos);
  std::string sweep = SweepBinary(1, 0, 1);
  sweep[kKindOffset] = 0;
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(sweep); }).find("kind byte"),
            std::string::npos);
}

TEST(BinaryReader, RepeatedReorderedOrNonZeroCampaignPointIsCorrupt) {
  ASSERT_NO_THROW(
      ParseBinaryResults(FramedFile({"k"}, {GroupBody(0, {"a"}), GroupBody(1, {"b"})})));
  for (const std::string& bytes :
       {FramedFile({"k"}, {GroupBody(0, {"a"}), GroupBody(0, {"a"})}),
        FramedFile({"k"}, {GroupBody(1, {"b"}), GroupBody(0, {"a"})}),
        FramedFile({}, {GroupBody(0, {}), GroupBody(0, {})})}) {
    EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(bytes); }).find("repeats or reorders"),
              std::string::npos);
  }
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(FramedFile({}, {GroupBody(3, {})})); })
                .find("not point 0"),
            std::string::npos);
}

TEST(BinaryReader, DamagedCountsThrowBeforeSizingAnAllocation) {
  // The header's n_groups is outside every CRC: a flipped high byte claimed
  // ~2^62 groups, and the reader reserved them before reading one.
  std::string flipped = SweepBinary(1, 0, 1);
  flipped[15] = 0x40;
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(flipped); }).find("truncated"),
            std::string::npos);

  // Inside a CRC-sealed group, a damaged writer's name count must not size
  // an allocation either.
  std::string body;
  PutU64(body, 0);                      // point_index
  PutU64(body, 1);                      // point_seed
  PutVarint(body, 0);                   // no parameter values
  PutU64(body, 1);                      // n_rows
  PutVarint(body, uint64_t{1} << 40);   // n_scalars
  PutString(body, "x");
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(FramedFile({}, {body})); }).find("truncated"),
            std::string::npos);

  // Nor may a bin count, which zero-run compression lets exceed the bytes.
  BinaryGroupHeader huge_bins;
  huge_bins.n_rows = 1;
  huge_bins.dist_names = {"h"};
  huge_bins.dist_geometries = {{0.0, 1.0, uint64_t{1} << 40}};
  std::string bins_body;
  EncodeGroupHeader(bins_body, huge_bins);
  EXPECT_NE(RuntimeErrorOf([&] { ParseBinaryResults(FramedFile({}, {bins_body})); })
                .find("bins"),
            std::string::npos);

  // A row count its extents cannot hold is rejected before a column
  // reader reserves it.
  BinaryGroup group = ParseBinaryResults(FramedFile({}, {GroupBody(0, {})})).groups.front();
  group.header.n_rows = uint64_t{1} << 50;
  std::vector<double> column;
  EXPECT_NE(RuntimeErrorOf([&] { ReadScalarColumn(group, 0, &column); }).find("truncated"),
            std::string::npos);
}

// --- streamed sweep CSV (satellite: reorder-buffered long-format streaming) -----

TEST(SweepStreamCsv, CollectorHoldsWhatTheCsvWriterStreams) {
  // The streaming writer and the collector ride the same point sinks: rows
  // hit the stream in grid order as points complete out of order across 8
  // workers, and the collector keeps those very points in the same order.
  std::ostringstream streamed;
  StreamingSweepCsvWriter writer(streamed);
  AggregateCollector collected;
  SweepOptions options = ProbeSweep(8, 0, 1);
  options.point_sinks.push_back(&writer);
  options.point_sinks.push_back(&collected);
  RunSweepCampaign(options);
  std::string rebuilt = SweepLongCsvHeader(options.grid.Keys());
  for (const AggregateCollector::Point& point : collected.points()) {
    std::vector<std::string> values;
    for (const auto& [key, value] : point.info.point) {
      values.push_back(value);
    }
    rebuilt += SweepLongCsvRows(values, point.aggregates);
  }
  EXPECT_EQ(streamed.str(), rebuilt);
}

TEST(SweepStreamCsv, WorksWithoutRetainedPoints) {
  // A run without a collector is the at-scale configuration: the streaming
  // sinks are the only output and nothing outlives a point. The streamed
  // CSV must still be byte-identical to what a collecting run produces.
  AggregateCollector collected;
  SweepOptions collecting = ProbeSweep(4, 0, 1);
  collecting.point_sinks.push_back(&collected);
  EXPECT_EQ(RunCsv(ProbeSweep(4, 0, 1)), RunCsv(collecting));
}

TEST(SweepStreamCsv, CollectorRejectsSecondRun) {
  AggregateCollector collected;
  SweepOptions options = ProbeSweep(2, 0, 1);
  options.point_sinks.push_back(&collected);
  RunSweepCampaign(options);
  EXPECT_THROW(RunSweepCampaign(options), std::logic_error);
  EXPECT_EQ(collected.points().size(), 6u);
}

}  // namespace
}  // namespace wlansim
