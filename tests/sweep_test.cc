// Sweep engine tests: axis spec parsing (lists, ranges, malformed specs),
// cartesian grid expansion and ordering, shard partition properties, RFC 4180
// CSV escaping, the campaign as the zero-axis grid, and the end-to-end
// determinism guarantee — sweep results are byte-identical for any --jobs
// value and any --shard=i/n recombination.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/result_sink.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "tests/run_support.h"

namespace wlansim {
namespace {

// --- ParseSweepAxis ------------------------------------------------------------

TEST(ParseSweepAxis, ValueList) {
  const SweepAxis axis = ParseSweepAxis("n_stas=1,5,10,20");
  EXPECT_EQ(axis.key, "n_stas");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "5", "10", "20"}));
}

TEST(ParseSweepAxis, SingleValue) {
  const SweepAxis axis = ParseSweepAxis("controller=arf");
  EXPECT_EQ(axis.key, "controller");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"arf"}));
}

TEST(ParseSweepAxis, IntegerRange) {
  const SweepAxis axis = ParseSweepAxis("distance=10:100:10");
  EXPECT_EQ(axis.key, "distance");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"10", "20", "30", "40", "50", "60", "70",
                                                   "80", "90", "100"}));
}

TEST(ParseSweepAxis, FractionalRangeIncludesUpperBound) {
  const SweepAxis axis = ParseSweepAxis("x=0.5:2:0.5");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0.5", "1", "1.5", "2"}));
}

TEST(ParseSweepAxis, RangeUpperBoundNotOnLattice) {
  const SweepAxis axis = ParseSweepAxis("x=1:10:4");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "5", "9"}));
}

TEST(ParseSweepAxis, MalformedSpecsRejected) {
  for (const char* spec : {
           "no_equals",        // no '='
           "=1,2",             // empty key
           "k=",               // empty value list
           "k=1,,2",           // empty element
           "k=1,2,",           // trailing comma
           "k=1:10",           // range needs three fields
           "k=1:10:2:3",       // too many fields
           "k=1:10:0",         // zero step
           "k=1:10:-2",        // negative step
           "k=10:1:2",         // hi < lo
           "k=a:10:2",         // non-numeric bound
           "k=1:10:x",         // non-numeric step
       }) {
    EXPECT_THROW(ParseSweepAxis(spec), std::invalid_argument) << spec;
  }
}

// --- SweepGrid -----------------------------------------------------------------

TEST(SweepGrid, CartesianExpansionRowMajor) {
  SweepGrid grid;
  grid.AddAxis(ParseSweepAxis("a=1,2"));
  grid.AddAxis(ParseSweepAxis("b=x,y,z"));
  ASSERT_EQ(grid.NumPoints(), 6u);
  EXPECT_EQ(grid.Keys(), (std::vector<std::string>{"a", "b"}));
  // First axis slowest, last axis fastest: nested-loop order.
  const std::vector<std::pair<std::string, std::string>> expected[] = {
      {{"a", "1"}, {"b", "x"}}, {{"a", "1"}, {"b", "y"}}, {{"a", "1"}, {"b", "z"}},
      {{"a", "2"}, {"b", "x"}}, {{"a", "2"}, {"b", "y"}}, {{"a", "2"}, {"b", "z"}},
  };
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(grid.Point(i), expected[i]) << i;
  }
}

TEST(SweepGrid, EmptyGridHasOnePoint) {
  SweepGrid grid;
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.NumPoints(), 1u);
  EXPECT_TRUE(grid.Point(0).empty());
}

TEST(SweepGrid, DuplicateKeyRejected) {
  SweepGrid grid;
  grid.AddAxis(ParseSweepAxis("a=1,2"));
  EXPECT_THROW(grid.AddAxis(ParseSweepAxis("a=3,4")), std::invalid_argument);
}

TEST(SweepGrid, PointCountOverflowRejected) {
  // Four 2^16-value axes make 2^64 points, which wraps size_t to 0: the
  // fourth axis is refused instead of yielding an empty grid.
  SweepGrid grid;
  for (const char* key : {"a", "b", "c"}) {
    grid.AddAxis(ParseSweepAxis(std::string(key) + "=1:65536:1"));
  }
  EXPECT_EQ(grid.NumPoints(), size_t{1} << 48);
  EXPECT_THROW(grid.AddAxis(ParseSweepAxis("d=1:65536:1")), std::invalid_argument);
  EXPECT_EQ(grid.axes().size(), 3u);
  EXPECT_EQ(grid.NumPoints(), size_t{1} << 48);
}

// --- ShardRange ----------------------------------------------------------------

TEST(ShardRange, DisjointExhaustiveStable) {
  for (size_t total : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (unsigned count : {1u, 2u, 3u, 7u, 16u}) {
      size_t expected_begin = 0;
      for (unsigned index = 0; index < count; ++index) {
        const auto [begin, end] = ShardRange(total, index, count);
        // Contiguous with the previous shard: together disjoint + exhaustive.
        EXPECT_EQ(begin, expected_begin) << total << " " << index << "/" << count;
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ShardRange, BalancedWithinOne) {
  const size_t total = 17;
  const unsigned count = 5;
  for (unsigned index = 0; index < count; ++index) {
    const auto [begin, end] = ShardRange(total, index, count);
    const size_t size = end - begin;
    EXPECT_GE(size, total / count);
    EXPECT_LE(size, total / count + 1);
  }
}

TEST(ShardRange, MoreShardsThanPointsLeavesSomeEmpty) {
  size_t covered = 0;
  for (unsigned index = 0; index < 8; ++index) {
    const auto [begin, end] = ShardRange(3, index, 8);
    covered += end - begin;
  }
  EXPECT_EQ(covered, 3u);
}

TEST(ShardRange, HugeGridsSplitWithoutOverflow) {
  // total * index exceeds size_t here; the bounds must still be exact.
  const size_t total = std::numeric_limits<size_t>::max();  // divisible by 3
  EXPECT_EQ(ShardRange(total, 0, 3), std::make_pair(size_t{0}, total / 3));
  EXPECT_EQ(ShardRange(total, 1, 3), std::make_pair(total / 3, total / 3 * 2));
  EXPECT_EQ(ShardRange(total, 2, 3), std::make_pair(total / 3 * 2, total));
  const unsigned count = std::numeric_limits<unsigned>::max();
  EXPECT_EQ(ShardRange(total, count - 1, count).second, total);
}

TEST(ShardRange, InvalidSpecRejected) {
  EXPECT_THROW(ShardRange(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(ShardRange(10, 2, 2), std::invalid_argument);
  EXPECT_THROW(ShardRange(10, 5, 3), std::invalid_argument);
}

// --- RFC 4180 CSV escaping -----------------------------------------------------

TEST(CsvEscaping, PlainFieldsPassThrough) {
  EXPECT_EQ(CsvField("goodput_mbps"), "goodput_mbps");
  EXPECT_EQ(CsvField(""), "");
  EXPECT_EQ(CsvField("1.5"), "1.5");
}

TEST(CsvEscaping, SpecialFieldsQuoted) {
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvField("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvEscaping, MetricNamesEscapedInWriters) {
  const std::string agg_csv =
      SweepLongCsvHeader({}) +
      SweepLongCsvRows({}, {AggregateScalarSamples("throughput, up", {1.0})});
  EXPECT_NE(agg_csv.find("\"throughput, up\",1,1"), std::string::npos) << agg_csv;
  GroupEncoder encoder(0, 1, {}, 1);
  ReplicationRecord rep;
  rep.metrics["throughput, up"] = 1.0;
  rep.metrics["plain"] = 2.0;
  encoder.Add(rep);
  std::ostringstream reps_csv;
  WriteReplicationCsv(encoder.Finish(), reps_csv);
  EXPECT_EQ(reps_csv.str(), "replication,plain,\"throughput, up\"\n0,2,1\n");
}

TEST(CsvEscaping, SweepLongCsvEscapesKeysAndValues) {
  MetricAggregate agg;
  agg.metric = "x,y";
  agg.count = 1;
  const std::string csv =
      SweepLongCsvHeader({"weird,key"}) + SweepLongCsvRows({"va\"lue"}, {agg});
  EXPECT_NE(csv.find("\"weird,key\",metric,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"va\"\"lue\",\"x,y\",1,"), std::string::npos) << csv;
}

// --- Sweep campaign determinism ------------------------------------------------

// Registered once into the global registry: reports its seed and parameters
// so any dependence on grid index, shard layout or worker count is visible.
void RegisterProbeScenario() {
  static bool registered = false;
  if (registered) {
    return;
  }
  registered = true;
  ScenarioRegistry::Global().Register(
      "sweep_probe_test", "sweep determinism probe",
      {{"a", "0", "axis a"}, {"b", "0", "axis b"}, {"base", "0", "base param"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        ReplicationResult r;
        r.metrics["seed_mod"] = static_cast<double>(ctx.seed % 1000003);
        r.metrics["a"] = params.GetDouble("a", 0);
        r.metrics["b"] = params.GetDouble("b", 0);
        r.metrics["base"] = params.GetDouble("base", 0);
        return r;
      });
}

SweepOptions ProbeOptions(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  RegisterProbeScenario();
  SweepOptions options;
  options.scenario = "sweep_probe_test";
  options.base_params.Set("base", "7");
  options.grid.AddAxis(ParseSweepAxis("a=1:3:1"));
  options.grid.AddAxis(ParseSweepAxis("b=10,20"));
  options.base_seed = 99;
  options.replications = 4;
  options.jobs = jobs;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

TEST(SweepCampaign, RunsEveryPointWithMergedParams) {
  const std::vector<AggregateCollector::Point> points = RunCollect(ProbeOptions(1, 0, 1));
  ASSERT_EQ(points.size(), 6u);
  // Row-major order, base param present everywhere.
  EXPECT_EQ(points[0].info.point,
            (std::vector<std::pair<std::string, std::string>>{{"a", "1"}, {"b", "10"}}));
  EXPECT_EQ(points[5].info.point,
            (std::vector<std::pair<std::string, std::string>>{{"a", "3"}, {"b", "20"}}));
  for (size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(points[p].info.point_index, p);
    EXPECT_EQ(points[p].info.point_seed, SweepPointSeed(99, points[p].info.point));
  }
  for (const AggregateCollector::Point& point : points) {
    for (const MetricAggregate& a : point.aggregates) {
      if (a.metric == "base") {
        EXPECT_DOUBLE_EQ(a.mean, 7.0);
      }
    }
  }
}

TEST(SweepCampaign, CsvIdenticalAcrossJobs) {
  const std::string serial = RunCsv(ProbeOptions(1, 0, 1));
  const std::string parallel = RunCsv(ProbeOptions(8, 0, 1));
  EXPECT_EQ(serial, parallel);
}

TEST(SweepCampaign, CrossPointWorkQueueSaturatesAndStaysDeterministic) {
  // One replication per point used to clamp the pool to a single worker;
  // the global (point, rep) queue now spreads the 6 points across all 8
  // workers — and the CSV must not change, because seeds are keyed by the
  // parameter assignment, never by the executing worker.
  SweepOptions serial_options = ProbeOptions(1, 0, 1);
  serial_options.replications = 1;
  SweepOptions pooled_options = ProbeOptions(8, 0, 1);
  pooled_options.replications = 1;
  EXPECT_EQ(RunCsv(serial_options), RunCsv(pooled_options));
}

TEST(SweepCampaign, CsvIdenticalAcrossShardRecombination) {
  const std::string full = RunCsv(ProbeOptions(2, 0, 1));
  for (unsigned count : {2u, 3u, 6u}) {
    std::string merged;
    for (unsigned index = 0; index < count; ++index) {
      const std::string shard = RunCsv(ProbeOptions(2, index, count));
      const size_t header_end = shard.find('\n') + 1;
      merged += index == 0 ? shard : shard.substr(header_end);
    }
    EXPECT_EQ(full, merged) << count << " shards";
  }
}

TEST(SweepCampaign, PointSeedIndependentOfAxisOrderAndShard) {
  const uint64_t forward = SweepPointSeed(5, {{"a", "1"}, {"b", "2"}});
  const uint64_t reversed = SweepPointSeed(5, {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(forward, reversed);
  EXPECT_NE(forward, SweepPointSeed(5, {{"a", "1"}, {"b", "3"}}));
  EXPECT_NE(forward, SweepPointSeed(6, {{"a", "1"}, {"b", "2"}}));
}

TEST(SweepCampaign, PointSeedEncodingInjective) {
  // Values containing the encoding's separator characters must not make two
  // distinct assignments collide.
  EXPECT_NE(SweepPointSeed(5, {{"a", "1|b=2"}}),
            SweepPointSeed(5, {{"a", "1"}, {"b", "2"}}));
  EXPECT_NE(SweepPointSeed(5, {{"a", "1="}, {"b", ""}}),
            SweepPointSeed(5, {{"a", "1"}, {"=b", ""}}));
  EXPECT_NE(SweepPointSeed(5, {{"ab", "c"}}), SweepPointSeed(5, {{"a", "bc"}}));
}

TEST(SweepCampaign, ZeroAxisGridIsTheCampaign) {
  // The empty assignment keeps the base seed, so a campaign — the grid with
  // no axes — seeds replication i with SubstreamSeed(base_seed, scenario, i).
  EXPECT_EQ(SweepPointSeed(5, {}), 5u);
  SweepOptions options = ProbeOptions(4, 0, 1);
  options.grid = SweepGrid();
  // Its long CSV is the campaign aggregate table: no parameter columns.
  EXPECT_EQ(RunCsv(options).substr(0, 7), "metric,");
  AggregateCollector collected;
  options.point_sinks.push_back(&collected);
  const BinaryResultsFile file = ParseBinaryResults(RunBinary(options));
  ASSERT_EQ(collected.points().size(), 1u);
  EXPECT_TRUE(collected.points()[0].info.point.empty());
  EXPECT_EQ(collected.points()[0].info.point_seed, 99u);
  EXPECT_TRUE(file.header.param_keys.empty());
  ASSERT_EQ(file.groups.size(), 1u);
  const std::vector<double> seed_mod = ScalarColumn(file.groups[0], "seed_mod");
  ASSERT_EQ(seed_mod.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(seed_mod[i],
                     static_cast<double>(SubstreamSeed(99, "sweep_probe_test", i) % 1000003));
  }
}

TEST(SweepCampaign, RepsCsvWriterNeedsAZeroAxisGrid) {
  // The per-replication CSV has one header for one point's rows.
  std::ostringstream rows;
  ReplicationCsvWriter writer(rows);
  SweepOptions options = ProbeOptions(2, 0, 1);
  options.point_sinks.push_back(&writer);
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
  EXPECT_TRUE(rows.str().empty());
}

TEST(SweepCampaign, ZeroReplicationsRejected) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.replications = 0;
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

TEST(SweepCampaign, ParamAndSweepKeyConflictRejected) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.base_params.Set("a", "9");
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

TEST(SweepCampaign, UnknownSweepKeyRejected) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.grid.AddAxis(ParseSweepAxis("not_a_param=1,2"));
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

TEST(SweepCampaign, UnknownKeyRejectedEvenOnEmptyShardSlice) {
  // 6 points over 8 shards: the last shard's slice is empty, but validation
  // still runs so a multi-host launch fails everywhere, not just on hosts
  // that happened to get work.
  SweepOptions options = ProbeOptions(1, 7, 8);
  options.grid.AddAxis(ParseSweepAxis("not_a_param=1,2"));
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

// The acceptance-criteria case, on a real scenario: a rate_vs_distance
// distance sweep whose long-format CSV is byte-identical across jobs values
// and across a two-way shard recombination.
TEST(SweepCampaign, RateVsDistanceDeterministicAcrossJobsAndShards) {
  auto make_options = [](unsigned jobs, unsigned shard_index, unsigned shard_count) {
    SweepOptions options;
    options.scenario = "rate_vs_distance";
    options.base_params.Set("sim_time_s", "0.3");
    options.grid.AddAxis(ParseSweepAxis("distance=10:100:30"));
    options.base_seed = 42;
    options.replications = 3;
    options.jobs = jobs;
    options.shard_index = shard_index;
    options.shard_count = shard_count;
    return options;
  };

  const std::string serial = RunCsv(make_options(1, 0, 1));
  const std::string parallel = RunCsv(make_options(0, 0, 1));
  EXPECT_EQ(serial, parallel);

  const std::string half0 = RunCsv(make_options(2, 0, 2));
  const std::string half1 = RunCsv(make_options(2, 1, 2));
  EXPECT_EQ(serial, half0 + half1.substr(half1.find('\n') + 1));
}

}  // namespace
}  // namespace wlansim
