// Results-pipeline tests: the engine's reorder buffer (out-of-order
// completion, double-set detection), MetricRecorder flush rules,
// per-replication CSV byte-identity (across worker counts and against the
// export of the run's own WLSR file), and sharded sweep CSV merging.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "runner/reorder.h"
#include "runner/result_sink.h"
#include "runner/sweep.h"
#include "tests/run_support.h"

namespace wlansim {
namespace {

// --- ReorderBuffer ordering and double-set detection ---------------------------

// Delivers `item` at `index`, appending every emitted item to `seen`.
bool DeliverTo(ReorderBuffer<double>& buffer, uint64_t index, double item,
               std::vector<double>* seen) {
  return buffer.Deliver(index, item, [seen](double emitted) { seen->push_back(emitted); });
}

TEST(ReorderBufferTest, ReordersOutOfOrderCompletions) {
  ReorderBuffer<double> buffer(5);
  std::vector<double> seen;
  std::vector<bool> completed;
  for (uint64_t index : {3u, 1u, 0u, 4u, 2u}) {
    completed.push_back(DeliverTo(buffer, index, 10.0 * static_cast<double>(index), &seen));
  }
  buffer.CheckComplete();
  EXPECT_EQ(seen, (std::vector<double>{0, 10, 20, 30, 40}));
  // Only the delivery that emits the last index reports completion.
  EXPECT_EQ(completed, (std::vector<bool>{false, false, false, false, true}));
  // {3, 1} waited for 0; with 0 delivered the buffer drains, then {4}
  // waits for 2: high-water mark is the 3 items present just after 0
  // arrives (and before the drain pops them).
  EXPECT_EQ(buffer.max_reorder_depth(), 3u);
}

TEST(ReorderBufferTest, DoubleDeliveryThrows) {
  ReorderBuffer<double> buffer(3);
  std::vector<double> seen;
  DeliverTo(buffer, 1, 1.0, &seen);
  // Both flavours: an index still buffered, and one already emitted.
  EXPECT_THROW(DeliverTo(buffer, 1, 2.0, &seen), std::logic_error);
  DeliverTo(buffer, 0, 1.0, &seen);
  EXPECT_THROW(DeliverTo(buffer, 0, 2.0, &seen), std::logic_error);
  EXPECT_THROW(DeliverTo(buffer, 1, 2.0, &seen), std::logic_error);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 1.0}));
}

TEST(ReorderBufferTest, OutOfRangeIndexThrows) {
  ReorderBuffer<double> buffer(2);
  std::vector<double> seen;
  EXPECT_THROW(DeliverTo(buffer, 2, 1.0, &seen), std::out_of_range);
}

TEST(ReorderBufferTest, CheckCompleteWithMissingIndicesThrows) {
  ReorderBuffer<double> buffer(2);
  std::vector<double> seen;
  DeliverTo(buffer, 1, 1.0, &seen);  // 0 never arrives
  EXPECT_THROW(buffer.CheckComplete(), std::logic_error);
  EXPECT_TRUE(seen.empty());
}

// --- MetricRecorder flush rules ------------------------------------------------

TEST(MetricRecorderTest, FlushesCountersScalarsGaugesHistograms) {
  MetricRecorder recorder;
  recorder.AddCount("collisions");
  recorder.AddCount("collisions", 2.0);
  recorder.SetScalar("offered_mbps", 4.0);
  recorder.SetScalar("offered_mbps", 5.0);  // last set wins
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    recorder.AddSample("delay_ms", v);
  }
  recorder.DeclareHistogram("per_sta", 0.0, 1.0, 4);
  for (double v : {0.5, 1.5, 1.6, 2.5, 9.0}) {
    recorder.AddHistogramSample("per_sta", v);
  }

  ReplicationResult returned;
  returned.metrics["goodput"] = 7.0;
  const ReplicationRecord record = recorder.Finish(3, returned);

  EXPECT_EQ(record.replication, 3u);
  EXPECT_DOUBLE_EQ(record.metrics.at("collisions"), 3.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("offered_mbps"), 5.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("goodput"), 7.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_count"), 4.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_mean"), 2.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_min"), 1.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_max"), 4.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("per_sta_min"), 0.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("per_sta_max"), 9.0);
  EXPECT_GT(record.metrics.at("per_sta_p90"), record.metrics.at("per_sta_p10"));

  const DistributionSnapshot& dist = record.distributions.at("per_sta");
  EXPECT_EQ(dist.total, 5u);
  EXPECT_EQ(dist.overflow, 1u);  // the 9.0
  EXPECT_EQ(dist.bins, (std::vector<uint64_t>{1, 2, 1, 0}));
  EXPECT_DOUBLE_EQ(dist.mean, (0.5 + 1.5 + 1.6 + 2.5 + 9.0) / 5.0);
}

TEST(MetricRecorderTest, NameCollisionsThrow) {
  {
    MetricRecorder recorder;
    recorder.AddCount("goodput");
    ReplicationResult returned;
    returned.metrics["goodput"] = 1.0;  // collides with the counter
    EXPECT_THROW(recorder.Finish(0, returned), std::logic_error);
  }
  {
    MetricRecorder recorder;
    recorder.AddSample("x", 1.0);     // flushes x_mean
    recorder.SetScalar("x_mean", 2.0);  // collides with the gauge derivation
    EXPECT_THROW(recorder.Finish(0, {}), std::logic_error);
  }
}

TEST(MetricRecorderTest, HistogramMisuseThrows) {
  MetricRecorder recorder;
  EXPECT_THROW(recorder.AddHistogramSample("undeclared", 1.0), std::logic_error);
  recorder.DeclareHistogram("h", 0.0, 1.0, 4);
  EXPECT_THROW(recorder.DeclareHistogram("h", 0.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(recorder.DeclareHistogram("bad", 0.0, 0.0, 4), std::logic_error);
  EXPECT_THROW(recorder.DeclareHistogram("bad", 0.0, 1.0, 0), std::logic_error);
}

// --- Golden test: the per-replication CSV ------------------------------------

// A campaign: the run engine's grid with no axes.
SweepOptions ProbeCampaign(unsigned jobs, uint64_t reps) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 99;
  options.replications = reps;
  options.jobs = jobs;
  return options;
}

// Runs `options` with the --reps-csv and --binary-out sinks attached;
// returns the CSV and stores the WLSR bytes in `bin_out`.
std::string RunRepsCsv(SweepOptions options, std::string* bin_out) {
  std::ostringstream rows;
  ReplicationCsvWriter writer(rows);
  options.point_sinks.push_back(&writer);
  *bin_out = RunBinary(options);
  return rows.str();
}

TEST(StreamingGolden, RepsCsvMatchesAcrossJobsAndTheExportOfItsOwnFile) {
  // Replications complete out of order across 8 workers, yet --reps-csv
  // must equal the serial run's bytes and `wlansim_results export` of the
  // run's own WLSR file.
  std::string serial_bin, parallel_bin;
  const std::string serial = RunRepsCsv(ProbeCampaign(1, 64), &serial_bin);
  const std::string parallel = RunRepsCsv(ProbeCampaign(8, 64), &parallel_bin);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(ExportCsv(parallel_bin), serial);
  EXPECT_EQ(ExportCsv(serial_bin), serial);
  EXPECT_EQ(serial.substr(0, serial.find('\n')), "replication,seed_mod,value_0,value_1,value_2");
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 65);
}

TEST(StreamingGolden, RepsCsvWriterRejectsSecondCampaign) {
  // Reusing one writer across campaigns would append a second header and
  // replication-0 rows to the same stream — refuse, loudly.
  std::ostringstream out;
  ReplicationCsvWriter writer(out);
  SweepOptions options = ProbeCampaign(2, 4);
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  EXPECT_THROW(RunSweepCampaign(options), std::logic_error);
}

// --- Sweep: shard golden ------------------------------------------------------

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

TEST(StreamingGolden, ShardedSweepCsvMergesByteForByte) {
  const std::string full = RunCsv(ProbeSweep(4, 0, 1));
  std::string merged;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const std::string part = RunCsv(ProbeSweep(4, shard, 3));
    merged += shard == 0 ? part : part.substr(part.find('\n') + 1);
  }
  EXPECT_EQ(full, merged);
}

// --- dense_multi_bss per-station histogram through the recorder ----------------

TEST(DenseMultiBssHistogram, PerStationThroughputRecorded) {
  SweepOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.base_params.Set("n_bss", "2");
  options.base_params.Set("stas_per_bss", "3");
  options.base_params.Set("sim_time_s", "0.3");
  options.base_params.Set("sta_hist", "true");
  const std::vector<AggregateCollector::Point> points = RunCollect(options);

  // The record itself, from the scenario run outside the engine.
  const ReplicationRecord record = RunReplication(options, 0);
  const DistributionSnapshot& dist = record.distributions.at("per_sta_mbps");
  EXPECT_EQ(dist.total, 6u);  // 2 BSS x 3 stations
  EXPECT_GE(dist.min, 0.0);
  const auto& m = record.metrics;
  EXPECT_LE(m.at("per_sta_mbps_p10"), m.at("per_sta_mbps_p90"));
  EXPECT_LE(m.at("per_sta_mbps_min"), m.at("per_sta_mbps_mean"));

  // The campaign's one-replication aggregate is that record's value.
  bool saw_p50 = false;
  for (const MetricAggregate& a : points.front().aggregates) {
    if (a.metric == "per_sta_mbps_p50") {
      saw_p50 = true;
      EXPECT_EQ(a.mean, m.at("per_sta_mbps_p50"));
    }
  }
  EXPECT_TRUE(saw_p50);
}

TEST(DenseMultiBssHistogram, OffByDefaultKeepsColumnSetUnchanged) {
  SweepOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.base_params.Set("n_bss", "1");
  options.base_params.Set("stas_per_bss", "2");
  options.base_params.Set("sim_time_s", "0.3");
  const std::vector<AggregateCollector::Point> points = RunCollect(options);
  for (const MetricAggregate& a : points.front().aggregates) {
    EXPECT_EQ(a.metric.find("per_sta_mbps"), std::string::npos) << a.metric;
  }
}

}  // namespace
}  // namespace wlansim
