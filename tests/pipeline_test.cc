// Results-pipeline tests: ordered fan-out through the reorder buffer
// (out-of-order completion, double-set detection), MetricRecorder flush
// rules, streamed per-replication CSV byte-identity (across worker counts
// and against the run's own WLSR records), and sharded sweep CSV merging.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/sweep.h"

namespace wlansim {
namespace {

// --- ResultPipeline ordering and double-set detection --------------------------

ReplicationRecord MakeRecord(uint64_t replication, double value) {
  ReplicationRecord record;
  record.replication = replication;
  record.metrics["x"] = value;
  return record;
}

class OrderSpy final : public ResultConsumer {
 public:
  void BeginCampaign(const CampaignManifest& manifest) override {
    begun_scenario = manifest.scenario;
  }
  void OnRecord(const ReplicationRecord& record) override {
    seen.push_back(record.replication);
  }
  void EndCampaign() override { ended = true; }

  std::string begun_scenario;
  std::vector<uint64_t> seen;
  bool ended = false;
};

CampaignManifest TestManifest(uint64_t replications) {
  CampaignManifest manifest;
  manifest.scenario = "probe";
  manifest.replications = replications;
  return manifest;
}

TEST(ResultPipelineTest, ReordersOutOfOrderCompletions) {
  ResultPipeline pipeline(TestManifest(5));
  OrderSpy spy;
  pipeline.AddConsumer(&spy);
  pipeline.Begin();
  EXPECT_EQ(spy.begun_scenario, "probe");
  for (uint64_t index : {3u, 1u, 0u, 4u, 2u}) {
    pipeline.Deliver(MakeRecord(index, 1.0));
  }
  pipeline.End();
  EXPECT_EQ(spy.seen, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(spy.ended);
  // {3, 1} waited for 0; with 0 delivered the buffer drains, then {4}
  // waits for 2: high-water mark is the 3 records present just after 0
  // arrives (and before the drain pops them).
  EXPECT_EQ(pipeline.max_reorder_depth(), 3u);
}

TEST(ResultPipelineTest, DoubleDeliveryThrows) {
  ResultPipeline pipeline(TestManifest(3));
  pipeline.Begin();
  pipeline.Deliver(MakeRecord(1, 1.0));
  // Both flavours: an index still buffered, and one already dispatched.
  EXPECT_THROW(pipeline.Deliver(MakeRecord(1, 2.0)), std::logic_error);
  pipeline.Deliver(MakeRecord(0, 1.0));
  EXPECT_THROW(pipeline.Deliver(MakeRecord(0, 2.0)), std::logic_error);
  EXPECT_THROW(pipeline.Deliver(MakeRecord(1, 2.0)), std::logic_error);
}

TEST(ResultPipelineTest, OutOfRangeIndexThrows) {
  ResultPipeline pipeline(TestManifest(2));
  pipeline.Begin();
  EXPECT_THROW(pipeline.Deliver(MakeRecord(2, 1.0)), std::out_of_range);
}

TEST(ResultPipelineTest, EndWithMissingReplicationsThrows) {
  ResultPipeline pipeline(TestManifest(2));
  pipeline.Begin();
  pipeline.Deliver(MakeRecord(1, 1.0));  // 0 never arrives
  EXPECT_THROW(pipeline.End(), std::logic_error);
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

// --- Golden test: streamed per-replication CSV -------------------------------

// A campaign: the run engine's grid with no axes.
SweepOptions ProbeCampaign(unsigned jobs, uint64_t reps) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 99;
  options.replications = reps;
  options.jobs = jobs;
  return options;
}

TEST(StreamingGolden, StreamedRowsMatchAcrossJobsAndTheRunsOwnRecords) {
  // Rows hit the stream as replications complete (out of order across 8
  // workers), yet the bytes must equal the serial run's and the export of
  // the run's own WLSR group — the one record store.
  std::ostringstream serial_rows;
  StreamingCsvWriter serial_writer(serial_rows);
  SweepOptions serial = ProbeCampaign(1, 64);
  serial.consumers.push_back(&serial_writer);
  RunSweepCampaign(serial);

  SweepOptions parallel = ProbeCampaign(8, 64);
  std::ostringstream parallel_rows;
  StreamingCsvWriter parallel_writer(parallel_rows);
  parallel.consumers.push_back(&parallel_writer);
  std::ostringstream bin;
  BinaryResultsWriter bin_writer(bin);
  parallel.point_sinks.push_back(&bin_writer);
  const SweepResult result = RunSweepCampaign(parallel);

  EXPECT_EQ(parallel_rows.str(), serial_rows.str());
  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), serial_rows.str());
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.replications, 64u);
}

TEST(StreamingGolden, StreamingWriterRejectsDriftingMetricSet) {
  std::ostringstream out;
  StreamingCsvWriter writer(out);
  writer.OnRecord(MakeRecord(0, 1.0));
  ReplicationRecord drifted = MakeRecord(1, 1.0);
  drifted.metrics["extra"] = 2.0;
  EXPECT_THROW(writer.OnRecord(drifted), std::runtime_error);
}

TEST(StreamingGolden, StreamingWriterRejectsSecondCampaign) {
  // Reusing one writer across campaigns would append replication-0 rows
  // with no fresh header to the same stream — refuse, loudly.
  std::ostringstream out;
  StreamingCsvWriter writer(out);
  SweepOptions options = ProbeCampaign(2, 4);
  options.consumers.push_back(&writer);
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
  const std::string full = SweepResultToCsv(RunSweepCampaign(ProbeSweep(4, 0, 1)));
  std::string merged;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const std::string part = SweepResultToCsv(RunSweepCampaign(ProbeSweep(4, shard, 3)));
    merged += shard == 0 ? part : part.substr(part.find('\n') + 1);
  }
  EXPECT_EQ(full, merged);
}

// --- dense_multi_bss per-station histogram through the recorder ----------------

class DistributionSpy final : public ResultConsumer {
 public:
  void OnRecord(const ReplicationRecord& record) override { records.push_back(record); }
  std::vector<ReplicationRecord> records;
};

TEST(DenseMultiBssHistogram, PerStationThroughputRecorded) {
  DistributionSpy spy;
  SweepOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.base_params.Set("n_bss", "2");
  options.base_params.Set("stas_per_bss", "3");
  options.base_params.Set("sim_time_s", "0.3");
  options.base_params.Set("sta_hist", "true");
  options.consumers.push_back(&spy);
  const SweepResult result = RunSweepCampaign(options);

  bool saw_p50 = false;
  for (const MetricAggregate& a : result.points.front().aggregates) {
    if (a.metric == "per_sta_mbps_p50") {
      saw_p50 = true;
    }
  }
  EXPECT_TRUE(saw_p50);

  ASSERT_EQ(spy.records.size(), 1u);
  const DistributionSnapshot& dist = spy.records[0].distributions.at("per_sta_mbps");
  EXPECT_EQ(dist.total, 6u);  // 2 BSS x 3 stations
  EXPECT_GE(dist.min, 0.0);
  const auto& m = spy.records[0].metrics;
  EXPECT_LE(m.at("per_sta_mbps_p10"), m.at("per_sta_mbps_p90"));
  EXPECT_LE(m.at("per_sta_mbps_min"), m.at("per_sta_mbps_mean"));
}

TEST(DenseMultiBssHistogram, OffByDefaultKeepsColumnSetUnchanged) {
  SweepOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.base_params.Set("n_bss", "1");
  options.base_params.Set("stas_per_bss", "2");
  options.base_params.Set("sim_time_s", "0.3");
  const SweepResult result = RunSweepCampaign(options);
  for (const MetricAggregate& a : result.points.front().aggregates) {
    EXPECT_EQ(a.metric.find("per_sta_mbps"), std::string::npos) << a.metric;
  }
}

}  // namespace
}  // namespace wlansim
