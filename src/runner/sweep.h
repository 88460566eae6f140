// The campaign engine. A run is a cartesian grid of scenario parameters —
// a plain campaign is the grid with zero axes, whose single point is the
// base parameter set — and the engine feeds every (grid point,
// replication) pair of this shard through one global worker pool. The
// flattened task queue keeps the pool saturated even when replications <
// jobs (per-point batching would idle the spare workers at every point).
// Replication seeds are derived from the *parameter assignment* of each
// point (not its grid index, shard, or worker), so results are
// byte-identical for any --jobs value, any --shard=i/n split, and even any
// axis ordering.
//
// Each point's records are reordered (runner/reorder.h) into replication
// order and land in that point's WLSR GroupEncoder, the only record store.
// When the point's last replication lands, the engine folds the finished
// group one column at a time (AggregateGroup: exact quantiles at any
// replication count) and hands group and aggregates to the point sinks.

#ifndef WLANSIM_RUNNER_SWEEP_H_
#define WLANSIM_RUNNER_SWEEP_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runner/result_sink.h"
#include "runner/scenario.h"

namespace wlansim {

struct BinaryGroup;

// One swept parameter: a key and its ordered value list.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

// Parses one "--sweep" spec into an axis. Two forms:
//   KEY=v1,v2,v3       explicit value list
//   KEY=lo:hi:step     inclusive numeric range (step > 0, lo <= hi)
// Values are kept as strings so they round-trip unchanged through
// ScenarioParams and the output CSV; range endpoints are formatted with the
// same fixed "%.9g" convention the CSV writers use. Throws
// std::invalid_argument on a malformed spec (missing '=', empty key, empty
// value list, empty list element, non-numeric or non-advancing range).
SweepAxis ParseSweepAxis(const std::string& spec);

// An ordered list of axes defining a cartesian parameter grid. Point i
// enumerates the grid with the FIRST axis varying slowest and the last axis
// fastest (row-major), so the combined CSV reads like nested loops.
class SweepGrid {
 public:
  // Throws std::invalid_argument when the axis key duplicates an existing
  // axis, the axis has no values, or the grid's point count would overflow
  // size_t.
  void AddAxis(SweepAxis axis);

  bool empty() const { return axes_.empty(); }
  size_t NumPoints() const;  // product of axis sizes; 1 for an empty grid

  // Axis keys in axis order: the parameter columns of the long-format CSV.
  std::vector<std::string> Keys() const;

  // Grid point `index` as ordered (key, value) pairs, one per axis.
  std::vector<std::pair<std::string, std::string>> Point(size_t index) const;

  const std::vector<SweepAxis>& axes() const { return axes_; }

 private:
  std::vector<SweepAxis> axes_;
};

// Contiguous [begin, end) slice of `total` grid points owned by shard
// `index` of `count`. Slices are disjoint, cover every point exactly once,
// and are stable: concatenating the slices for shards 0..count-1 in order
// reproduces 0..total exactly, which is what lets shard CSVs be merged
// byte-for-byte into the unsharded output. Throws std::invalid_argument when
// count == 0 or index >= count.
std::pair<size_t, size_t> ShardRange(size_t total, unsigned index, unsigned count);

// What a point sink knows about the sweep before the first point.
struct SweepManifest {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replications = 0;  // per grid point
  std::vector<std::string> param_keys;  // axis keys, axis order; empty for a campaign
  size_t shard_points = 0;  // grid points this shard runs
  size_t total_points = 0;  // whole grid
};

// Identity of one grid point, as handed to point sinks.
struct SweepPointInfo {
  size_t point_index = 0;  // global grid index, not shard-local
  uint64_t point_seed = 0;
  std::vector<std::pair<std::string, std::string>> point;  // (key, value), axis order
};

// A sweep-wide consumer of per-point completions. Points finish in
// completion order on the worker pool, but the engine re-orders them
// (runner/reorder.h, keyed by grid index) so OnPointDone always fires in
// ascending grid order, serialized — sinks need no synchronization and can
// stream ordered output while later points are still running.
class SweepPointSink {
 public:
  virtual ~SweepPointSink() = default;

  // Called once, before any point runs.
  virtual void BeginSweep(const SweepManifest& manifest) { (void)manifest; }

  // Called once per grid point, in grid order, with the point's exact
  // aggregates and its finished WLSR group (every record, encoded; see
  // results/binary_reader.h). The group dies when OnPointDone returns.
  virtual void OnPointDone(const SweepPointInfo& info,
                           const std::vector<MetricAggregate>& aggregates,
                           const BinaryGroup& group) = 0;

  // Called once, after the last point.
  virtual void EndSweep() {}
};

// Streams the long-format CSV (header + one row per point and metric) to
// `out` as points complete, byte-identical to SweepResultToCsv over the
// same run — the header is a pure function of the manifest and each point's
// rows are a pure function of its aggregates, so nothing needs to wait for
// the run to end. With zero axes this is the campaign aggregate CSV.
class StreamingSweepCsvWriter final : public SweepPointSink {
 public:
  explicit StreamingSweepCsvWriter(std::ostream& out) : out_(out) {}

  void BeginSweep(const SweepManifest& manifest) override;
  void OnPointDone(const SweepPointInfo& info,
                   const std::vector<MetricAggregate>& aggregates,
                   const BinaryGroup& group) override;
  void EndSweep() override;

 private:
  std::ostream& out_;
  bool begun_ = false;
};

// The --reps-csv writer: `replication,<metric columns sorted by name>`, one
// row per replication, streamed from the finished group of a zero-axis run
// (a campaign) by WriteReplicationCsv — the function `wlansim_results
// export` runs too, so both print the same bytes. BeginSweep throws
// std::invalid_argument for a grid with axes (one header, one point) and
// std::logic_error when the writer already served a run.
class ReplicationCsvWriter final : public SweepPointSink {
 public:
  explicit ReplicationCsvWriter(std::ostream& out) : out_(out) {}

  void BeginSweep(const SweepManifest& manifest) override;
  void OnPointDone(const SweepPointInfo& info,
                   const std::vector<MetricAggregate>& aggregates,
                   const BinaryGroup& group) override;
  void EndSweep() override;

 private:
  std::ostream& out_;
  bool begun_ = false;
};

struct SweepOptions {
  std::string scenario;
  // Applied to every grid point. A key may not be both a base param and a
  // sweep axis: RunSweepCampaign rejects the ambiguity.
  ScenarioParams base_params;
  SweepGrid grid;
  uint64_t base_seed = 1;
  uint64_t replications = 1;
  // Worker threads for the shard's whole (point, replication) task queue
  // (0 = hardware concurrency).
  unsigned jobs = 1;
  // This process runs the grid points in ShardRange(n, shard_index, shard_count).
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  // Per-point completion sinks (not owned, must outlive RunSweepCampaign).
  // Each receives every point in grid order; see SweepPointSink.
  std::vector<SweepPointSink*> point_sinks;
  // When false, SweepResult::points stays empty — the sinks are the only
  // output, and peak memory no longer grows with the shard's point count.
  // (Aggregates are still computed per point and handed to the sinks.)
  bool retain_points = true;
};

// Aggregates for one grid point.
struct SweepPointResult {
  size_t point_index = 0;  // global grid index, not shard-local
  std::vector<std::pair<std::string, std::string>> point;  // (key, value), axis order
  std::vector<MetricAggregate> aggregates;                 // ordered by metric name
};

struct SweepResult {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replications = 1;
  std::vector<std::string> param_keys;   // axis keys, axis order
  std::vector<SweepPointResult> points;  // this shard's slice, grid order
};

// The base seed for one grid point's replication batch: a substream of
// `base_seed` keyed by the point's sorted key=value assignment. The empty
// assignment — a campaign's single point — is `base_seed` itself, so a
// campaign's replication seeds are SubstreamSeed(base_seed, scenario, i).
// Exposed so tests can assert shard/order independence directly.
uint64_t SweepPointSeed(uint64_t base_seed,
                        const std::vector<std::pair<std::string, std::string>>& point);

// Expands the grid, takes this shard's slice, and runs
// options.replications replications of every grid point on options.jobs
// threads. Throws std::invalid_argument for an unknown scenario (the
// message lists the registered ones), an unknown or ambiguous parameter,
// an invalid shard spec, or zero replications. A scenario exception, or a
// replication whose metric set differs from the first replication's, is
// rethrown on the calling thread.
SweepResult RunSweepCampaign(const SweepOptions& options);

// The long-format combined CSV for a sweep (header + one row per point and
// metric), emitted via SweepLongCsv.
std::string SweepResultToCsv(const SweepResult& result);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_SWEEP_H_
