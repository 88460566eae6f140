#include "runner/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/random.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "runner/reorder.h"
#include "runner/scenario_registry.h"

namespace wlansim {
namespace {

// Same fixed "%.9g" convention as the CSV writers, so a range-generated
// value string is identical to what the output file prints.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Runs `total` independent tasks (task(0) .. task(total-1)) on a pool of
// `jobs` worker threads (0 = hardware concurrency; the pool is clamped to
// `total` so no idle threads spin up). Tasks are claimed from one shared
// atomic counter, so any task can run on any thread — results must not
// depend on the assignment. If a task throws, remaining unclaimed tasks are
// skipped and the first exception is rethrown on the calling thread.
void RunTaskPool(unsigned jobs, uint64_t total, const std::function<void(uint64_t)>& task) {
  if (total == 0) {
    return;
  }
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) {
      jobs = 1;
    }
  }
  if (total < jobs) {
    jobs = static_cast<unsigned>(total);
  }

  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&]() {
    for (uint64_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) {
        return;  // a task already threw; don't burn the remaining work
      }
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

[[noreturn]] void ThrowBadSpec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("malformed --sweep spec '" + spec + "': " + why);
}

bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  try {
    size_t consumed = 0;
    *out = std::stod(s, &consumed);
    return consumed == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

// KEY=lo:hi:step, inclusive of hi when it lands on the lattice (within half
// a ULP-ish tolerance so 0.1 steps behave).
std::vector<std::string> ExpandRange(const std::string& spec, const std::string& body) {
  const size_t c1 = body.find(':');
  const size_t c2 = body.find(':', c1 + 1);
  if (c2 == std::string::npos || body.find(':', c2 + 1) != std::string::npos) {
    ThrowBadSpec(spec, "range syntax is lo:hi:step");
  }
  double lo = 0, hi = 0, step = 0;
  if (!ParseNumber(body.substr(0, c1), &lo) ||
      !ParseNumber(body.substr(c1 + 1, c2 - c1 - 1), &hi) ||
      !ParseNumber(body.substr(c2 + 1), &step)) {
    ThrowBadSpec(spec, "range bounds and step must be numbers");
  }
  if (step <= 0) {
    ThrowBadSpec(spec, "range step must be > 0");
  }
  if (hi < lo) {
    ThrowBadSpec(spec, "range needs lo <= hi");
  }
  std::vector<std::string> values;
  const double tolerance = step * 1e-9;
  for (uint64_t i = 0;; ++i) {
    const double v = lo + static_cast<double>(i) * step;
    if (v > hi + tolerance) {
      break;
    }
    values.push_back(Num(v));
    if (values.size() > 1000000) {
      ThrowBadSpec(spec, "range expands to more than 10^6 values");
    }
  }
  return values;
}

}  // namespace

SweepAxis ParseSweepAxis(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    ThrowBadSpec(spec, "expected KEY=v1,v2,... or KEY=lo:hi:step");
  }
  SweepAxis axis;
  axis.key = spec.substr(0, eq);
  const std::string body = spec.substr(eq + 1);
  if (body.empty()) {
    ThrowBadSpec(spec, "empty value list");
  }
  if (body.find(':') != std::string::npos && body.find(',') == std::string::npos) {
    axis.values = ExpandRange(spec, body);
    return axis;
  }
  size_t start = 0;
  while (true) {
    const size_t comma = body.find(',', start);
    const std::string value = body.substr(start, comma - start);
    if (value.empty()) {
      ThrowBadSpec(spec, "empty value in list");
    }
    axis.values.push_back(value);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return axis;
}

void SweepGrid::AddAxis(SweepAxis axis) {
  if (axis.values.empty()) {
    throw std::invalid_argument("sweep axis '" + axis.key + "' has no values");
  }
  for (const SweepAxis& existing : axes_) {
    if (existing.key == axis.key) {
      throw std::invalid_argument("duplicate sweep key '" + axis.key + "'");
    }
  }
  size_t points = 0;
  if (__builtin_mul_overflow(NumPoints(), axis.values.size(), &points)) {
    throw std::invalid_argument("sweep axis '" + axis.key +
                                "' makes the grid's point count overflow size_t");
  }
  axes_.push_back(std::move(axis));
}

size_t SweepGrid::NumPoints() const {
  size_t n = 1;
  for (const SweepAxis& axis : axes_) {
    n *= axis.values.size();
  }
  return n;
}

std::vector<std::string> SweepGrid::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(axes_.size());
  for (const SweepAxis& axis : axes_) {
    keys.push_back(axis.key);
  }
  return keys;
}

std::vector<std::pair<std::string, std::string>> SweepGrid::Point(size_t index) const {
  std::vector<std::pair<std::string, std::string>> point(axes_.size());
  // Row-major: the last axis is the fastest-varying digit.
  for (size_t a = axes_.size(); a-- > 0;) {
    const std::vector<std::string>& values = axes_[a].values;
    point[a] = {axes_[a].key, values[index % values.size()]};
    index /= values.size();
  }
  return point;
}

std::pair<size_t, size_t> ShardRange(size_t total, unsigned index, unsigned count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("shard must be i/n with 0 <= i < n");
  }
  // In 128 bits: total * count can exceed size_t for a large grid.
  const auto bound = [&](unsigned i) {
    return static_cast<size_t>(static_cast<unsigned __int128>(total) * i / count);
  };
  return {bound(index), bound(index + 1)};
}

void StreamingSweepCsvWriter::BeginSweep(const SweepManifest& manifest) {
  if (begun_) {
    throw std::logic_error(
        "StreamingSweepCsvWriter attached to a second sweep: one writer, one stream");
  }
  begun_ = true;
  out_ << SweepLongCsvHeader(manifest.param_keys);
}

void StreamingSweepCsvWriter::OnPointDone(const SweepPointInfo& info,
                                          const std::vector<MetricAggregate>& aggregates,
                                          const BinaryGroup& group) {
  (void)group;
  std::vector<std::string> values;
  values.reserve(info.point.size());
  for (const auto& [key, value] : info.point) {
    values.push_back(value);
  }
  out_ << SweepLongCsvRows(values, aggregates);
}

void StreamingSweepCsvWriter::EndSweep() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("streaming sweep CSV write failed");
  }
}

void ReplicationCsvWriter::BeginSweep(const SweepManifest& manifest) {
  if (!manifest.param_keys.empty()) {
    throw std::invalid_argument(
        "the per-replication CSV needs a zero-axis grid (a campaign): one header, one point");
  }
  if (begun_) {
    throw std::logic_error(
        "ReplicationCsvWriter attached to a second run: one writer, one stream");
  }
  begun_ = true;
}

void ReplicationCsvWriter::OnPointDone(const SweepPointInfo& info,
                                       const std::vector<MetricAggregate>& aggregates,
                                       const BinaryGroup& group) {
  (void)info;
  (void)aggregates;
  WriteReplicationCsv(group, out_);
}

void ReplicationCsvWriter::EndSweep() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("per-replication CSV write failed");
  }
}

void AggregateCollector::BeginSweep(const SweepManifest& manifest) {
  if (begun_) {
    throw std::logic_error(
        "AggregateCollector attached to a second run: one collector, one run");
  }
  begun_ = true;
  points_.reserve(manifest.shard_points);
}

void AggregateCollector::OnPointDone(const SweepPointInfo& info,
                                     const std::vector<MetricAggregate>& aggregates,
                                     const BinaryGroup& group) {
  (void)group;
  points_.push_back({info, aggregates});
}

uint64_t SweepPointSeed(uint64_t base_seed,
                        const std::vector<std::pair<std::string, std::string>>& point) {
  // Key the substream by the sorted parameter assignment: the seed is a pure
  // function of (base_seed, what the point sets), never of grid index, shard
  // layout, or the order axes were declared in. Keys and values are
  // length-prefixed so the encoding is injective — no two distinct
  // assignments serialize to the same stream name, whatever characters the
  // values contain. A campaign's point sets nothing and keeps base_seed.
  if (point.empty()) {
    return base_seed;
  }
  std::vector<std::pair<std::string, std::string>> sorted = point;
  std::sort(sorted.begin(), sorted.end());
  std::string stream = "sweep";
  for (const auto& [key, value] : sorted) {
    stream += "|";
    stream += std::to_string(key.size());
    stream += ",";
    stream += std::to_string(value.size());
    stream += ":";
    stream += key;
    stream += "=";
    stream += value;
  }
  return SubstreamSeed(base_seed, stream, 0);
}

void RunSweepCampaign(const SweepOptions& options) {
  for (const SweepAxis& axis : options.grid.axes()) {
    if (options.base_params.Has(axis.key)) {
      throw std::invalid_argument("parameter '" + axis.key +
                                  "' given both as --param and --sweep");
    }
  }
  if (options.replications == 0) {
    throw std::invalid_argument("a run needs at least one replication per grid point");
  }
  const size_t total = options.grid.NumPoints();
  const auto [begin, end] = ShardRange(total, options.shard_index, options.shard_count);

  // Validate the whole grid's keys up front (all points share them), so an
  // unknown parameter fails fast even when this shard's slice is empty.
  const Scenario* scenario_ptr = ScenarioRegistry::Global().Find(options.scenario);
  if (scenario_ptr == nullptr) {
    std::string msg = "unknown scenario '" + options.scenario + "'; available:";
    for (const std::string& name : ScenarioRegistry::Global().Names()) {
      msg += " " + name;
    }
    throw std::invalid_argument(msg);
  }
  {
    ScenarioParams probe = options.base_params;
    for (const auto& [key, value] : options.grid.Point(0)) {
      probe.Set(key, value);
    }
    scenario_ptr->ValidateParams(probe);
  }

  // One global (point, rep) work queue: with per-point parallelism alone,
  // reps < jobs leaves workers idle at every grid point; flattening the
  // whole shard's task space keeps the pool saturated. Replication seeds
  // stay keyed by (point assignment, rep), never by which thread or in what
  // order a task runs, so every output is byte-identical for any --jobs.
  const size_t n_points = end - begin;
  const uint64_t reps = options.replications;
  const Scenario& scenario = *scenario_ptr;

  // Everything the engine holds for one grid point: its identity and
  // parameters, and its records reordered into its GroupEncoder. The worker
  // that delivers the point's last replication finishes the group, moves
  // the identity out and frees the rest, so peak memory is one encoded
  // group per in-flight point.
  struct PointState {
    PointState(SweepPointInfo point_info, ScenarioParams point_params,
               std::vector<std::string> param_values, uint64_t reps)
        : info(std::move(point_info)),
          params(std::move(point_params)),
          records(reps),
          encoder(info.point_index, info.point_seed, std::move(param_values), reps) {}
    SweepPointInfo info;
    ScenarioParams params;
    ReorderBuffer<ReplicationRecord> records;
    GroupEncoder encoder;
  };

  // Announce the run to the point sinks before any point is set up.
  SweepManifest sweep_manifest;
  sweep_manifest.scenario = options.scenario;
  sweep_manifest.base_seed = options.base_seed;
  sweep_manifest.replications = reps;
  sweep_manifest.param_keys = options.grid.Keys();
  sweep_manifest.shard_points = n_points;
  sweep_manifest.total_points = total;
  for (SweepPointSink* sink : options.point_sinks) {
    sink->BeginSweep(sweep_manifest);
  }

  std::vector<std::unique_ptr<PointState>> points(n_points);
  for (size_t p = 0; p < n_points; ++p) {
    SweepPointInfo info;
    info.point_index = begin + p;
    info.point = options.grid.Point(begin + p);
    info.point_seed = SweepPointSeed(options.base_seed, info.point);
    ScenarioParams params = options.base_params;
    std::vector<std::string> param_values;
    param_values.reserve(info.point.size());
    for (const auto& [key, value] : info.point) {
      params.Set(key, value);
      param_values.push_back(value);
    }
    points[p] = std::make_unique<PointState>(std::move(info), std::move(params),
                                             std::move(param_values), reps);
  }

  // Points complete in worker order, but sinks see them in grid order. A
  // point's last state dies when its sinks return.
  struct DonePoint {
    SweepPointInfo info;
    BinaryGroup group;
    std::vector<MetricAggregate> aggregates;
  };
  ReorderBuffer<DonePoint> done_points(n_points);

  RunTaskPool(options.jobs, static_cast<uint64_t>(n_points) * reps, [&](uint64_t task) {
    const size_t p = static_cast<size_t>(task / reps);
    const uint64_t rep = task % reps;
    PointState& state = *points[p];
    MetricRecorder recorder;
    const ReplicationContext ctx{
        .seed = SubstreamSeed(state.info.point_seed, scenario.name(), rep),
        .replication = rep,
        .recorder = &recorder};
    const ReplicationResult returned = scenario.Run(state.params, ctx);
    if (!state.records.Deliver(rep, recorder.Finish(rep, returned),
                               [&](const ReplicationRecord& record) {
                                 state.encoder.Add(record);
                               })) {
      return;
    }
    // Every replication of this point has landed: no other worker touches
    // its state again.
    DonePoint done;
    done.info = std::move(state.info);
    done.group = state.encoder.Finish();
    points[p].reset();
    done.aggregates = AggregateGroup(done.group);
    done_points.Deliver(p, std::move(done), [&](const DonePoint& head) {
      for (SweepPointSink* sink : options.point_sinks) {
        sink->OnPointDone(head.info, head.aggregates, head.group);
      }
    });
  });
  done_points.CheckComplete();

  for (SweepPointSink* sink : options.point_sinks) {
    sink->EndSweep();
  }
}

}  // namespace wlansim
