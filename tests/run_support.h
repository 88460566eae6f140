// Helpers shared by the engine tests: run a campaign or sweep into its
// --binary-out bytes, export such bytes to CSV, decode one scalar column of
// a group by name, and run one replication outside the engine as an
// independent reference.

#ifndef WLANSIM_TESTS_RUN_SUPPORT_H_
#define WLANSIM_TESTS_RUN_SUPPORT_H_

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/metric_recorder.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"

namespace wlansim {

// Runs `options` with a binary writer attached; returns the file bytes.
inline std::string RunBinary(SweepOptions options, SweepResult* result_out = nullptr) {
  std::ostringstream bin;
  BinaryResultsWriter writer(bin);
  options.point_sinks.push_back(&writer);
  SweepResult result = RunSweepCampaign(options);
  if (result_out != nullptr) {
    *result_out = std::move(result);
  }
  return bin.str();
}

// `wlansim_results export` of the WLSR file `bytes`.
inline std::string ExportCsv(const std::string& bytes) {
  std::ostringstream csv;
  ExportBinaryCsv(ParseBinaryResults(bytes), csv);
  return csv.str();
}

// Scalar column `name` of `group`, in replication order.
inline std::vector<double> ScalarColumn(const BinaryGroup& group, const std::string& name) {
  const std::vector<std::string>& names = group.header.scalar_names;
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::runtime_error("no scalar column '" + name + "'");
  }
  std::vector<double> column;
  ReadScalarColumn(group, static_cast<size_t>(it - names.begin()), &column);
  return column;
}

// Replication `rep` of the campaign `options` describes, run directly
// through Scenario::Run and MetricRecorder::Finish with the campaign seed
// contract SubstreamSeed(base_seed, scenario, rep): a reference that shares
// nothing with the engine's record path.
inline ReplicationRecord RunReplication(const SweepOptions& options, uint64_t rep) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(options.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + options.scenario + "'");
  }
  MetricRecorder recorder;
  const ReplicationContext ctx{.seed = SubstreamSeed(options.base_seed, scenario->name(), rep),
                               .replication = rep,
                               .recorder = &recorder};
  return recorder.Finish(rep, scenario->Run(options.base_params, ctx));
}

}  // namespace wlansim

#endif  // WLANSIM_TESTS_RUN_SUPPORT_H_
