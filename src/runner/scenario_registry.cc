#include "runner/scenario_registry.h"

#include <stdexcept>
#include <utility>

#include "runner/metric_recorder.h"

namespace wlansim {

void ScenarioRegistry::Register(std::string name, std::string description,
                                std::vector<ParamSpec> param_specs, Scenario::RunFn fn) {
  if (scenarios_.count(name) != 0) {
    throw std::invalid_argument("scenario '" + name + "' registered twice");
  }
  scenarios_.try_emplace(name, name, std::move(description), std::move(param_specs),
                         std::move(fn));
}

const Scenario* ScenarioRegistry::Find(std::string_view name) const {
  auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    names.push_back(name);
  }
  return names;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    RegisterBuiltinScenarios(*r);
    return r;
  }();
  return *registry;
}

ReplicationResult RunScenarioOnce(std::string_view name, const ScenarioParams& params,
                                  uint64_t seed) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(name);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + std::string(name) + "'");
  }
  scenario->ValidateParams(params);
  MetricRecorder recorder;
  const ReplicationContext ctx{.seed = seed, .replication = 0, .recorder = &recorder};
  return {recorder.Finish(0, scenario->Run(params, ctx)).metrics};
}

}  // namespace wlansim
