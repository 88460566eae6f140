#include "runner/scenario_registry.h"

#include <stdexcept>
#include <utility>

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

}  // namespace wlansim
