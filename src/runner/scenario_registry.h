// Name → Scenario registry. The global registry is populated with the
// built-in scenario table on first use (an explicit call into scenarios.cc,
// so static-library linking cannot drop the registrations), and examples or
// tests can add their own entries at runtime.

#ifndef WLANSIM_RUNNER_SCENARIO_REGISTRY_H_
#define WLANSIM_RUNNER_SCENARIO_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.h"

namespace wlansim {

class ScenarioRegistry {
 public:
  // Registers a scenario; throws std::invalid_argument on a duplicate name
  // and std::logic_error on a bad parameter table (see Scenario).
  void Register(std::string name, std::string description, std::vector<ParamSpec> param_specs,
                Scenario::RunFn fn);

  // nullptr when unknown.
  const Scenario* Find(std::string_view name) const;

  // Sorted scenario names.
  std::vector<std::string> Names() const;

  // The process-wide registry, pre-populated with the built-in scenarios.
  static ScenarioRegistry& Global();

 private:
  std::map<std::string, Scenario, std::less<>> scenarios_;
};

// Implemented in scenarios.cc: registers every built-in scenario.
void RegisterBuiltinScenarios(ScenarioRegistry& registry);

// One replication of the globally registered scenario `name` with `params`
// and `seed`, outside any campaign: how a bench or a test runs a scenario.
// Returns the metric map a campaign replication with that seed records,
// recorder-derived columns included. Throws std::invalid_argument on an
// unknown scenario, an undeclared key or a malformed value, before running.
ReplicationResult RunScenarioOnce(std::string_view name, const ScenarioParams& params,
                                  uint64_t seed);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_SCENARIO_REGISTRY_H_
