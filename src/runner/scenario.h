// The Scenario abstraction: a named, parameterised experiment that runs one
// independent replication and returns scalar metrics. Scenarios are pure
// functions of (params, seed) — they build their own Network/Simulator, so
// many replications can run concurrently on different threads.

#ifndef WLANSIM_RUNNER_SCENARIO_H_
#define WLANSIM_RUNNER_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace wlansim {

// The type a parameter's values (and its default) must parse as.
enum class ParamType { kBool, kInt, kUint, kDouble, kString };

// A parsed parameter value: alternative i holds a value of ParamType i.
using ParamValue = std::variant<bool, int64_t, uint64_t, double, std::string>;

// One declared parameter of a scenario: the only place its type and default
// are written. `default_value` is the text a "--param" value would be.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kString;
  std::string default_value;
  std::string help;
  // kString only: the values the parameter accepts (empty = any string).
  std::vector<std::string> allowed = {};
};

// "bool", "int", "uint", "double" or "string": `--describe`'s type column.
inline std::string_view ParamTypeName(ParamType type) {
  constexpr std::string_view kNames[] = {"bool", "int", "uint", "double", "string"};
  return kNames[static_cast<size_t>(type)];
}

// The "--param key=value" strings supplied for one run, unparsed: checked
// by Scenario::ValidateParams, read through a ParamView.
class ScenarioParams {
 public:
  ScenarioParams() = default;
  ScenarioParams(std::initializer_list<std::pair<const std::string, std::string>> entries)
      : entries_(entries) {}

  void Set(std::string key, std::string value) { entries_[std::move(key)] = std::move(value); }
  bool Has(const std::string& key) const { return entries_.count(key) != 0; }

  const std::map<std::string, std::string, std::less<>>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

// Scalar metrics from one replication, keyed by metric name. std::map keeps
// iteration (and therefore aggregation and CSV/JSON column order)
// deterministic.
struct ReplicationResult {
  std::map<std::string, double> metrics;
};

class MetricRecorder;

// Per-replication context handed to Scenario::Run. The seed is derived via
// Rng::Substream(base_seed, scenario_name, replication), so it does not
// depend on which thread executes the replication.
struct ReplicationContext {
  uint64_t seed = 1;
  uint64_t replication = 0;
  // Richer-than-scalar metric channel (gauge samples, histograms), owned by
  // the campaign runner or RunScenarioOnce. Null when the caller collects
  // only the Run() return value, so scenarios must guard uses:
  // `if (ctx.recorder != nullptr) ...`.
  MetricRecorder* recorder = nullptr;
};

class Scenario;

// Typed read access to one replication's parameters: the supplied value, or
// the spec's default when there is none. A malformed supplied value throws
// std::invalid_argument naming the key (ValidateParams refuses it first on
// every CLI path). Reading an undeclared key, or a key through the getter of
// another type, is a bug in the scenario and throws std::logic_error.
class ParamView {
 public:
  ParamView(const Scenario& scenario, const ScenarioParams& values)
      : scenario_(scenario), values_(values) {}
  // The view keeps a reference: it must not outlive the values it reads.
  ParamView(const Scenario&, ScenarioParams&&) = delete;

  bool GetBool(std::string_view key) const { return std::get<bool>(Value(key, ParamType::kBool)); }
  int64_t GetInt(std::string_view key) const {
    return std::get<int64_t>(Value(key, ParamType::kInt));
  }
  // Rejects negative values: counts, sizes, thresholds.
  uint64_t GetUint(std::string_view key) const {
    return std::get<uint64_t>(Value(key, ParamType::kUint));
  }
  double GetDouble(std::string_view key) const {
    return std::get<double>(Value(key, ParamType::kDouble));
  }
  std::string GetString(std::string_view key) const {
    return std::get<std::string>(Value(key, ParamType::kString));
  }

 private:
  ParamValue Value(std::string_view key, ParamType type) const;

  const Scenario& scenario_;
  const ScenarioParams& values_;
};

// A registered scenario: name, description, parameter table and the function
// that runs one replication.
class Scenario {
 public:
  using RunFn = std::function<ReplicationResult(const ParamView&, const ReplicationContext&)>;

  // Throws std::logic_error on a duplicate parameter name, a default that
  // does not parse as its type, or an `allowed` list on a non-string spec.
  Scenario(std::string name, std::string description, std::vector<ParamSpec> param_specs,
           RunFn fn);

  std::string_view name() const { return name_; }
  std::string_view description() const { return description_; }
  const std::vector<ParamSpec>& param_specs() const { return param_specs_; }
  // nullptr when no parameter `key` is declared.
  const ParamSpec* FindSpec(std::string_view key) const;

  // Runs one replication; unset parameters read as their spec defaults. Must
  // not touch global mutable state: the campaign runner calls this from
  // multiple threads at once.
  ReplicationResult Run(const ScenarioParams& params, const ReplicationContext& ctx) const {
    return fn_(ParamView(*this, params), ctx);
  }

  // Throws std::invalid_argument when `key` is not declared (a typo must not
  // silently run the default configuration N times), `value` does not parse
  // as its type, or it is not one of the spec's `allowed` values.
  void ValidateParam(const std::string& key, const std::string& value) const;
  // ValidateParam over every supplied parameter.
  void ValidateParams(const ScenarioParams& params) const;

 private:
  std::string name_;
  std::string description_;
  std::vector<ParamSpec> param_specs_;
  RunFn fn_;
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_SCENARIO_H_
