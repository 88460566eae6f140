#include "runner/scenario.h"

#include <algorithm>
#include <stdexcept>

namespace wlansim {
namespace {

// `text` parsed as `spec`'s type: the ParamValue alternative at index
// `spec.type`. Throws std::invalid_argument naming the parameter when it
// does not parse or is not one of the spec's allowed values.
ParamValue Parse(const ParamSpec& spec, const std::string& text) {
  const ParamType type = spec.type;
  std::string expected = "a number";
  try {
    size_t consumed = 0;
    switch (type) {
      case ParamType::kBool:
        if (text == "1" || text == "true" || text == "yes" || text == "on") {
          return true;
        }
        if (text == "0" || text == "false" || text == "no" || text == "off") {
          return false;
        }
        expected = "a boolean (true/false)";
        break;
      case ParamType::kInt:
      case ParamType::kUint: {
        expected = "an integer";
        const int64_t v = std::stoll(text, &consumed);
        if (consumed != text.size()) {
          break;
        }
        if (type == ParamType::kInt) {
          return v;
        }
        // Counts, sizes, thresholds: a typo'd "-1" must not wrap to 2^64-1.
        if (v >= 0) {
          return static_cast<uint64_t>(v);
        }
        expected = "a non-negative integer";
        break;
      }
      case ParamType::kDouble: {
        const double v = std::stod(text, &consumed);
        if (consumed == text.size()) {
          return v;
        }
        break;
      }
      case ParamType::kString:
        if (spec.allowed.empty() ||
            std::find(spec.allowed.begin(), spec.allowed.end(), text) != spec.allowed.end()) {
          return text;
        }
        expected = "one of";
        for (const char* sep = " '"; const std::string& value : spec.allowed) {
          expected += sep + value + "'";
          sep = ", '";
        }
        break;
    }
  } catch (const std::logic_error&) {  // std::stoll/std::stod: no number, or out of range
  }
  throw std::invalid_argument("parameter '" + spec.name + "': cannot parse '" + text + "' as " +
                              expected);
}

}  // namespace

ParamValue ParamView::Value(std::string_view key, ParamType type) const {
  const ParamSpec* spec = scenario_.FindSpec(key);
  if (spec == nullptr || spec->type != type) {
    throw std::logic_error("scenario '" + std::string(scenario_.name()) + "' reads " +
                           std::string(ParamTypeName(type)) + " parameter '" + std::string(key) +
                           "', declared " +
                           (spec == nullptr ? "nowhere" : std::string(ParamTypeName(spec->type))));
  }
  auto it = values_.entries().find(key);
  return Parse(*spec, it == values_.entries().end() ? spec->default_value : it->second);
}

Scenario::Scenario(std::string name, std::string description,
                   std::vector<ParamSpec> param_specs, RunFn fn)
    : name_(std::move(name)),
      description_(std::move(description)),
      param_specs_(std::move(param_specs)),
      fn_(std::move(fn)) {
  for (const ParamSpec& spec : param_specs_) {
    if (FindSpec(spec.name) != &spec) {
      throw std::logic_error("scenario '" + name_ + "' declares parameter '" + spec.name +
                             "' twice");
    }
    if (!spec.allowed.empty() && spec.type != ParamType::kString) {
      throw std::logic_error("scenario '" + name_ + "' lists allowed values for non-string "
                             "parameter '" + spec.name + "'");
    }
    try {
      Parse(spec, spec.default_value);
    } catch (const std::invalid_argument& e) {
      throw std::logic_error("scenario '" + name_ + "' default: " + e.what());
    }
  }
}

const ParamSpec* Scenario::FindSpec(std::string_view key) const {
  for (const ParamSpec& spec : param_specs_) {
    if (spec.name == key) {
      return &spec;
    }
  }
  return nullptr;
}

void Scenario::ValidateParam(const std::string& key, const std::string& value) const {
  const ParamSpec* spec = FindSpec(key);
  if (spec == nullptr) {
    std::string msg = "scenario '" + name_ + "' has no parameter '" + key +
                      "'; known parameters:";
    for (const ParamSpec& s : param_specs_) {
      msg += " " + s.name;
    }
    throw std::invalid_argument(msg);
  }
  Parse(*spec, value);
}

void Scenario::ValidateParams(const ScenarioParams& params) const {
  for (const auto& [key, value] : params.entries()) {
    ValidateParam(key, value);
  }
}

}  // namespace wlansim
