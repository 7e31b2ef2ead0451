#include "exp/spec.h"

#include "util/check.h"

namespace mmptcp::exp {

double RunOutcome::get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  throw ConfigError("unknown metric: " + name);
}

std::vector<MetricTolerance> join_tolerances(
    std::initializer_list<std::vector<MetricTolerance>> families) {
  std::vector<MetricTolerance> out;
  for (const std::vector<MetricTolerance>& family : families) {
    out.insert(out.end(), family.begin(), family.end());
  }
  return out;
}

std::function<std::vector<Axis>(const Scale&)> fixed_axes(
    std::vector<Axis> axes) {
  return [axes = std::move(axes)](const Scale&) { return axes; };
}

}  // namespace mmptcp::exp
