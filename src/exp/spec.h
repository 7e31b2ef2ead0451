#pragma once

// Declarative experiment specs.
//
// An ExperimentSpec names one of the paper's evaluations (a figure, an
// ablation, a roadmap scenario) as data: swept parameter axes, a default
// seed list, and a run function that executes ONE grid point inside its
// own Simulation.  The sweep runner expands axes x seeds into a job list
// and shards it across a thread pool; because every run builds its own
// Simulation from its own seed, results are identical at any job count.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "exp/param.h"
#include "exp/paper.h"
#include "stats/sketch.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace mmptcp::exp {

/// Inputs of one grid point.
struct RunContext {
  Scale scale;               ///< effective workload scale
  ParamSet params;           ///< this point's axis values
  std::uint64_t seed = 1;    ///< this point's RNG seed
  std::string out_dir = "."; ///< where run artifacts (CSVs) belong
  /// Flight-recorder config for this run; trace.enabled() is false when
  /// the sweep is untraced.  Specs copy it into their scenario config.
  TraceConfig trace;
  /// Component logger root (disabled unless --log-level was given).
  Logger logger;
  /// Worker threads for intra-run parallel event execution (--sim-threads;
  /// 0 = auto).  Specs copy it into their ScenarioConfig; results are
  /// byte-identical at any value (see sim/engine.h), only wall time
  /// changes.
  unsigned sim_threads = 1;
};

/// Outputs of one grid point: ordered metric name -> value.
struct RunOutcome {
  bool ok = true;
  std::string error;                                       ///< when !ok
  std::vector<std::pair<std::string, double>> metrics;
  /// Host- and execution-dependent metrics (wall time, engine telemetry,
  /// peak RSS).  Kept out of the main JSON — whose bytes must not depend
  /// on the host or thread count — and written to a
  /// BENCH_<name>.timing.json sidecar instead.  run_sweep times every
  /// run and puts events_per_second and wall_seconds first.
  std::vector<std::pair<std::string, double>> timings;
  /// Named quantile sketches over per-flow samples.  Deterministic, so
  /// they ride in the main JSON: the sink merges them per grid point into
  /// the document's "aggregates" section, and sharded sweeps serialise
  /// them so --merge can recombine shards byte-identically.
  std::vector<std::pair<std::string, QuantileSketch>> sketches;
  /// Simulator events the run executed; 0 when the run reports none.
  /// run_sweep divides it by the run's wall time for the
  /// events_per_second timing.
  std::uint64_t events = 0;

  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void set_timing(std::string name, double value) {
    timings.emplace_back(std::move(name), value);
  }
  void set_sketch(std::string name, QuantileSketch sketch) {
    sketches.emplace_back(std::move(name), std::move(sketch));
  }
  double get(const std::string& name) const;

  static RunOutcome failure(std::string message) {
    RunOutcome o;
    o.ok = false;
    o.error = std::move(message);
    return o;
  }
};

/// Gate thresholds for one metric (or a glob family of metrics) used
/// when two sweeps of an experiment are diffed (`mmptcp_exp --compare`).
/// Relative deltas strictly above warn_pct/fail_pct yield WARN/FAIL;
/// deltas whose magnitude is within abs_slack always PASS (shields
/// integer counters like `rtos` that sit at or near zero, where any
/// movement is a huge relative change).
struct MetricTolerance {
  /// Which movement direction is a regression; the other one PASSes.
  enum class Direction { kBoth, kHigherIsWorse, kLowerIsWorse };

  std::string pattern = "*";  ///< glob over metric names (* and ?)
  double warn_pct = 2.0;      ///< |relative delta| % above which -> WARN
  double fail_pct = 10.0;     ///< |relative delta| % above which -> FAIL
  double abs_slack = 1e-9;    ///< |absolute delta| at or below -> PASS
  Direction direction = Direction::kBoth;
};

/// One registered experiment.
struct ExperimentSpec {
  std::string name;         ///< registry key, e.g. "fig1a"
  std::string artefact;     ///< which paper artefact this regenerates
  std::string description;  ///< one-line summary for --list
  std::string notes;        ///< "expected shape" text printed after a run

  /// Swept axes; may depend on the scale (e.g. incast fan-in is bounded
  /// by host count).  Use fixed_axes() when there is no dependence.
  std::function<std::vector<Axis>(const Scale&)> axes;

  /// Library-level default seed list, used only when SweepOptions.seeds
  /// is empty.  The CLI always passes an explicit list derived from
  /// --seed/--seeds, so these are for programmatic run_sweep() callers.
  std::vector<std::uint64_t> seeds{1};

  /// Executes one grid point.  Must be thread-safe with respect to other
  /// grid points: build a fresh Simulation, never touch shared state.
  std::function<RunOutcome(const RunContext&)> run;

  /// Optional scale adjustment applied before expansion (e.g. load_sweep
  /// halves the per-point flow count so the whole sweep stays fast).
  std::function<void(Scale&)> adjust_scale;

  /// Optional relative cost estimate of one grid point (any monotone
  /// proxy for expected runtime; units are irrelevant).  When present the
  /// runner *claims* jobs longest-expected-first so a straggler cannot be
  /// picked up last and extend the sweep's tail — results are still
  /// written to expansion-order slots, so output bytes are unchanged.
  std::function<double(const ParamSet&, const Scale&)> run_cost;

  /// Per-metric regression tolerances consulted by the compare
  /// subsystem; first pattern that matches a metric name wins, and
  /// metrics matching no entry use MetricTolerance{} defaults.  Timing
  /// sidecar aggregates (e.g. "events_per_second_mean") are looked up
  /// through the same list.
  std::vector<MetricTolerance> tolerances;
};

/// Tolerance families concatenated in gate order (first match wins).
std::vector<MetricTolerance> join_tolerances(
    std::initializer_list<std::vector<MetricTolerance>> families);

/// Convenience for specs whose axes do not depend on the scale.
std::function<std::vector<Axis>(const Scale&)> fixed_axes(
    std::vector<Axis> axes);

}  // namespace mmptcp::exp
