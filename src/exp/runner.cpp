#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "util/check.h"

namespace mmptcp::exp {

namespace {

std::vector<Axis> effective_axes(const ExperimentSpec& spec,
                                 const Scale& scale,
                                 const SweepOptions& options) {
  std::vector<Axis> axes = spec.axes(scale);
  for (const Axis& override_axis : options.axis_overrides) {
    bool found = false;
    for (Axis& axis : axes) {
      if (axis.name == override_axis.name) {
        axis.values = override_axis.values;
        found = true;
        break;
      }
    }
    if (!found) {
      // A typo in --set must not silently run the wrong sweep: name the
      // valid parameters so the caller can fix the invocation.
      std::string valid;
      for (const Axis& axis : axes) {
        if (!valid.empty()) valid += ", ";
        valid += axis.name;
      }
      throw ConfigError("experiment " + spec.name + " has no axis named '" +
                        override_axis.name + "' (valid --set parameters: " +
                        (valid.empty() ? "none — this experiment sweeps nothing"
                                       : valid) +
                        ")");
    }
  }
  return axes;
}

// Expansion with `scale` already adjusted by the spec.
std::vector<RunRecord> expand_adjusted(const ExperimentSpec& spec,
                                       const Scale& scale,
                                       const SweepOptions& options) {
  const std::vector<std::uint64_t>& seeds =
      options.seeds.empty() ? spec.seeds : options.seeds;
  require(!seeds.empty(), "empty seed list");

  require(options.shard_count >= 1, "--shard needs a shard count >= 1");
  if (options.shard_index >= options.shard_count) {
    throw ConfigError("shard index " + std::to_string(options.shard_index) +
                      " is out of range for " +
                      std::to_string(options.shard_count) +
                      " shards (valid: 0.." +
                      std::to_string(options.shard_count - 1) + ")");
  }

  std::vector<RunRecord> records;
  std::size_t index = 0;
  for (const ParamSet& point : cartesian(effective_axes(spec, scale, options))) {
    for (const std::uint64_t seed : seeds) {
      if (index % options.shard_count == options.shard_index) {
        RunRecord rec;
        rec.params = point;
        rec.seed = seed;
        rec.index = index;
        rec.id = point.entries().empty()
                     ? "seed=" + std::to_string(seed)
                     : point.id() + "/seed=" + std::to_string(seed);
        records.push_back(std::move(rec));
      }
      ++index;
    }
  }
  if (options.shard_count > index) {
    // More shards than runs would leave some shard with an empty document
    // the merge step cannot distinguish from a broken run.  Refuse.
    throw ConfigError("cannot split " + std::to_string(index) + " run" +
                      (index == 1 ? "" : "s") + " of experiment " + spec.name +
                      " into " + std::to_string(options.shard_count) +
                      " shards; use at most " + std::to_string(index) +
                      " shards or widen the sweep (--seeds/--set)");
  }
  return records;
}

// Job-claim order: identity (= expansion order) unless the spec estimates
// per-point cost, in which case expected-longest-first.  stable_sort keeps
// equal-cost runs in expansion order, so specs without cost variation and
// single-job sweeps behave exactly as before.
std::vector<std::size_t> claim_order(const ExperimentSpec& spec,
                                     const Scale& scale,
                                     const std::vector<RunRecord>& records) {
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);
  if (!spec.run_cost) return order;
  std::vector<double> cost(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    cost[i] = spec.run_cost(records[i].params, scale);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return order;
}

}  // namespace

std::string trace_file_name(const std::string& spec_name,
                            const std::string& run_id) {
  std::string id = run_id;
  for (char& c : id) {
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!safe) c = '_';
  }
  return "TRACE_" + spec_name + "_" + id + ".jsonl";
}

Scale effective_scale(const ExperimentSpec& spec, Scale scale) {
  if (spec.adjust_scale) spec.adjust_scale(scale);
  return scale;
}

std::size_t sweep_size(const ExperimentSpec& spec, Scale scale,
                       const SweepOptions& options) {
  if (spec.adjust_scale) spec.adjust_scale(scale);
  std::size_t points = 1;
  for (const Axis& axis : effective_axes(spec, scale, options)) {
    points *= axis.values.size();
  }
  const std::size_t seed_count =
      options.seeds.empty() ? spec.seeds.size() : options.seeds.size();
  return points * seed_count;
}

std::vector<RunRecord> expand(const ExperimentSpec& spec, Scale scale,
                              const SweepOptions& options) {
  if (spec.adjust_scale) spec.adjust_scale(scale);
  return expand_adjusted(spec, scale, options);
}

std::vector<RunRecord> run_sweep(const ExperimentSpec& spec, Scale scale,
                                 const SweepOptions& options) {
  if (spec.adjust_scale) spec.adjust_scale(scale);
  std::vector<RunRecord> records = expand_adjusted(spec, scale, options);
  const std::vector<std::size_t> order = claim_order(spec, scale, records);

  const std::size_t total = records.size();
  std::size_t jobs = std::max<std::size_t>(1, std::min(options.jobs, total));
  const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
  // --sim-threads 0 = auto resolves to all hardware threads per run.
  const unsigned eff_sim_threads =
      options.sim_threads == 0 ? static_cast<unsigned>(hc)
                               : options.sim_threads;
  if (eff_sim_threads > 1) {
    // Keep jobs x sim_threads within the machine: each run's engine
    // spins up sim_threads workers, so concurrent runs multiply.
    jobs = std::max<std::size_t>(1, std::min(jobs, hc / eff_sim_threads));
  }

  std::atomic<std::size_t> cursor{0};
  std::size_t completed = 0;  // guarded by progress_mutex
  std::mutex progress_mutex;

  const auto worker = [&] {
    for (;;) {
      const std::size_t pos = cursor.fetch_add(1);
      if (pos >= total) return;
      RunRecord& rec = records[order[pos]];
      RunContext ctx;
      ctx.scale = scale;
      ctx.scale.seed = rec.seed;
      ctx.params = rec.params;
      ctx.seed = rec.seed;
      ctx.out_dir = options.out_dir;
      ctx.logger = options.logger;
      ctx.sim_threads = options.sim_threads;
      if (options.trace_channels != 0) {
        ctx.trace.channels = options.trace_channels;
        ctx.trace.interval = options.trace_interval;
        ctx.trace.path =
            (options.trace_dir.empty() ? options.out_dir : options.trace_dir) +
            "/" + trace_file_name(spec.name, rec.id);
        ctx.trace.experiment = spec.name;
        ctx.trace.run_id = rec.id;
        ctx.trace.seed = rec.seed;
      }
      options.logger.child("runner").log(LogLevel::kDebug, [&] {
        return spec.name + ": starting " + rec.id;
      });
      try {
        rec.outcome = spec.run(ctx);
      } catch (const std::exception& e) {
        rec.outcome = RunOutcome::failure(e.what());
      } catch (...) {
        rec.outcome = RunOutcome::failure("unknown error");
      }
      // Counted under the lock so the callback sees 1, 2, ..., total in
      // order even when two runs finish at once.
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++completed;
      if (options.on_progress) {
        options.on_progress(completed, total, rec.id, rec.outcome.ok);
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return records;
}

}  // namespace mmptcp::exp
