#pragma once

// Parallel multi-seed sweep runner.
//
// expand() turns one spec into a deterministic, ordered job list (axes
// cartesian product x seed list); run_sweep() executes it on a fixed-size
// std::thread pool.  Workers claim jobs with an atomic cursor and write
// results into pre-allocated slots, so output order — and therefore the
// JSON the sink emits — is independent of thread count and scheduling.
// A throwing run is isolated: its record carries ok=false and the error
// text, and the sweep continues.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/spec.h"
#include "sim/time.h"

namespace mmptcp::exp {

/// Knobs of one sweep invocation.
struct SweepOptions {
  std::size_t jobs = 1;                 ///< worker threads (>= 1)
  /// Intra-run simulation threads handed to every run (--sim-threads;
  /// 0 = auto, i.e. all hardware threads).  When the effective value is
  /// > 1 the runner caps `jobs` so jobs x sim_threads stays within
  /// hardware concurrency; run outputs do not depend on either knob.
  unsigned sim_threads = 1;
  std::vector<std::uint64_t> seeds;     ///< override; empty = spec default
  std::string out_dir = ".";            ///< directory for run artifacts
  /// Shard selection (--shard i/N): of the full expansion, this invocation
  /// executes only runs whose global index satisfies
  /// `index % shard_count == shard_index`.  The default 0/1 runs
  /// everything.  expand() rejects shard_count > total runs (a shard would
  /// be empty) and shard_index >= shard_count.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Replaces the values of the named axes (from --set name=v1,v2).
  std::vector<Axis> axis_overrides;
  /// Progress callback (completed, total, run id, ok); called under a
  /// lock, possibly from worker threads.  Null disables reporting.
  std::function<void(std::size_t, std::size_t, const std::string&, bool)>
      on_progress;
  /// Flight recorder: channels to trace (0 = off), sampling interval,
  /// and where the per-run JSONL files go ("" = out_dir).
  std::uint32_t trace_channels = 0;
  Time trace_interval = Time::millis(1);
  std::string trace_dir;
  /// Component logger root handed to every run.
  Logger logger;
};

/// Name of the trace file one run writes: TRACE_<spec>_<run-id>.jsonl
/// with the id sanitised to filename-safe characters.
std::string trace_file_name(const std::string& spec_name,
                            const std::string& run_id);

/// One grid point of one experiment, with its outcome once executed.
struct RunRecord {
  std::string id;         ///< "subflows=3/seed=1" (stable, unique)
  ParamSet params;
  std::uint64_t seed = 0;
  /// Position in the FULL (unsharded) expansion.  Contiguous 0..total-1
  /// when shard_count == 1; the merge tool interleaves shard documents
  /// back into this order.
  std::size_t index = 0;
  RunOutcome outcome;
};

/// `scale` after the spec's adjust_scale hook (identity when absent).
Scale effective_scale(const ExperimentSpec& spec, Scale scale);

/// Number of runs the sweep would execute, without building the job
/// list (|cartesian(axes)| x |seeds|).
std::size_t sweep_size(const ExperimentSpec& spec, Scale scale,
                       const SweepOptions& options);

/// The sweep's job list in deterministic order (axis-major, seeds
/// innermost), outcomes not yet populated.  Applies the spec's
/// adjust_scale and the options' seed/axis overrides.
std::vector<RunRecord> expand(const ExperimentSpec& spec, Scale scale,
                              const SweepOptions& options);

/// Expands and executes the sweep; returns records in expansion order.
/// Every successful run's timings start with events_per_second (when the
/// run reported RunOutcome::events) and wall_seconds, timed around the
/// spec's run function.
std::vector<RunRecord> run_sweep(const ExperimentSpec& spec, Scale scale,
                                 const SweepOptions& options);

/// Gates for that leading pair (events_per_second*, wall_seconds*):
/// host-dependent, so CI gates them warn-only.  Specs that gate their
/// timings append these to their own tolerances.
std::vector<MetricTolerance> timing_tolerances();

}  // namespace mmptcp::exp
