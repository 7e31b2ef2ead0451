#pragma once

// The paper's workload at a configurable scale, shared by the experiment
// registry and the mmptcp_exp command line.  (This layer absorbed
// the old bench/common.{h,cpp} so benches no longer re-implement sweep
// and summary plumbing.)
//
// Every experiment runs at a laptop-friendly scale by default and
// switches to paper scale (k=8, 4:1, 512 hosts) with --full or
// MMPTCP_BENCH_SCALE=full.  Individual knobs (--k, --shorts, --rate,
// ...) override either preset.

#include <string>

#include "util/flags.h"
#include "util/table.h"
#include "workload/scenario.h"

namespace mmptcp::exp {

/// Effective workload scale for one experiment invocation.
struct Scale {
  bool full = false;
  std::uint32_t k = 4;
  std::uint32_t oversubscription = 4;
  std::uint32_t shorts = 1000;
  double rate_per_host = 8.0;
  std::uint64_t short_bytes = 70 * 1024;
  std::uint32_t subflows = 8;
  std::uint64_t seed = 1;
  Time max_sim_time = Time::seconds(120);
};

/// Reads the scale from flags + environment; registers the common flags.
Scale parse_scale(Flags& flags);

/// The paper's Figure-1 scenario at the given scale.
ScenarioConfig paper_scenario(const Scale& scale, Protocol proto,
                              std::uint32_t subflows);

/// Writes the per-flow (flow_id, fct_ms, rtos, syn_timeouts) series of
/// completed short flows to `csv_path`; throws ConfigError when the
/// file cannot be written.  Used by the fig1b/c specs so scatter data
/// survives engine runs.
void write_flow_csv(const Scenario& sc, const std::string& csv_path);

}  // namespace mmptcp::exp
