#include "exp/paper.h"

#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace mmptcp::exp {

Scale parse_scale(Flags& flags) {
  Scale s;
  const char* env = std::getenv("MMPTCP_BENCH_SCALE");
  const bool env_full = env != nullptr && std::string(env) == "full";
  s.full = flags.get_bool("full", env_full,
                          "paper scale: k=8 4:1 FatTree (512 hosts)");
  if (s.full) {
    s.k = 8;
    s.oversubscription = 4;
    s.shorts = 20000;
    s.rate_per_host = 10.0;
    s.max_sim_time = Time::seconds(600);
  }
  s.k = static_cast<std::uint32_t>(flags.get_int("k", s.k, "FatTree k"));
  s.oversubscription = static_cast<std::uint32_t>(flags.get_int(
      "oversub", s.oversubscription, "edge oversubscription ratio"));
  s.shorts = static_cast<std::uint32_t>(
      flags.get_int("shorts", s.shorts, "number of short flows"));
  s.rate_per_host = flags.get_double("rate", s.rate_per_host,
                                     "short-flow arrivals/s per host");
  s.short_bytes = static_cast<std::uint64_t>(flags.get_int(
      "short-bytes", static_cast<std::int64_t>(s.short_bytes),
      "short flow size in bytes"));
  s.subflows = static_cast<std::uint32_t>(
      flags.get_int("subflows", s.subflows, "MPTCP/MMPTCP subflow count"));
  s.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(s.seed), "RNG seed"));
  s.max_sim_time = Time::seconds(
      flags.get_int("max-sim-secs", s.max_sim_time.ns() / 1'000'000'000,
                    "simulated-time budget"));
  return s;
}

ScenarioConfig paper_scenario(const Scale& scale, Protocol proto,
                              std::uint32_t subflows) {
  ScenarioConfig cfg;
  cfg.fat_tree.k = scale.k;
  cfg.fat_tree.oversubscription = scale.oversubscription;
  cfg.transport.protocol = proto;
  cfg.transport.subflows = subflows;
  cfg.short_flow_count = scale.shorts;
  cfg.short_rate_per_host = scale.rate_per_host;
  cfg.short_flow_bytes = scale.short_bytes;
  cfg.seed = scale.seed;
  cfg.max_sim_time = scale.max_sim_time;
  return cfg;
}

void write_flow_csv(const Scenario& sc, const std::string& csv_path) {
  const auto shorts = sc.metrics().flows(
      [](const FlowRecord& r) { return !r.long_flow && r.is_complete(); });
  std::FILE* f = std::fopen(csv_path.c_str(), "w");
  require(f != nullptr, "cannot open " + csv_path + " for writing");
  std::fputs("flow_id,fct_ms,rtos,syn_timeouts\n", f);
  for (const auto* rec : shorts) {
    std::fprintf(f, "%u,%.3f,%u,%u\n", rec->flow_id,
                 rec->fct().to_millis(), rec->rto_count,
                 rec->syn_timeouts);
  }
  const bool write_failed = std::ferror(f) != 0;
  const bool close_failed = std::fclose(f) != 0;
  require(!write_failed && !close_failed, "short write to " + csv_path);
}

}  // namespace mmptcp::exp
