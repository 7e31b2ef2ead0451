// Burst tolerance (paper objective 3): a synchronized 32-to-1 incast of
// 70 KB responses — the classic partition/aggregate pattern that drives
// short TCP flows into retransmission timeouts.  Packet scatter absorbs
// the burst by spreading it over every path into the receiver's rack.

#include <cstdio>

#include "util/table.h"
#include "workload/scenario.h"

using namespace mmptcp;

int main() {
  Table table({"protocol", "makespan (ms)", "mean fct (ms)", "p99 fct (ms)",
               "RTOs", "SYN timeouts"});
  for (Protocol proto : {Protocol::kTcp, Protocol::kMptcp,
                         Protocol::kPacketScatter, Protocol::kMmptcp}) {
    ScenarioConfig cfg;
    cfg.fat_tree.k = 4;
    cfg.fat_tree.oversubscription = 4;  // 64 hosts
    cfg.transport.protocol = proto;
    cfg.transport.subflows = 4;
    cfg.incast_senders = 32;
    cfg.short_flow_bytes = 70 * 1024;
    cfg.max_sim_time = Time::seconds(60);
    Scenario sc(cfg);
    sc.run();
    const Summary fct = sc.short_fct_ms();
    const std::uint64_t syn = sc.short_syn_timeouts();
    table.add_row({to_string(proto), Table::num(sc.makespan().to_millis(), 1),
                   Table::num(fct.mean(), 1), Table::num(fct.percentile(99), 1),
                   Table::num(sc.short_flow_rtos() - syn), Table::num(syn)});
    std::printf("%s done\n", to_string(proto).c_str());
  }
  std::printf("\n32 senders x 70KB -> 1 receiver, k=4 FatTree @100Mb/s:\n\n");
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Lower-bound makespan (pure serialisation on the receiver "
              "link): %.1f ms\n", 32.0 * 70 * 1024 * 8 / 100e6 * 1e3);
  return 0;
}
