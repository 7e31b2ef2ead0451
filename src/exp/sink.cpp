#include "exp/sink.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "exp/json.h"
#include "util/check.h"
#include "util/summary.h"

namespace mmptcp::exp {

namespace {

/// Metric names in first-seen order across all successful runs (failed
/// runs have none; metric sets are normally identical across runs).
std::vector<std::string> metric_names(const std::vector<RunRecord>& records) {
  std::vector<std::string> names;
  for (const RunRecord& rec : records) {
    if (!rec.outcome.ok) continue;
    for (const auto& [name, value] : rec.outcome.metrics) {
      bool known = false;
      for (const std::string& n : names) {
        if (n == name) {
          known = true;
          break;
        }
      }
      if (!known) names.push_back(name);
    }
  }
  return names;
}

std::vector<std::string> axis_names(const std::vector<RunRecord>& records) {
  std::vector<std::string> names;
  if (!records.empty()) {
    for (const auto& [n, v] : records.front().params.entries()) {
      names.push_back(n);
    }
  }
  return names;
}

/// Header shared by whole-sweep and shard documents; byte-equality of
/// this prefix is what lets --merge lift the header straight out of a
/// shard file.
void emit_header(JsonWriter& w, const char* kind, const ExperimentSpec& spec,
                 const Scale& scale) {
  w.key("schema_version").value(kResultSchemaVersion);
  w.key("kind").value(kind);
  w.key("experiment").value(spec.name);
  w.key("artefact").value(spec.artefact);
  w.key("description").value(spec.description);

  w.key("scale").begin_object();
  w.key("k").value(std::uint64_t(scale.k));
  w.key("oversubscription").value(std::uint64_t(scale.oversubscription));
  w.key("shorts").value(std::uint64_t(scale.shorts));
  w.key("rate_per_host").value(scale.rate_per_host);
  w.key("short_bytes").value(scale.short_bytes);
  w.key("subflows").value(std::uint64_t(scale.subflows));
  w.key("max_sim_secs").value(
      std::uint64_t(scale.max_sim_time.ns() / 1'000'000'000));
  w.end_object();
}

/// One run object inside "runs".  Shard documents additionally carry the
/// run's global expansion index and its serialised sketches (the whole
/// document folds sketches into "aggregates" instead).
void emit_run(JsonWriter& w, const RunRecord& rec, bool shard) {
  w.begin_object();
  w.key("id").value(rec.id);
  if (shard) w.key("index").value(std::uint64_t(rec.index));
  w.key("params").begin_object();
  for (const auto& [name, value] : rec.params.entries()) {
    w.key(name).value(value);
  }
  w.end_object();
  w.key("seed").value(rec.seed);
  w.key("ok").value(rec.outcome.ok);
  if (rec.outcome.ok) {
    w.key("metrics").begin_object();
    for (const auto& [name, value] : rec.outcome.metrics) {
      w.key(name).value(value);
    }
    w.end_object();
  } else {
    w.key("error").value(rec.outcome.error);
  }
  if (shard && rec.outcome.ok && !rec.outcome.sketches.empty()) {
    w.key("sketches").begin_object();
    for (const auto& [name, sketch] : rec.outcome.sketches) {
      w.key(name).value(sketch.serialize());
    }
    w.end_object();
  }
  w.end_object();
}

std::vector<SketchRun> sketch_runs(const std::vector<RunRecord>& records) {
  std::vector<SketchRun> runs;
  for (const RunRecord& rec : records) {
    if (!rec.outcome.ok) continue;
    runs.push_back(SketchRun{rec.params.id(), rec.outcome.sketches});
  }
  return runs;
}

}  // namespace

std::string to_json(const ExperimentSpec& spec, const Scale& scale,
                    const std::vector<RunRecord>& records) {
  JsonWriter w;
  w.begin_object();
  emit_header(w, "sweep", spec, scale);
  w.key("runs").begin_array();
  for (const RunRecord& rec : records) emit_run(w, rec, /*shard=*/false);
  w.end_array();
  append_aggregates_json(w, sketch_runs(records));
  w.end_object();
  return w.str() + "\n";
}

std::string to_shard_json(const ExperimentSpec& spec, const Scale& scale,
                          const std::vector<RunRecord>& records,
                          std::size_t shard_index, std::size_t shard_count,
                          std::size_t runs_total) {
  JsonWriter w;
  w.begin_object();
  emit_header(w, "sweep_shard", spec, scale);
  w.key("shard").begin_object();
  w.key("index").value(std::uint64_t(shard_index));
  w.key("count").value(std::uint64_t(shard_count));
  w.key("runs_total").value(std::uint64_t(runs_total));
  w.end_object();
  w.key("runs").begin_array();
  for (const RunRecord& rec : records) emit_run(w, rec, /*shard=*/true);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void append_aggregates_json(JsonWriter& w, const std::vector<SketchRun>& runs) {
  bool any = false;
  for (const SketchRun& run : runs) {
    if (!run.sketches.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;

  // Grid points in first-seen order (== axis-major expansion order).
  std::vector<std::string> order;
  std::map<std::string, std::vector<const SketchRun*>> groups;
  for (const SketchRun& run : runs) {
    if (groups.find(run.group) == groups.end()) order.push_back(run.group);
    groups[run.group].push_back(&run);
  }

  w.key("aggregates").begin_array();
  for (const std::string& key : order) {
    const auto& group = groups[key];
    // Sketch names in first-seen order within the group.
    std::vector<std::string> names;
    for (const SketchRun* run : group) {
      for (const auto& [name, sketch] : run->sketches) {
        (void)sketch;
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          names.push_back(name);
        }
      }
    }
    w.begin_object();
    w.key("id").value(key);
    w.key("runs").value(std::uint64_t(group.size()));
    w.key("sketches").begin_object();
    for (const std::string& name : names) {
      QuantileSketch merged;
      for (const SketchRun* run : group) {
        for (const auto& [n, sketch] : run->sketches) {
          if (n == name) merged.merge(sketch);
        }
      }
      w.key(name).begin_object();
      w.key("count").value(merged.count());
      w.key("mean").value(merged.mean());
      w.key("p50").value(merged.quantile(0.50));
      w.key("p99").value(merged.quantile(0.99));
      w.key("p999").value(merged.quantile(0.999));
      w.key("max").value(merged.max());
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

namespace {

std::string timing_json_impl(const ExperimentSpec& spec,
                             const std::vector<RunRecord>& records,
                             bool shard, std::size_t shard_index,
                             std::size_t shard_count,
                             std::size_t runs_total) {
  bool any = false;
  for (const RunRecord& rec : records) {
    if (!rec.outcome.timings.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return "";

  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kResultSchemaVersion);
  w.key("kind").value(shard ? "timing_shard" : "timing");
  w.key("experiment").value(spec.name);
  if (shard) {
    w.key("shard").begin_object();
    w.key("index").value(std::uint64_t(shard_index));
    w.key("count").value(std::uint64_t(shard_count));
    w.key("runs_total").value(std::uint64_t(runs_total));
    w.end_object();
  }
  w.key("runs").begin_array();
  for (const RunRecord& rec : records) {
    if (rec.outcome.timings.empty()) continue;
    w.begin_object();
    w.key("id").value(rec.id);
    if (shard) w.key("index").value(std::uint64_t(rec.index));
    for (const auto& [name, value] : rec.outcome.timings) {
      w.key(name).value(value);
    }
    w.end_object();
  }
  w.end_array();
  // Per-metric mean across runs, first-seen name order.
  std::vector<std::string> names;
  for (const RunRecord& rec : records) {
    for (const auto& [name, value] : rec.outcome.timings) {
      (void)value;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  w.key("aggregate").begin_object();
  for (const std::string& name : names) {
    Summary s;
    for (const RunRecord& rec : records) {
      for (const auto& [n, value] : rec.outcome.timings) {
        if (n == name) s.add(value);
      }
    }
    if (s.count()) w.key(name + "_mean").value(s.mean());
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

std::string to_timing_json(const ExperimentSpec& spec,
                           const std::vector<RunRecord>& records) {
  return timing_json_impl(spec, records, /*shard=*/false, 0, 1,
                          records.size());
}

std::string to_shard_timing_json(const ExperimentSpec& spec,
                                 const std::vector<RunRecord>& records,
                                 std::size_t shard_index,
                                 std::size_t shard_count,
                                 std::size_t runs_total) {
  return timing_json_impl(spec, records, /*shard=*/true, shard_index,
                          shard_count, runs_total);
}

Table to_table(const std::vector<RunRecord>& records) {
  const std::vector<std::string> axes = axis_names(records);
  const std::vector<std::string> metrics = metric_names(records);

  std::vector<std::string> headers = axes;
  headers.push_back("seed");
  for (const std::string& m : metrics) headers.push_back(m);
  headers.push_back("status");

  Table table(headers);
  for (const RunRecord& rec : records) {
    std::vector<std::string> row;
    for (const std::string& axis : axes) {
      row.push_back(rec.params.has(axis) ? rec.params.get(axis) : "");
    }
    row.push_back(Table::num(rec.seed));
    for (const std::string& m : metrics) {
      bool found = false;
      for (const auto& [name, value] : rec.outcome.metrics) {
        if (name == m) {
          row.push_back(Table::num(value, 2));
          found = true;
          break;
        }
      }
      if (!found) row.push_back("-");
    }
    row.push_back(rec.outcome.ok ? "ok" : "FAIL: " + rec.outcome.error);
    table.add_row(std::move(row));
  }
  return table;
}

Table to_aggregate_table(const std::vector<RunRecord>& records) {
  const std::vector<std::string> axes = axis_names(records);
  const std::vector<std::string> metrics = metric_names(records);

  // Group by grid point (params id), preserving first-seen order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const RunRecord*>> groups;
  for (const RunRecord& rec : records) {
    const std::string key = rec.params.id();
    if (groups.find(key) == groups.end()) order.push_back(key);
    groups[key].push_back(&rec);
  }

  std::vector<std::string> headers = axes;
  headers.push_back("seeds");
  for (const std::string& m : metrics) {
    headers.push_back(m + "_mean");
    headers.push_back(m + "_sd");
  }

  Table table(headers);
  for (const std::string& key : order) {
    const auto& group = groups[key];
    std::vector<std::string> row;
    for (const std::string& axis : axes) {
      row.push_back(group.front()->params.has(axis)
                        ? group.front()->params.get(axis)
                        : "");
    }
    std::size_t ok_count = 0;
    for (const RunRecord* rec : group) {
      if (rec->outcome.ok) ++ok_count;
    }
    row.push_back(Table::num(std::uint64_t(ok_count)));
    for (const std::string& m : metrics) {
      Summary s;
      for (const RunRecord* rec : group) {
        if (!rec->outcome.ok) continue;
        for (const auto& [name, value] : rec->outcome.metrics) {
          if (name == m) {
            s.add(value);
            break;
          }
        }
      }
      row.push_back(s.count() ? Table::num(s.mean(), 2) : "-");
      row.push_back(s.count() ? Table::num(s.stddev(), 2) : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  require(f != nullptr, "cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // The final flush happens in fclose: a full disk can accept every
  // fwrite into the buffer and fail only there.
  const bool write_failed = std::ferror(f) != 0;
  const bool close_failed = std::fclose(f) != 0;
  require(written == content.size() && !write_failed && !close_failed,
          "short write to " + path);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  require(f != nullptr, "cannot open " + path + " for reading");
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  require(!failed, "read error on " + path);
  return content;
}

}  // namespace mmptcp::exp
