#include "exp/cli.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "exp/analyze/analyze.h"
#include "exp/compare/compare.h"
#include "exp/compare/report.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/shard.h"
#include "exp/sink.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace mmptcp::exp {

namespace {

/// Parses "--set a=1,2;b=x" into axis overrides.
std::vector<Axis> parse_axis_overrides(const std::string& text) {
  std::vector<Axis> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t semi = text.find(';', start);
    const std::size_t end = semi == std::string::npos ? text.size() : semi;
    const std::string item = text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    require(eq != std::string::npos && eq > 0,
            "--set expects axis=v1,v2[;axis2=...], got: " + item);
    Axis axis{item.substr(0, eq), {}};
    std::size_t vstart = eq + 1;
    while (vstart <= item.size()) {
      const std::size_t comma = item.find(',', vstart);
      const std::size_t vend =
          comma == std::string::npos ? item.size() : comma;
      axis.values.push_back(item.substr(vstart, vend - vstart));
      if (comma == std::string::npos) break;
      vstart = comma + 1;
    }
    require(!axis.values.empty(), "--set axis with no values: " + item);
    out.push_back(std::move(axis));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return out;
}

struct CliOptions {
  Scale scale;
  SweepOptions sweep;
  std::string out_dir = ".";
  std::string baselines_dir;  ///< --update-baselines: also write here
  bool quiet = false;
  bool no_json = false;
};

/// Reads the engine + scale flags of --run.
CliOptions parse_cli(Flags& flags) {
  CliOptions o;
  o.scale = parse_scale(flags);
  o.sweep.jobs = static_cast<std::size_t>(
      flags.get_int("jobs", 1, "worker threads for the sweep"));
  require(o.sweep.jobs >= 1, "--jobs must be >= 1");
  const long long sim_threads = flags.get_int(
      "sim-threads", 1,
      "worker threads inside each run (domain-parallel event execution; "
      "0 = auto, i.e. all hardware threads clamped to the domain count; "
      "results are byte-identical at any value)");
  require(sim_threads >= 0, "--sim-threads must be >= 0 (0 = auto)");
  o.sweep.sim_threads = static_cast<unsigned>(sim_threads);
  const std::string seeds = flags.get_string(
      "seeds", "", "seed list: '7', '1,2,5' or '1..10' (default: --seed)");
  o.sweep.seeds = seeds.empty() ? std::vector<std::uint64_t>{o.scale.seed}
                                : parse_seed_list(seeds);
  const std::string overrides = flags.get_string(
      "set", "", "replace axis values: 'axis=v1,v2[;axis2=...]'");
  if (!overrides.empty()) {
    o.sweep.axis_overrides = parse_axis_overrides(overrides);
  }
  const std::string shard = flags.get_string(
      "shard", "",
      "run only shard i of N ('i/N'); writes BENCH_*.shard<i>of<N>.json "
      "for --merge");
  if (!shard.empty()) {
    const ShardSpec spec = parse_shard_spec(shard);
    o.sweep.shard_index = spec.index;
    o.sweep.shard_count = spec.count;
  }
  o.out_dir = flags.get_string("out", ".", "directory for BENCH_*.json");
  o.baselines_dir = flags.get_string(
      "update-baselines", "",
      "with --run: also write BENCH_*.json into this baseline directory");
  o.quiet = flags.get_bool("quiet", false, "suppress progress lines");
  o.no_json = flags.get_bool("no-json", false, "skip the JSON result file");
  const std::string trace = flags.get_string(
      "trace", "",
      "flight recorder channels: 'queue,cwnd,phase,retx,sched' or 'all'");
  const std::string trace_out = flags.get_string(
      "trace-out", "", "directory for TRACE_*.jsonl (default: --out)");
  const std::string trace_interval = flags.get_string(
      "trace-interval", "1ms", "queue/sched sampling period, e.g. 500us");
  const std::string log_level = flags.get_string(
      "log-level", "off", "stderr logging: off|error|warn|info|debug|trace");
  if (!trace.empty()) {
    if (o.sweep.sim_threads != 1) {
      // The scenario would force one worker anyway (the windowed schedule
      // — and the trace — is identical either way); fail loudly instead
      // of silently ignoring the requested parallelism.  0 (auto) counts:
      // it resolves to all hardware threads.
      throw ConfigError(
          "--trace cannot be combined with --sim-threads != 1: tracing "
          "runs the windowed schedule on one worker; drop one of the two");
    }
    o.sweep.trace_channels = parse_trace_channels(trace);
    o.sweep.trace_interval = parse_duration(trace_interval);
    if (o.sweep.trace_interval.ns() <= 0) {
      throw ConfigError("--trace-interval must be positive, got '" +
                        trace_interval + "'");
    }
    o.sweep.trace_dir = trace_out;
  }
  const LogLevel level = parse_log_level(log_level);
  if (level != LogLevel::kOff) {
    o.sweep.logger = make_stderr_logger(level);
  }
  return o;
}

void print_spec_preamble(const ExperimentSpec& spec, const Scale& scale,
                         std::size_t runs, std::size_t jobs) {
  std::printf("== %s ==\n", spec.name.c_str());
  std::printf("reproduces: %s\n", spec.artefact.c_str());
  std::printf(
      "scale: %s (k=%u, %u:1 oversubscribed, %u shorts of %llu B, "
      "%.1f arrivals/s/host)\n",
      scale.full ? "FULL (paper)" : "reduced (use --full for paper scale)",
      scale.k, scale.oversubscription, scale.shorts,
      static_cast<unsigned long long>(scale.short_bytes),
      scale.rate_per_host);
  std::printf("sweep: %zu runs on %zu thread(s)\n\n", runs, jobs);
}

/// Rejects an output directory that is missing or not writable, so a
/// bad path fails before the sweep instead of after it.
void require_writable_dir(const std::string& dir, const std::string& flag) {
  std::error_code ec;
  require(std::filesystem::is_directory(dir, ec),
          flag + " is not an existing directory: " + dir);
  require(::access(dir.c_str(), W_OK | X_OK) == 0,
          flag + " directory is not writable: " + dir);
}

/// Runs one spec end to end; returns the number of failed runs.
std::size_t run_one(const ExperimentSpec& spec, const CliOptions& cli) {
  SweepOptions sweep = cli.sweep;
  sweep.out_dir = cli.out_dir;
  // --out even under --no-json: traces and per-flow CSVs land there too.
  require_writable_dir(cli.out_dir, "--out");
  if (!cli.baselines_dir.empty()) {
    require_writable_dir(cli.baselines_dir, "--update-baselines");
  }
  if (!sweep.trace_dir.empty()) {
    require_writable_dir(sweep.trace_dir, "--trace-out");
  }
  const bool sharded = sweep.shard_count > 1;
  require(!sharded || cli.baselines_dir.empty(),
          "--update-baselines cannot be combined with --shard: merge the "
          "shards first (--merge ... --report), then refresh baselines from "
          "an unsharded run");
  const Scale scale = effective_scale(spec, cli.scale);
  const std::size_t total = sweep_size(spec, cli.scale, sweep);
  // Expansion validates the shard spec against the run count (and throws
  // a clear error instead of producing an empty document).
  const std::size_t mine =
      sharded ? expand(spec, cli.scale, sweep).size() : total;
  print_spec_preamble(spec, scale, mine,
                      std::max<std::size_t>(1, std::min(sweep.jobs, mine)));
  if (sharded) {
    std::printf("shard: %zu/%zu (%zu of %zu runs)\n\n", sweep.shard_index,
                sweep.shard_count, mine, total);
  }
  if (!cli.quiet) {
    sweep.on_progress = [](std::size_t done, std::size_t all,
                           const std::string& id, bool ok) {
      std::fprintf(stderr, "  [%zu/%zu] %s %s\n", done, all, id.c_str(),
                   ok ? "done" : "FAILED");
    };
  }

  const std::vector<RunRecord> records = run_sweep(spec, cli.scale, sweep);

  if (sweep.trace_channels != 0) {
    std::printf("traces: %s/TRACE_%s_*.jsonl (channels: %s)\n",
                (sweep.trace_dir.empty() ? cli.out_dir : sweep.trace_dir)
                    .c_str(),
                spec.name.c_str(),
                trace_channels_to_string(sweep.trace_channels).c_str());
  }
  std::printf("%s\n", to_table(records).to_string().c_str());
  if (sweep.seeds.size() > 1) {
    std::printf("aggregated over %zu seeds:\n%s\n", sweep.seeds.size(),
                to_aggregate_table(records).to_string().c_str());
  }
  if (!spec.notes.empty()) std::printf("%s\n", spec.notes.c_str());

  // --update-baselines works even under --no-json (the baseline copy is
  // the point of that invocation).
  if (!cli.no_json || !cli.baselines_dir.empty()) {
    const std::string stem =
        "BENCH_" + spec.name +
        (sharded ? ".shard" + std::to_string(sweep.shard_index) + "of" +
                       std::to_string(sweep.shard_count)
                 : "");
    const std::string json =
        sharded ? to_shard_json(spec, scale, records, sweep.shard_index,
                                sweep.shard_count, total)
                : to_json(spec, scale, records);
    // Wall-clock metrics (events/s) go in a sidecar so the main JSON
    // stays byte-identical across hosts and --jobs values.
    const std::string timing =
        sharded ? to_shard_timing_json(spec, records, sweep.shard_index,
                                       sweep.shard_count, total)
                : to_timing_json(spec, records);
    if (!cli.no_json) {
      const std::string path = cli.out_dir + "/" + stem + ".json";
      write_file(path, json);
      std::printf("json: %s\n", path.c_str());
      if (!timing.empty()) {
        const std::string tpath = cli.out_dir + "/" + stem + ".timing.json";
        write_file(tpath, timing);
        std::printf("timing json: %s\n", tpath.c_str());
      }
    }
    if (!cli.baselines_dir.empty()) {
      const std::string bpath =
          cli.baselines_dir + "/BENCH_" + spec.name + ".json";
      write_file(bpath, json);
      std::printf("baseline updated: %s\n", bpath.c_str());
      if (!timing.empty()) {
        const std::string btpath =
            cli.baselines_dir + "/BENCH_" + spec.name + ".timing.json";
        write_file(btpath, timing);
        std::printf("baseline updated: %s\n", btpath.c_str());
      }
    }
  }
  std::printf("\n");

  std::size_t failures = 0;
  for (const RunRecord& rec : records) {
    if (!rec.outcome.ok) ++failures;
  }
  return failures;
}

int list_experiments(const std::string& filter) {
  const auto specs = Registry::global().match(filter);
  Table table({"name", "artefact", "description"});
  for (const ExperimentSpec* spec : specs) {
    table.add_row({spec->name, spec->artefact, spec->description});
  }
  std::printf("%s\n%zu experiment(s). Run one with: mmptcp_exp --run "
              "<name> [--jobs N] [--seeds 1..10]\n",
              table.to_string().c_str(), specs.size());
  return 0;
}

/// --compare-mode flags, read up front so --help lists them too.
struct CompareCliOptions {
  std::string metrics_glob;
  double tolerance = -1;
  std::string report_path;
  bool warn_only = false;
};

CompareCliOptions parse_compare_cli(Flags& flags) {
  CompareCliOptions o;
  o.metrics_glob = flags.get_string(
      "metrics", "*", "with --compare: only diff metrics matching this glob");
  o.tolerance = flags.get_double(
      "tolerance", -1,
      "with --compare: override fail tolerance (%); warn at half of it");
  o.report_path = flags.get_string(
      "report", "", "with --compare: write the verdict JSON here");
  o.warn_only = flags.get_bool(
      "warn-only", false,
      "with --compare: report FAILs but exit 0 (trend-only gates)");
  return o;
}

/// `--compare baseline.json candidate.json`: diff two result documents
/// and gate on the verdict.  Returns 0 on PASS/WARN, 1 on FAIL (0 with
/// --warn-only), 2 on unusable inputs.
int compare_documents(const std::string& baseline_path,
                      const CompareCliOptions& copts, Flags& flags) {
  const std::vector<std::string>& positionals = flags.positionals();
  require(positionals.size() == 1,
          "--compare expects exactly two documents: --compare "
          "baseline.json candidate.json");
  const std::string candidate_path = positionals.front();
  flags.check_unknown();

  CompareOptions options;
  options.metrics_glob = copts.metrics_glob;
  options.tolerance_override_pct = copts.tolerance;
  options.registry = &Registry::global();

  CompareReport report = compare_sweeps(load_sweep_doc(baseline_path),
                                        load_sweep_doc(candidate_path),
                                        options);
  report.baseline_origin = baseline_path;
  report.candidate_origin = candidate_path;

  std::fputs(to_text_report(report).c_str(), stdout);
  if (!copts.report_path.empty()) {
    write_file(copts.report_path, to_verdict_json(report));
    std::printf("verdict json: %s\n", copts.report_path.c_str());
  }
  if (report.verdict() == Verdict::kFail) {
    std::fprintf(stderr, "%s: regression detected%s\n",
                 report.experiment.c_str(),
                 copts.warn_only ? " (ignored: --warn-only)" : "");
    return copts.warn_only ? 0 : 1;
  }
  return 0;
}

/// "x.json" -> "x.timing.json" (the sidecar naming both the sharded and
/// unsharded writers use).
std::string timing_sibling(const std::string& path) {
  const std::string suffix = ".json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return path.substr(0, path.size() - suffix.size()) + ".timing.json";
  }
  return path + ".timing.json";
}

bool try_read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  *out = read_file(path);
  return true;
}

/// `--merge shard0.json shard1.json ... --report merged.json`: recombine
/// one sweep's shard documents into the unsharded result (byte-identical
/// to a single-machine run) plus a merged timing sidecar next to the
/// report.  Returns 0 on success, 2 on unusable inputs.
int merge_documents(const std::string& first_path,
                    const CompareCliOptions& copts, Flags& flags) {
  std::vector<std::string> paths{first_path};
  for (const std::string& p : flags.positionals()) paths.push_back(p);
  flags.check_unknown();
  require(!copts.report_path.empty(),
          "--merge needs --report <merged.json> for the output path");

  std::vector<ShardDoc> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    docs.push_back(ShardDoc{path, read_file(path)});
  }
  write_file(copts.report_path, merge_shard_docs(docs));
  std::printf("merged json: %s\n", copts.report_path.c_str());

  // Timing sidecars are optional (a shard whose runs reported no
  // wall-clock metrics writes none); merge whichever exist.
  std::vector<ShardDoc> timing_docs;
  for (const std::string& path : paths) {
    const std::string tpath = timing_sibling(path);
    std::string text;
    if (try_read_file(tpath, &text)) {
      timing_docs.push_back(ShardDoc{tpath, std::move(text)});
    }
  }
  const std::string timing = merge_timing_docs(timing_docs);
  if (!timing.empty()) {
    const std::string tpath = timing_sibling(copts.report_path);
    write_file(tpath, timing);
    std::printf("merged timing json: %s\n", tpath.c_str());
  }
  return 0;
}

/// `--analyze results.json`: flow-time attribution report (optionally
/// joined with TRACE_*.jsonl streams from --trace-dir).
int analyze_document(const std::string& results_path,
                     const std::string& trace_dir,
                     const std::string& report_path) {
  const AnalysisReport report = analyze_results(results_path, trace_dir);
  std::fputs(report.text.c_str(), stdout);
  if (!report_path.empty()) {
    write_file(report_path, report.json);
    std::printf("report json: %s\n", report_path.c_str());
  }
  return 0;
}

const char* direction_name(MetricTolerance::Direction d) {
  switch (d) {
    case MetricTolerance::Direction::kHigherIsWorse:
      return "higher-is-worse";
    case MetricTolerance::Direction::kLowerIsWorse:
      return "lower-is-worse";
    default:
      return "both";
  }
}

int describe_experiment(const std::string& name, const Scale& scale) {
  const ExperimentSpec* spec = Registry::global().find(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown experiment: %s (try --list)\n",
                 name.c_str());
    return 2;
  }
  std::printf("%s — %s\n%s\n\n", spec->name.c_str(),
              spec->artefact.c_str(), spec->description.c_str());
  Scale adjusted = scale;
  if (spec->adjust_scale) spec->adjust_scale(adjusted);
  Table axes({"axis", "values"});
  for (const Axis& axis : spec->axes(adjusted)) {
    std::string values;
    for (const std::string& v : axis.values) {
      if (!values.empty()) values += ", ";
      values += v;
    }
    axes.add_row({axis.name, values});
  }
  std::printf("%s\n", axes.to_string().c_str());
  std::printf("runs per seed: %zu (seed list comes from --seed/--seeds)\n",
              cartesian(spec->axes(adjusted)).size());
  if (!spec->tolerances.empty()) {
    std::printf("\nregression tolerances (--compare gates; first matching "
                "pattern wins):\n");
    Table tol({"pattern", "warn%", "fail%", "abs_slack", "direction"});
    for (const MetricTolerance& t : spec->tolerances) {
      tol.add_row({t.pattern, Table::num(t.warn_pct, 2),
                   Table::num(t.fail_pct, 2), Table::num(t.abs_slack, 4),
                   direction_name(t.direction)});
    }
    std::printf("%s", tol.to_string().c_str());
    std::printf("unlisted metrics gate at the defaults: warn %.2f%%, fail "
                "%.2f%%, direction both\n",
                MetricTolerance{}.warn_pct, MetricTolerance{}.fail_pct);
  }
  if (!spec->notes.empty()) std::printf("\n%s\n", spec->notes.c_str());
  return 0;
}

}  // namespace

int exp_main(int argc, char** argv) {
  try {
    register_builtin_experiments();
    Flags flags(argc, argv);
    const bool list = flags.get_bool("list", false, "list experiments");
    const std::string describe =
        flags.get_string("describe", "", "show one experiment's axes");
    const std::string run = flags.get_string(
        "run", "", "run experiments matching this name/substring");
    const std::string compare = flags.get_string(
        "compare", "",
        "diff this baseline result JSON against a candidate "
        "(--compare base.json cand.json)");
    const std::string merge = flags.get_string(
        "merge", "",
        "recombine shard documents into the unsharded sweep result "
        "(--merge shard0.json shard1.json ... --report merged.json)");
    const std::string analyze = flags.get_string(
        "analyze", "",
        "flow-time attribution report for this sweep result JSON "
        "(--analyze BENCH_x.json [--trace-dir d] [--report out.json])");
    const std::string trace_dir = flags.get_string(
        "trace-dir", "",
        "with --analyze: directory holding the sweep's TRACE_*.jsonl");
    const std::string filter = flags.get_string(
        "filter", "", "with --list: only names containing this");
    const CompareCliOptions copts = parse_compare_cli(flags);
    CliOptions cli = parse_cli(flags);
    if (flags.help_requested()) {
      std::fputs(flags.help(argv[0]).c_str(), stdout);
      return 0;
    }
    if (!compare.empty()) {
      // compare_documents reads the positional candidate path before
      // check_unknown.
      return compare_documents(compare, copts, flags);
    }
    if (!merge.empty()) {
      // merge_documents reads the positional shard paths before
      // check_unknown.
      return merge_documents(merge, copts, flags);
    }
    flags.check_unknown();

    if (!analyze.empty()) {
      return analyze_document(analyze, trace_dir, copts.report_path);
    }

    if (list) return list_experiments(filter);
    if (!describe.empty()) return describe_experiment(describe, cli.scale);
    if (run.empty()) {
      std::fputs("nothing to do: pass --list, --describe <name> or "
                 "--run <filter> (see --help)\n",
                 stderr);
      return 2;
    }

    const auto specs = Registry::global().match(run);
    if (specs.empty()) {
      std::fprintf(stderr, "no experiment matches '%s' (try --list)\n",
                   run.c_str());
      return 2;
    }
    std::size_t failures = 0;
    for (const ExperimentSpec* spec : specs) {
      failures += run_one(*spec, cli);
    }
    if (failures > 0) {
      std::fprintf(stderr, "%zu run(s) failed\n", failures);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace mmptcp::exp
