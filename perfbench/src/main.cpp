// perfbench: end-to-end designer benchmark for the JCF-FMCAD hybrid.
//
//   perfbench --workload <design_session|team_sync|restart> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// perfbench/README.md for the definitions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "jfm/support/executor.hpp"
#include "jfm/support/telemetry.hpp"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  WorkloadFn run;
  std::size_t iterations;  ///< closed-loop iterations per pass
  const char* primary;     ///< op behind primary_p50_ms / primary_p95_ms
};

// Run length is part of each workload's definition: the store grows by
// one DOV per activity, so these counts fix the state every pass ends in.
constexpr WorkloadSpec kWorkloads[] = {
    {"design_session", design_session, 650, "schematic"},
    {"team_sync", team_sync, 350, "sync"},
    {"restart", restart, 300, "recover"},
};

// Every run makes at least this many passes: setup_s is a median, and a
// traced run has an untraced pass to measure its overhead against.
constexpr std::size_t kMinPasses = 2;

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <design_session|team_sync|restart> --seed <n>"
               " --seconds <s> --trace <0|1> [--spans-out <file>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload " + value);
    } else if (arg == "--seed") {
      const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), o.seed);
      if (ec != std::errc() || p != value.data() + value.size()) usage("bad seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
      if (!(o.seconds > 0 && o.seconds <= 600)) usage("bad seconds " + value);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad trace " + value);
      o.trace = value == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload == nullptr || !have_seed || !have_seconds) usage("missing arguments");
  return o;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Pooled view over several passes.
struct Pool {
  std::map<std::string, Samples> ops;
  std::map<std::string, Samples> setup_ops;
  std::map<std::string, Samples> probes;
  std::map<std::string, double> totals;
  Samples cycles;
  Samples reference;
  Samples setup_s;
  Samples op_time_us;
  double completed = 0;
  double attempted = 0;
  double failed = 0;

  void add(const PassStats& p) {
    for (const auto& [k, v] : p.ops) {
      ops[k].append(v);
      completed += static_cast<double>(v.size());
    }
    for (const auto& [k, v] : p.setup_ops) setup_ops[k].append(v);
    for (const auto& [k, v] : p.probes) probes[k].append(v);
    for (const auto& [k, v] : p.totals) totals[k] += v;
    cycles.append(p.cycles);
    reference.append(p.reference);
    setup_s.add(p.setup_s);
    op_time_us.add(p.op_time_us);
    attempted += static_cast<double>(p.attempted);
    failed += static_cast<double>(p.failed);
  }
  double op_q(const std::string& op, double q) { return ops.count(op) ? ops[op].quantile(q) : 0; }
  /// Median of an op whether the loop or the set-up timed it.
  double any_op_median(const std::string& op) {
    if (ops.count(op)) return ops[op].median();
    return setup_ops.count(op) ? setup_ops[op].median() : 0;
  }
  double probe(const std::string& name) { return probes.count(name) ? probes[name].median() : 0; }
  double total(const std::string& key) const {
    auto it = totals.find(key);
    return it == totals.end() ? 0 : it->second;
  }
  /// Sum of one registry counter's deltas over every measured op.
  double counter_over_ops(int id) const {
    const std::string suffix = std::string("#") + counter_key(id);
    double sum = 0;
    for (const auto& [k, v] : totals) {
      if (k.size() > suffix.size() && k.ends_with(suffix) && !k.starts_with("setup:")) sum += v;
    }
    return sum;
  }
  double counter_over(std::initializer_list<const char*> ops_named, int id) const {
    double sum = 0;
    for (const char* op : ops_named) sum += total(std::string(op) + "#" + counter_key(id));
    return sum;
  }
  double runs_of(std::initializer_list<const char*> ops_named) const {
    double sum = 0;
    for (const char* op : ops_named) sum += total(std::string(op) + "#n");
    return sum;
  }
};

// Nominal latency of reference_work(). The host's speed drifts by up
// to a third between minute-long phases (other tenants); end-to-end
// timings are reported as they would read when reference_work() takes
// this long, i.e. scaled by kNominalReferenceUs / (the run's median).
constexpr double kNominalReferenceUs = 500;

double speed_scale(Pool& pool) {
  const double measured = pool.reference.median();
  return measured > 0 ? kNominalReferenceUs / measured : 1;
}

std::vector<Metric> end_to_end(Pool& pool, const PassStats& first, const WorkloadSpec& w) {
  const double k = speed_scale(pool);
  return {
      {"setup_s", pool.setup_s.median() * k, "s"},
      {"ops_per_s", ratio(pool.completed, pool.op_time_us.sum() / 1e6) / k, "1/s"},
      {"cycle_p50_ms", pool.cycles.median() / 1e3 * k, "ms"},
      {"primary_p50_ms", pool.op_q(w.primary, 0.5) / 1e3 * k, "ms"},
      {"primary_p95_ms", pool.op_q(w.primary, 0.95) / 1e3 * k, "ms"},
      {"open_ro_p50_us", pool.op_q("open_ro", 0.5) * k, "us"},
      {"store_bytes_per_user_byte",
       ratio(static_cast<double>(first.store_bytes), static_cast<double>(first.user_bytes)),
       "ratio"},
      {"rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(Pool& traced, Pool& plain) {
  const double schematic = traced.any_op_median("schematic");
  const double open_ro = traced.any_op_median("open_ro");
  const double sync = traced.any_op_median("sync");
  const double recover = traced.any_op_median("recover");
  const double cycles = static_cast<double>(traced.cycles.size());
  const double scans = traced.counter_over_ops(kOmsScan);
  return {
      {"tools.schematic_apply_us", traced.probe("tools.schematic_apply"), "us"},
      {"tools.simulate_us", traced.probe("tools.simulate"), "us"},
      {"fmcad.designfile_parse_us", traced.probe("fmcad.designfile_parse"), "us"},
      {"fmcad.designfile_serialize_us", traced.probe("fmcad.designfile_serialize"), "us"},
      {"fmcad.library_meta_serialize_us", traced.probe("fmcad.library_meta_serialize"), "us"},
      {"fmcad.meta_writes_per_activity",
       ratio(traced.total("fmcad.meta_writes"), traced.probes["fmcad.library_meta_serialize"].size()),
       "count"},
      {"fmcad.checkins_per_activity",
       ratio(traced.counter_over({"schematic", "simulate", "setup:schematic", "setup:simulate"},
                                 kFmcadCheckin),
             traced.runs_of({"schematic", "simulate", "setup:schematic", "setup:simulate"})),
       "count"},
      {"coupling.activity_residual_ms", traced.probe("coupling.activity_residual") / 1e3, "ms"},
      {"coupling.transfer.export_us", traced.probe("coupling.transfer.export"), "us"},
      {"coupling.transfer.cache_hit_ratio",
       ratio(traced.total("transfer.hits"),
             traced.total("transfer.hits") + traced.total("transfer.misses")),
       "ratio"},
      {"coupling.transfer.read_hit_ratio",
       ratio(traced.total("read.hits"), traced.total("read.hits") + traced.total("read.misses")),
       "ratio"},
      {"coupling.checkout.skipped_ratio",
       ratio(traced.total("sync.skipped"),
             traced.total("sync.skipped") + traced.total("sync.requested")),
       "ratio"},
      {"coupling.checkout.requested_per_sync",
       ratio(traced.total("sync.requested"), traced.runs_of({"sync"})), "count"},
      {"jcf.changes_feed_us", traced.probe("jcf.changes_feed"), "us"},
      {"jcf.feed_rows_per_sync", ratio(traced.total("feed.rows"), traced.total("feed.polls")),
       "count"},
      {"jcf.dov_fingerprint_us", traced.probe("jcf.dov_fingerprint"), "us"},
      {"jcf.latest_dov_us", traced.probe("jcf.latest_dov"), "us"},
      {"oms.commits_per_cycle",
       ratio(traced.counter_over_ops(kOmsCommit) + traced.total("wal.loop_records"), cycles),
       "count"},
      {"oms.wal_bytes_per_commit",
       ratio(traced.total("wal.bytes"), traced.total("wal.records")), "B"},
      {"oms.wal_flushes_per_commit",
       ratio(traced.total("wal.flushes"), traced.total("wal.records")), "count"},
      {"oms.open_ms", traced.probe("oms.open") / 1e3, "ms"},
      {"oms.replayed_records",
       ratio(traced.total("oms.replayed"), traced.total("oms.recoveries")), "count"},
      {"oms.snapshot_ms", traced.probe("oms.snapshot") / 1e3, "ms"},
      {"oms.query_scan_ratio",
       ratio(scans, scans + traced.counter_over_ops(kOmsIndexed)), "ratio"},
      {"vfs.read_file_us", traced.probe("vfs.read_file"), "us"},
      {"vfs.copy_file_us", traced.probe("vfs.copy_file"), "us"},
      {"vfs.physical_per_logical_bytes",
       ratio(traced.counter_over_ops(kVfsCopyPhysical), traced.counter_over_ops(kVfsCopyBytes)),
       "ratio"},
      {"vfs.cow_breaks_per_cycle", ratio(traced.counter_over_ops(kVfsCowBreak), cycles),
       "count"},
      {"executor.tasks_per_checkout",
       ratio(traced.counter_over({"sync", "checkout_full"}, kExecTasks),
             traced.runs_of({"sync", "checkout_full"})),
       "count"},
      {"executor.steals_per_checkout",
       ratio(traced.counter_over({"sync", "checkout_full"}, kExecSteals),
             traced.runs_of({"sync", "checkout_full"})),
       "count"},
      {"trace.overhead_frac",
       ratio(traced.op_time_us.median(), plain.op_time_us.median()) - 1, "ratio"},
      {"share.tools_of_schematic", ratio(traced.probe("tools.schematic_apply"), schematic),
       "ratio"},
      {"share.fmcad_of_schematic",
       ratio(traced.probe("fmcad.designfile_parse") + traced.probe("fmcad.designfile_serialize") +
                 traced.probe("fmcad.library_meta_serialize") *
                     ratio(traced.total("fmcad.meta_writes"),
                           traced.probes["fmcad.library_meta_serialize"].size()),
             schematic),
       "ratio"},
      {"share.coupling_of_schematic",
       ratio(traced.probe("coupling.activity_residual"), schematic), "ratio"},
      {"share.transfer_of_open_ro", ratio(traced.probe("coupling.transfer.export"), open_ro),
       "ratio"},
      {"share.jcf_of_open_ro", ratio(traced.probe("jcf.dov_fingerprint"), open_ro), "ratio"},
      {"share.vfs_of_open_ro", ratio(traced.probe("vfs.read_file"), open_ro), "ratio"},
      {"share.feed_of_sync", ratio(traced.probe("jcf.changes_feed"), sync), "ratio"},
      {"share.oms_open_of_recover", ratio(traced.probe("oms.open"), recover), "ratio"},
  };
}

void print_report(const Options& o, Pool& pool, const PassStats& first, std::size_t passes,
                  std::size_t workers) {
  std::printf("perfbench %s seed=%llu passes=%zu iterations/pass=%zu trace=%d\n",
              o.workload->name, static_cast<unsigned long long>(o.seed), passes,
              o.workload->iterations, o.trace ? 1 : 0);
  std::printf("config: durable_store=1 content_addressed_cache=1 cache=128 cow=1 incremental=1"
              " client_threads=1 checkout_workers=%zu JFM_WORKERS=%s executor.workers=%lld\n",
              workers, std::getenv("JFM_WORKERS"),
              static_cast<long long>(
                  jfm::support::telemetry::Registry::global().gauge("executor.workers").value()));
  std::printf("reference_work median %.1f us over %zu samples (nominal %.0f us): JSON timings"
              " x %.4f; the op table and metric lines below are raw\n",
              pool.reference.median(), pool.reference.size(), kNominalReferenceUs,
              speed_scale(pool));
  std::printf("%-18s %8s %12s %12s %12s\n", "op", "samples", "p50_us", "p99_us", "max_us");
  for (auto* ops : {&pool.ops, &pool.setup_ops}) {
    for (auto& [name, samples] : *ops) {
      const std::string label = ops == &pool.ops ? name : name + " (setup)";
      std::printf("%-18s %8zu %12.1f %12.1f %12.1f\n", label.c_str(), samples.size(),
                  samples.quantile(0.5), samples.quantile(0.99), samples.quantile(1.0));
    }
  }
  // Op-level metric names, printed where the workload runs the op.
  auto line = [](const char* name, double v, const char* unit) {
    std::printf("metric %-26s %14.4f %s\n", name, v, unit);
  };
  line("error_rate", ratio(pool.failed, pool.attempted), "ratio");
  std::printf("       (failed %.0f of %.0f attempted ops)\n", pool.failed, pool.attempted);
  struct Named {
    const char* name;
    const char* op;
    double q;
    double scale;
    const char* unit;
  };
  const Named named[] = {
      {"schematic_p50_ms", "schematic", 0.5, 1e-3, "ms"},
      {"schematic_p99_ms", "schematic", 0.99, 1e-3, "ms"},
      {"simulate_p50_ms", "simulate", 0.5, 1e-3, "ms"},
      {"open_ro_p50_us", "open_ro", 0.5, 1, "us"},
      {"open_ro_p99_us", "open_ro", 0.99, 1, "us"},
      {"sync_p50_ms", "sync", 0.5, 1e-3, "ms"},
      {"sync_p99_ms", "sync", 0.99, 1e-3, "ms"},
      {"checkout_full_p50_ms", "checkout_full", 0.5, 1e-3, "ms"},
      {"recover_p50_ms", "recover", 0.5, 1e-3, "ms"},
  };
  for (const auto& n : named) {
    if (pool.ops.count(n.op)) line(n.name, pool.ops[n.op].quantile(n.q) * n.scale, n.unit);
  }
  if (pool.ops.count("reserve")) {
    Samples workspace = pool.ops["reserve"];
    workspace.append(pool.ops["publish"]);
    line("workspace_p50_us", workspace.median(), "us");
  }
  std::ostringstream counts;
  counts << "{";
  const char* sep = "";
  for (const auto& [k, v] : first.counts) {
    counts << sep << "\"" << k << "\": " << v;
    sep = ", ";
  }
  counts << "}";
  std::printf("counts %s\n", counts.str().c_str());
}

/// Layer self time from the spans of one traced pass.
void print_spans(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  std::vector<double> child(spans.size() + 1, 0);
  for (const auto& s : spans) {
    if (s.parent != 0) child[s.parent] += s.end_us - s.start_us;
  }
  for (const auto& s : spans) {
    auto& entry = by_name[s.name];
    entry.first += s.end_us - s.start_us;
    entry.second += s.end_us - s.start_us - child[s.id];
  }
  std::printf("%-32s %12s %12s\n", "span", "total_ms", "self_ms");
  for (const auto& [name, t] : by_name) {
    std::printf("%-32s %12.2f %12.2f\n", name.c_str(), t.first / 1e3, t.second / 1e3);
  }
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"start_us\": " << number(s.start_us)
        << ", \"end_us\": " << number(s.end_us) << "}";
  }
  out << "\n]\n";
}

void print_result(bool correct, double attempted, double failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << static_cast<std::uint64_t>(attempted)
      << ", \"failed\": " << static_cast<std::uint64_t>(failed) << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

int run(const Options& o) {
  // Half the CPUs: with nproc checkout workers next to the client thread
  // on a shared host, sync_p95 measured the scheduler (five-seed spread
  // 0.30; the ten-seed spread at half was 0.11).
  const std::size_t workers = std::max<std::size_t>(1, cpu_count() / 2);
  // Pin the shared executor before its first use (its default would be
  // max(hw, 8) threads).
  setenv("JFM_WORKERS", std::to_string(workers).c_str(), 1);
  (void)jfm::support::executor::Executor::global().workers();

  std::vector<PassStats> passes;
  const auto start = Clock::now();
  try {
    for (;;) {
      // After the minimum, start another pass only if it should end
      // within --seconds, judging by the passes so far.
      const double elapsed = us_between(start, Clock::now()) / 1e6;
      if (passes.size() >= kMinPasses &&
          elapsed + elapsed / static_cast<double>(passes.size()) > o.seconds) {
        break;
      }
      // With --trace 1, passes alternate untraced / traced on identical
      // inputs; the untraced ones give trace.overhead_frac its base.
      const bool traced = o.trace && passes.size() % 2 == 1;
      Pass pass(o.seed, traced, workers, o.workload->iterations);
      o.workload->run(pass);
      PassStats stats = pass.finish();
      // Probes move the simulated clock that stamps WAL records, so a
      // traced pass is compared with the first traced pass only.
      const auto twin = std::find_if(passes.begin(), passes.end(),
                                     [&](const PassStats& p) { return p.traced == traced; });
      if (twin != passes.end() && stats.counts != twin->counts) {
        std::string diff;
        for (const auto& [k, v] : stats.counts) {
          const auto it = twin->counts.find(k);
          const std::uint64_t was = it == twin->counts.end() ? 0 : it->second;
          if (v != was) diff += " " + k + "=" + std::to_string(v) + "/" + std::to_string(was);
        }
        oracle_fail("pass " + std::to_string(passes.size()) +
                    " counts differ from an earlier pass on the same seed:" + diff);
      }
      passes.push_back(std::move(stats));
    }
  } catch (const OracleFailure& e) {
    std::printf("ORACLE FAILURE: %s\n", e.what());
    print_result(false, 1, 0, {});
    return 1;
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    print_result(false, 1, 0, {});
    return 1;
  }

  Pool plain;
  Pool traced;
  const std::vector<SpanRecord>* last_spans = nullptr;
  for (const auto& p : passes) {
    if (p.traced) {
      traced.add(p);
      last_spans = &p.spans;
    } else {
      plain.add(p);
    }
  }
  Pool& shown = o.trace ? traced : plain;
  print_report(o, shown, passes.front(), passes.size(), workers);
  if (last_spans != nullptr) {
    print_spans(*last_spans);
    if (!o.spans_out.empty()) write_spans(o.spans_out, *last_spans);
  }
  const auto metrics =
      o.trace ? per_layer(traced, plain) : end_to_end(plain, passes.front(), *o.workload);
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(true, shown.attempted, shown.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse_args(argc, argv)); }
