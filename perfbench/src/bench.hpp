#pragma once
// End-to-end designer benchmark: shared harness types.
//
// A run is a sequence of passes. Every pass builds a fresh
// HybridFramework from the run's seed, so all passes of one run do the
// identical work; end-to-end figures are medians pooled over passes and
// the per-pass determinism counts must agree exactly. Traced passes also
// record spans around the benchmark's own calls, run probe calls into
// each layer, and take registry counter deltas per operation.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "jfm/coupling/hybrid.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Latency (or size) samples of one kind.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  std::size_t size() const noexcept { return values_.size(); }
  double sum() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q);
  double median() { return quantile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// A correctness oracle found a mismatch: the run fails.
struct OracleFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void oracle_fail(const std::string& what);

/// Spans around the public calls this benchmark makes (traced passes).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start_us = 0;
  double end_us = 0;
};

class SpanLog {
 public:
  void reset(bool enabled);
  bool enabled() const noexcept { return enabled_; }
  std::uint64_t open(const std::string& name);
  void close(std::uint64_t id);
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  Clock::time_point origin_{};
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_ of the open stack
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.enabled() ? log.open(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) log_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Telemetry registry counters read around each operation.
enum CounterId {
  kFmcadCheckout,
  kFmcadCheckin,
  kOmsCommit,
  kOmsScan,
  kOmsIndexed,
  kVfsCopyBytes,
  kVfsCopyPhysical,
  kVfsCowBreak,
  kExecTasks,
  kExecSteals,
  kCounterCount
};
using CounterSnap = std::array<std::uint64_t, kCounterCount>;
CounterSnap read_counters();
const char* counter_key(int id);

/// Everything one pass measured.
struct PassStats {
  bool traced = false;
  double setup_s = 0;
  std::map<std::string, Samples> ops;  ///< op -> latency (us) of completed measured ops
  /// Ops the set-up itself times (restart's edit history).
  std::map<std::string, Samples> setup_ops;
  Samples cycles;                      ///< closed-loop iteration latency (us)
  Samples reference;                   ///< host-speed reference task latency (us)
  double op_time_us = 0;               ///< sum over completed measured ops
  std::uint64_t attempted = 0;         ///< every timed op, set-up included
  std::uint64_t failed = 0;
  std::uint64_t store_bytes = 0;  ///< bytes under /oms
  std::uint64_t user_bytes = 0;   ///< design payload bytes committed
  /// Exact per-pass counts for the determinism self-check.
  std::map<std::string, std::uint64_t> counts;
  // traced passes only
  std::map<std::string, Samples> probes;  ///< layer probe timings (us)
  std::map<std::string, double> totals;   ///< counter deltas and report sums
  std::vector<SpanRecord> spans;
};

/// One pass: a fresh framework, set-up, then the closed loop.
class Pass {
 public:
  Pass(std::uint64_t seed, bool traced, std::size_t workers, std::size_t iterations);

  std::uint64_t seed() const noexcept { return seed_; }
  bool traced() const noexcept { return stats_.traced; }
  std::size_t workers() const noexcept { return workers_; }
  std::size_t iterations() const noexcept { return iterations_; }
  PassStats& stats() noexcept { return stats_; }

  /// Time one public call. `fn` returns whether it succeeded; failures
  /// count toward error_rate and add no latency sample.
  template <typename Fn>
  bool op(const std::string& name, Fn&& fn) {
    ScopedSpan span(spans_, name);
    CounterSnap before{};
    if (traced()) before = read_counters();
    const auto t0 = Clock::now();
    const bool ok = fn();
    const double us = us_between(t0, Clock::now());
    if (traced()) note_counters(measuring_ ? name : "setup:" + name, before, read_counters());
    last_us_ = us;
    ++stats_.attempted;
    if (!ok) {
      ++stats_.failed;
    } else if (!measuring_) {
      stats_.setup_ops[name].add(us);
    } else {
      stats_.ops[name].add(us);
      stats_.op_time_us += us;
      cycle_us_ += us;
    }
    return ok;
  }

  /// Time a layer probe (traced passes only; a no-op otherwise).
  /// Returns the probe's latency in microseconds.
  template <typename Fn>
  double probe(const std::string& name, Fn&& fn) {
    if (!traced()) return 0;
    ScopedSpan span(spans_, name);
    const auto t0 = Clock::now();
    fn();
    const double us = us_between(t0, Clock::now());
    stats_.probes[name].add(us);
    return us;
  }

  /// Latency of the most recent op() call.
  double last_us() const noexcept { return last_us_; }

  /// Record a timing taken around a call the workload makes anyway.
  void record_probe(const std::string& name, double us) {
    if (traced()) stats_.probes[name].add(us);
  }

  void add_total(const std::string& key, double v) {
    if (traced()) stats_.totals[key] += v;
  }

  void begin_cycle();
  void end_cycle();
  void end_setup();  ///< marks the first measured op

  /// Close the pass: move the spans into the stats.
  PassStats finish();

 private:
  void note_counters(const std::string& op, const CounterSnap& before, const CounterSnap& after);

  std::uint64_t seed_;
  std::size_t workers_;
  std::size_t iterations_;
  PassStats stats_;
  SpanLog spans_;
  Clock::time_point start_;
  double cycle_us_ = 0;
  double last_us_ = 0;
  bool measuring_ = false;
  std::uint64_t cycle_span_ = 0;
};

/// The deployment configuration every workload runs with.
jfm::coupling::HybridConfig bench_config();

using WorkloadFn = void (*)(Pass&);
void design_session(Pass& pass);
void team_sync(Pass& pass);
void restart(Pass& pass);

}  // namespace perfbench
