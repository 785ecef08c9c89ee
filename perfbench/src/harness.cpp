#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "jfm/support/telemetry.hpp"

namespace perfbench {

// Iterations between two reference_work() samples.
constexpr std::size_t kReferenceEvery = 10;

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::quantile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values_.size());
  const std::size_t index = rank <= 1 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

void oracle_fail(const std::string& what) { throw OracleFailure(what); }

void SpanLog::reset(bool enabled) {
  enabled_ = enabled;
  origin_ = Clock::now();
  spans_.clear();
  open_.clear();
}

std::uint64_t SpanLog::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.start_us = us_between(origin_, Clock::now());
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  spans_[id - 1].end_us = us_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
}

namespace {

constexpr const char* kCounterKeys[kCounterCount] = {
    "fmcad.library.checkout.count",  "fmcad.library.checkin.count",   "oms.tx.commit.count",
    "oms.query.scan.count",          "oms.query.indexed.count",
    "vfs.file.copy.bytes",           "vfs.file.copy.physical.bytes",
    "vfs.cow.break.count",           "executor.task.completed.count",
    "executor.steal.count",
};

}  // namespace

const char* counter_key(int id) { return kCounterKeys[id]; }

CounterSnap read_counters() {
  static const auto counters = [] {
    std::array<jfm::support::telemetry::Counter*, kCounterCount> out{};
    for (int i = 0; i < kCounterCount; ++i) {
      out[i] = &jfm::support::telemetry::Registry::global().counter(kCounterKeys[i]);
    }
    return out;
  }();
  CounterSnap snap{};
  for (int i = 0; i < kCounterCount; ++i) snap[i] = counters[i]->value();
  return snap;
}

Pass::Pass(std::uint64_t seed, bool traced, std::size_t workers, std::size_t iterations)
    : seed_(seed), workers_(workers), iterations_(iterations), start_(Clock::now()) {
  stats_.traced = traced;
  spans_.reset(traced);
}

void Pass::note_counters(const std::string& op, const CounterSnap& before,
                         const CounterSnap& after) {
  for (int i = 0; i < kCounterCount; ++i) {
    stats_.totals[op + "#" + kCounterKeys[i]] += static_cast<double>(after[i] - before[i]);
  }
  stats_.totals[op + "#n"] += 1;
}

namespace {

std::atomic<std::size_t> reference_sink{0};

/// FNV-1a, kept local so that the reference task shares no code with
/// the program under test.
std::size_t reference_hash(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return static_cast<std::size_t>(h);
}

/// A fixed single-threaded CPU task (string building, an ordered map,
/// FNV-1a) run between iterations, outside every timed op. Its latency
/// tracks the speed the host currently gives this process; it does not
/// depend on the program under test. Returns microseconds.
double reference_work() {
  const auto t0 = Clock::now();
  std::map<std::string, std::size_t> entries;
  std::size_t acc = 0;
  for (std::size_t i = 0; i < 1500; ++i) {
    const std::string key =
        "conn n" + std::to_string(i * 2654435761u % 10007) + " g" + std::to_string(i);
    acc += (entries[key] += i) + reference_hash(key);
  }
  reference_sink.store(acc, std::memory_order_relaxed);
  return us_between(t0, Clock::now());
}

}  // namespace

void Pass::end_setup() {
  stats_.setup_s = us_between(start_, Clock::now()) / 1e6;
  measuring_ = true;
}

void Pass::begin_cycle() {
  cycle_us_ = 0;
  if (spans_.enabled()) cycle_span_ = spans_.open("cycle");
}

void Pass::end_cycle() {
  if (cycle_span_ != 0) spans_.close(cycle_span_);
  cycle_span_ = 0;
  stats_.cycles.add(cycle_us_);
  if (stats_.cycles.size() % kReferenceEvery == 0) stats_.reference.add(reference_work());
}

PassStats Pass::finish() {
  stats_.spans = spans_.spans();
  return std::move(stats_);
}

jfm::coupling::HybridConfig bench_config() {
  jfm::coupling::HybridConfig config;
  config.durable_store = true;
  config.content_addressed_cache = true;
  return config;
}

}  // namespace perfbench
