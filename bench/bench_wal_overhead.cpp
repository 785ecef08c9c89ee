// Durable-OMS commit-path tax (docs/persistence.md): what does the
// write-ahead log cost per committed transaction?
//
// Two modes run the byte-identical seeded workload -- transactions
// of ~8 mutations shaped like a JCF check-in commit: create a fresh
// version object, stamp integer attributes, write ~96-byte text
// blobs (tool-invocation argument strings -- OMS attributes hold
// metadata; bulk cell payloads live in vfs extents, not the WAL),
// churn links, and retire an old version. All modes execute the identical
// mutation sequence:
//   * off       -- StoreOptions durability off, the paper's volatile
//                  store and the bit-identical ablation baseline;
//   * wal       -- durability on: every commit encodes its record AND
//                  appends it to the journal.
// The report prints ns/commit per mode plus the journal bytes and
// flush count; JFM_WAL / JFM_WAL_META lines feed
// scripts/run_benches.py, which gates --check-wal-overhead on the
// wal mode staying within 15% of the volatile baseline.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>

#include "bench_util.hpp"
#include "jfm/oms/store.hpp"
#include "jfm/oms/wal.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/vfs/filesystem.hpp"

namespace {

using namespace jfm;
using oms::AttrValue;

constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kCommits = 4000;

oms::Schema wal_schema() {
  oms::Schema schema;
  auto must = [](support::Status st) {
    if (!st.ok()) std::abort();
  };
  must(schema.define_class({"Node",
                            "",
                            {{"label", oms::AttrType::text},
                             {"weight", oms::AttrType::integer}}}));
  must(schema.define_relation({"edge", "Node", "Node", oms::Cardinality::many_to_many}));
  return schema;
}

enum class Mode { off, wal };

const char* mode_name(Mode mode) { return mode == Mode::off ? "off" : "wal"; }

oms::StoreOptions options_for(Mode mode) {
  oms::StoreOptions opts;
  if (mode != Mode::off) opts.durability = oms::StoreOptions::Durability::wal;
  return opts;
}

struct RunResult {
  std::uint64_t wall_us = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t flushes = 0;
};

// The store clock is separate from the journal file system's so the
// `off` and `wal` stores see identical timestamp sequences -- the
// workloads stay byte-identical, only the journalling differs.
RunResult run_mode(Mode mode, std::size_t commits) {
  support::SimClock store_clock;
  support::SimClock journal_clock;
  vfs::FileSystem journal_fs(&journal_clock);
  oms::Store store(wal_schema(), &store_clock, options_for(mode));
  if (mode != Mode::off) {
    if (!store.open(journal_fs, vfs::Path().child("oms")).ok()) std::abort();
  }
  std::vector<oms::ObjectId> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(*store.create("Node"));

  support::Rng rng(20260808);
  // Reusable ~96-byte text payload, mutated cheaply per commit so the
  // journalled bytes differ without re-allocating the buffer.
  std::string blob(96, 'x');
  // Versions created by earlier commits, retired FIFO once enough have
  // accumulated -- the check-in / supersede cycle.
  std::deque<oms::ObjectId> recent;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < commits; ++i) {
    if (!store.begin().ok()) std::abort();
    oms::ObjectId fresh = *store.create("Node");
    oms::ObjectId a = rng.pick(pool);
    oms::ObjectId b = rng.pick(pool);
    if (!store.set(fresh, "weight", AttrValue(static_cast<std::int64_t>(i))).ok()) std::abort();
    if (!store.set(a, "weight", AttrValue(static_cast<std::int64_t>(i))).ok()) std::abort();
    blob[i % blob.size()] = static_cast<char>('a' + i % 26);
    if (!store.set(fresh, "label", AttrValue(blob)).ok()) std::abort();
    blob[(i * 7) % blob.size()] = static_cast<char>('A' + i % 26);
    if (!store.set(b, "label", AttrValue(blob)).ok()) std::abort();
    (void)store.link("edge", fresh, a);
    if (i % 2 == 0) {
      (void)store.link("edge", a, b);
    } else {
      (void)store.unlink("edge", a, b);
    }
    recent.push_back(fresh);
    if (recent.size() > kPoolSize) {
      if (!store.destroy(recent.front()).ok()) std::abort();
      recent.pop_front();
    }
    if (!store.commit().ok()) std::abort();
  }
  if (mode != Mode::off && !store.flush_wal().ok()) std::abort();
  const auto end = std::chrono::steady_clock::now();

  RunResult out;
  out.wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
  const oms::Store::WalStats stats = store.wal_stats();
  out.wal_bytes = stats.appended_bytes;
  out.flushes = stats.flushes;
  return out;
}

void print_report() {
  benchutil::header("durable OMS: WAL overhead per commit (off / wal)");
  auto& registry = support::telemetry::Registry::global();
  char line[256];
  std::uint64_t wall[2] = {0, 0};
  // Warm up every mode first, then interleave the timed repetitions
  // round-robin across modes: a load spike on a shared box hits both
  // modes instead of skewing one side of the overhead ratio, and the
  // per-mode minimum over 9 reps converges on the quiet-machine cost.
  RunResult best[2];
  for (Mode mode : {Mode::off, Mode::wal}) {
    (void)run_mode(mode, kCommits / 4);  // warmup: page in both paths
  }
  for (int rep = 0; rep < 9; ++rep) {
    for (Mode mode : {Mode::off, Mode::wal}) {
      RunResult r = run_mode(mode, kCommits);
      RunResult& b = best[static_cast<int>(mode)];
      if (b.wall_us == 0 || r.wall_us < b.wall_us) b = r;
    }
  }
  for (Mode mode : {Mode::off, Mode::wal}) {
    const RunResult& b = best[static_cast<int>(mode)];
    wall[static_cast<int>(mode)] = b.wall_us;
    const std::uint64_t ns_per_commit = b.wall_us * 1000 / kCommits;
    std::snprintf(line, sizeof(line),
                  "%-9s  %8llu us  %6llu ns/commit  wal_bytes=%llu flushes=%llu",
                  mode_name(mode), static_cast<unsigned long long>(b.wall_us),
                  static_cast<unsigned long long>(ns_per_commit),
                  static_cast<unsigned long long>(b.wal_bytes),
                  static_cast<unsigned long long>(b.flushes));
    benchutil::row(line);
    std::printf("JFM_WAL mode=%s commits=%zu wall_us=%llu ns_per_commit=%llu "
                "wal_bytes=%llu flushes=%llu\n",
                mode_name(mode), kCommits, static_cast<unsigned long long>(b.wall_us),
                static_cast<unsigned long long>(ns_per_commit),
                static_cast<unsigned long long>(b.wal_bytes),
                static_cast<unsigned long long>(b.flushes));
    registry.gauge(std::string("bench.wal_overhead.") + mode_name(mode) + ".ns_per_commit")
        .set(static_cast<std::int64_t>(ns_per_commit));
  }
  const double base = static_cast<double>(wall[0] == 0 ? 1 : wall[0]);
  const double overhead_wal = (static_cast<double>(wall[1]) - base) / base;
  std::snprintf(line, sizeof(line), "overhead vs off: wal %+.1f%%", overhead_wal * 100.0);
  benchutil::row(line);
  std::printf("JFM_WAL_META commits=%zu overhead_wal=%.4f\n", kCommits, overhead_wal);
}

// -- google-benchmark micro-timings ----------------------------------------

void BM_Commit(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  support::SimClock store_clock, journal_clock;
  vfs::FileSystem journal_fs(&journal_clock);
  oms::Store store(wal_schema(), &store_clock, options_for(mode));
  if (mode != Mode::off && !store.open(journal_fs, vfs::Path().child("oms")).ok()) {
    std::abort();
  }
  std::vector<oms::ObjectId> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(*store.create("Node"));
  support::Rng rng(7);
  std::int64_t n = 0;
  for (auto _ : state) {
    if (!store.begin().ok()) std::abort();
    if (!store.set(rng.pick(pool), "weight", AttrValue(n++)).ok()) std::abort();
    if (!store.commit().ok()) std::abort();
  }
}
BENCHMARK(BM_Commit)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

JFM_BENCH_MAIN(print_report)
