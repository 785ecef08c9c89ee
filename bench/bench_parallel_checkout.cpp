// Parallel checkout scaling: does export_batch actually get faster
// with more workers now that the transfer path takes reader locks end
// to end (engine -> store -> file system)?
//
// The workload is a 64-DOV hierarchy (16 cells x 4 views) with ~128 KiB
// schematic payloads, checked out via TransferEngine::export_batch at
// workers in {1, 2, 4, 8}:
//   * cold  -- fresh engine + empty destinations: every byte moves;
//   * warm  -- same engine, same destinations: the content-addressed
//              cache answers with hash probes, no payloads move.
//
// Speedups are relative to workers=1 of the same mode. On a single-core
// host real threads cannot beat 1.0x (scripts/run_benches.py gates
// scaling core-awarely); the shape to reproduce on multi-core hardware
// is cold-cache scaling that tracks the core count until the short
// exclusive publish sections in the vfs dominate. The engine's
// serialization cost is visible directly in the
// coupling.transfer.lock_wait.us histogram in the JFM_METRICS blob.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "jfm/coupling/hybrid.hpp"
#include "jfm/coupling/transfer.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/workload/generators.hpp"

namespace {

using namespace jfm;

constexpr int kCells = 16;
constexpr int kViews = 4;
constexpr int kDovs = kCells * kViews;
constexpr std::size_t kPayloadBytes = 128 * 1024;
constexpr int kReps = 3;

/// One complete JCF world with kDovs seeded design object versions.
/// `cow_on` selects the file system's extent mode (docs/vfs-cow.md);
/// false is the physical-duplication ablation.
struct CheckoutEnv {
  support::SimClock clock;
  vfs::FileSystem fs;
  jcf::JcfFramework jcf{&clock};
  jcf::UserRef user;
  std::vector<jcf::DovRef> dovs;
  std::uint64_t payload_bytes = 0;

  explicit CheckoutEnv(bool cow_on = true)
      : fs(&clock, vfs::FsOptions{.cow_extents = cow_on}) {
    if (!fs.mkdirs(vfs::Path().child("out")).ok()) std::abort();
    user = *jcf.create_user("alice");
    auto team = *jcf.create_team("rtl");
    if (!jcf.add_member(team, user).ok()) std::abort();
    auto tool = *jcf.register_tool("editor");
    auto made = *jcf.create_viewtype("made");
    auto act = *jcf.create_activity("edit", tool, {}, {made});
    auto flow = *jcf.create_flow("f", {act});
    if (!jcf.freeze_flow(flow).ok()) std::abort();
    auto project = *jcf.create_project("p", team);
    std::vector<jcf::ViewTypeRef> views;
    for (int v = 0; v < kViews; ++v) {
      views.push_back(*jcf.create_viewtype("view" + std::to_string(v)));
    }
    support::Rng rng(42);
    for (int c = 0; c < kCells; ++c) {
      auto cell = *jcf.create_cell(project, "cell" + std::to_string(c), flow, team);
      auto cv = *jcf.create_cell_version(cell, user);
      if (!jcf.reserve(cv, user).ok()) std::abort();
      auto variant = *jcf.create_variant(cv, "work", user);
      for (int v = 0; v < kViews; ++v) {
        auto dobj = *jcf.create_design_object(
            variant, "c" + std::to_string(c) + "v" + std::to_string(v),
            views[static_cast<std::size_t>(v)], user);
        std::string payload = workload::schematic_payload_of_size(rng, kPayloadBytes);
        payload_bytes += payload.size();
        dovs.push_back(*jcf.create_dov(dobj, std::move(payload), user));
      }
    }
  }

  std::vector<coupling::ExportRequest> requests(const std::string& tag) const {
    std::vector<coupling::ExportRequest> items;
    for (std::size_t i = 0; i < dovs.size(); ++i) {
      items.push_back({dovs[i], user,
                       vfs::Path().child("out").child(tag + "_" + std::to_string(i))});
    }
    return items;
  }
};

std::uint64_t time_batch_us(coupling::TransferEngine& engine,
                            const std::vector<coupling::ExportRequest>& items,
                            std::size_t workers) {
  const auto start = std::chrono::steady_clock::now();
  auto results = engine.export_batch(items, workers);
  const auto end = std::chrono::steady_clock::now();
  for (const auto& st : results) {
    if (!st.ok()) std::abort();  // the bench workload must be all-green
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
}

struct Sample {
  std::size_t workers = 0;
  std::uint64_t cold_us = 0;
  std::uint64_t warm_us = 0;
};

/// min-of-kReps timing for one worker count. Each rep gets a fresh
/// engine and a fresh destination tag, so cold really is cold.
Sample measure(CheckoutEnv& env, std::size_t workers, int* tag_counter) {
  Sample s;
  s.workers = workers;
  s.cold_us = ~0ull;
  s.warm_us = ~0ull;
  coupling::TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 2 * kDovs;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string tag =
        "w" + std::to_string(workers) + "_" + std::to_string((*tag_counter)++);
    coupling::TransferEngine engine(&env.jcf, &env.fs,
                                    vfs::Path().child("xfer_" + tag), options);
    auto items = env.requests(tag);
    s.cold_us = std::min(s.cold_us, time_batch_us(engine, items, workers));
    // warm: same engine, same destinations -> pure cache-hit traffic
    s.warm_us = std::min(s.warm_us, time_batch_us(engine, items, workers));
  }
  return s;
}

void print_report() {
  benchutil::header("parallel checkout: export_batch scaling (reader-writer locks)");
  CheckoutEnv env;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  benchutil::row("hierarchy: " + std::to_string(kCells) + " cells x " + std::to_string(kViews) +
                 " views = " + std::to_string(kDovs) + " DOVs, " +
                 std::to_string(env.payload_bytes / 1024) + " KiB total, cores=" +
                 std::to_string(cores));

  int tag_counter = 0;
  std::vector<Sample> samples;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    samples.push_back(measure(env, workers, &tag_counter));
  }

  auto mbps = [&](std::uint64_t us) {
    return us == 0 ? 0.0 : static_cast<double>(env.payload_bytes) / static_cast<double>(us);
  };
  auto& registry = support::telemetry::Registry::global();
  char line[256];
  for (const auto& s : samples) {
    const double cold_speedup =
        static_cast<double>(samples.front().cold_us) / static_cast<double>(s.cold_us);
    const double warm_speedup =
        static_cast<double>(samples.front().warm_us) / static_cast<double>(s.warm_us);
    std::snprintf(line, sizeof(line),
                  "workers=%zu  cold %8llu us (%6.1f MB/s, %4.2fx)   warm %8llu us (%4.2fx)",
                  s.workers, static_cast<unsigned long long>(s.cold_us), mbps(s.cold_us),
                  cold_speedup, static_cast<unsigned long long>(s.warm_us), warm_speedup);
    benchutil::row(line);
    // machine-readable: one line per (workers, mode) + registry gauges,
    // both consumed by scripts/run_benches.py
    std::printf("JFM_PARALLEL_CHECKOUT workers=%zu mode=cold wall_us=%llu bytes=%llu speedup=%.3f\n",
                s.workers, static_cast<unsigned long long>(s.cold_us),
                static_cast<unsigned long long>(env.payload_bytes), cold_speedup);
    std::printf("JFM_PARALLEL_CHECKOUT workers=%zu mode=warm wall_us=%llu bytes=%llu speedup=%.3f\n",
                s.workers, static_cast<unsigned long long>(s.warm_us),
                static_cast<unsigned long long>(env.payload_bytes), warm_speedup);
    const std::string prefix = "bench.parallel_checkout.w" + std::to_string(s.workers);
    registry.gauge(prefix + ".cold.us").set(static_cast<std::int64_t>(s.cold_us));
    registry.gauge(prefix + ".warm.us").set(static_cast<std::int64_t>(s.warm_us));
  }

  // COW-off ablation (docs/vfs-cow.md): the same checkout with the file
  // system physically duplicating every copy. Bit-identical results;
  // the delta is the payload memcpy the COW path never pays.
  CheckoutEnv nocow_env(/*cow_on=*/false);
  int nocow_tags = 0;
  for (std::size_t workers : {1u, 8u}) {
    const Sample s = measure(nocow_env, workers, &nocow_tags);
    std::snprintf(line, sizeof(line),
                  "workers=%zu cow-off ablation: cold %8llu us   warm %8llu us",
                  s.workers, static_cast<unsigned long long>(s.cold_us),
                  static_cast<unsigned long long>(s.warm_us));
    benchutil::row(line);
    std::printf(
        "JFM_PARALLEL_CHECKOUT workers=%zu mode=cold_nocow wall_us=%llu bytes=%llu speedup=1.0\n",
        s.workers, static_cast<unsigned long long>(s.cold_us),
        static_cast<unsigned long long>(nocow_env.payload_bytes));
    std::printf(
        "JFM_PARALLEL_CHECKOUT workers=%zu mode=warm_nocow wall_us=%llu bytes=%llu speedup=1.0\n",
        s.workers, static_cast<unsigned long long>(s.warm_us),
        static_cast<unsigned long long>(nocow_env.payload_bytes));
    registry.gauge("bench.parallel_checkout.nocow.w" + std::to_string(s.workers) + ".cold.us")
        .set(static_cast<std::int64_t>(s.cold_us));
  }
  const auto cow_io = env.fs.counters();
  const auto nocow_io = nocow_env.fs.counters();
  std::snprintf(line, sizeof(line),
                "physical copy bytes across the whole run: cow %llu vs ablation %llu%s",
                static_cast<unsigned long long>(cow_io.bytes_physical_copied),
                static_cast<unsigned long long>(nocow_io.bytes_physical_copied),
                cow_io.bytes_physical_copied == 0 ? " (cow duplicated nothing)" : " UNEXPECTED");
  benchutil::row(line);
  if (cow_io.bytes_physical_copied != 0) std::abort();
  std::printf("JFM_PARALLEL_CHECKOUT_META cores=%u dovs=%d payload_bytes=%llu\n", cores, kDovs,
              static_cast<unsigned long long>(env.payload_bytes));
  registry.gauge("bench.parallel_checkout.cores").set(static_cast<std::int64_t>(cores));
}

// -- end-to-end checkout_hierarchy: cold vs warm ---------------------------
//
// The zero-rehash claim, measured where users feel it: a repeat
// checkout of an unchanged hierarchy must (a) read and hash ZERO
// payload bytes -- the fingerprint memo chain (oms memo -> dov
// fingerprint -> transfer cache probe -> fs hash memo) answers
// everything -- and (b) beat the cold checkout by >= 2x
// (scripts/run_benches.py --check-warm-speedup gates the hier_cold /
// hier_warm rows below in CI). Property (a) is asserted right here so
// a regression fails the bench itself, not just the gate.

std::vector<coupling::ToolCommand> hierarchy_schematic(int gates) {
  std::vector<coupling::ToolCommand> cmds;
  cmds.push_back({"add-port", {"a", "in"}});
  cmds.push_back({"add-port", {"y", "out"}});
  for (int g = 0; g < gates; ++g) {
    const std::string name = "g" + std::to_string(g);
    cmds.push_back({"add-prim", {name, "NOT"}});
    cmds.push_back({"connect", {"a", name, "a"}});
    cmds.push_back({"connect", {"y", name, "y"}});
  }
  return cmds;
}

void print_hierarchy_report() {
  benchutil::header("checkout_hierarchy: cold vs warm (zero-rehash warm path)");
  constexpr int kHierCells = 12;
  constexpr int kGatesPerCell = 96;
  std::uint64_t cold_us = ~0ull;
  std::uint64_t warm_us = ~0ull;
  std::uint64_t cold_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // A fresh world per rep keeps cold honest: the OMS hash memos are
    // per-store, so reusing a world would hand rep 2 a half-warm start.
    coupling::HybridConfig config;
    config.content_addressed_cache = true;
    coupling::HybridFramework hybrid(config);
    if (!hybrid.bootstrap().ok()) std::abort();
    auto user = *hybrid.add_designer("alice");
    if (!hybrid.create_project("p").ok()) std::abort();
    std::vector<std::string> cells{"top"};
    for (int c = 1; c < kHierCells; ++c) cells.push_back("cell" + std::to_string(c));
    for (const auto& cell : cells) {
      if (!hybrid.create_cell("p", cell, user).ok()) std::abort();
      if (!hybrid.reserve_cell("p", cell, user).ok()) std::abort();
      auto run = hybrid.run_activity("p", cell, "enter_schematic", user,
                                     hierarchy_schematic(kGatesPerCell));
      if (!run.ok()) std::abort();
    }
    for (std::size_t c = 1; c < cells.size(); ++c) {
      if (!hybrid.declare_child("p", "top", cells[c]).ok()) std::abort();
    }

    // checkout_hierarchy_full keeps this section measuring the warm
    // FULL walk; the change-feed delta path has its own section below.
    const vfs::Path dst = vfs::Path().child("out").child("hier");
    const auto xfer_before = hybrid.transfer().stats_snapshot();
    auto t0 = std::chrono::steady_clock::now();
    auto cold = hybrid.checkout_hierarchy_full("p", "top", user, dst, /*workers=*/1);
    auto t1 = std::chrono::steady_clock::now();
    if (!cold.ok() || cold->rolled_back || !cold->failures.empty()) std::abort();
    const auto xfer_cold = hybrid.transfer().stats_snapshot();
    cold_bytes = xfer_cold.bytes_exported - xfer_before.bytes_exported;

    // Warm run: same destinations, nothing changed. Snapshot every
    // payload-byte counter on the read/hash path around it.
    const auto fs_before = hybrid.fs().counters();
    const auto ws_before = hybrid.jcf().workspace_stats();
    auto t2 = std::chrono::steady_clock::now();
    auto warm = hybrid.checkout_hierarchy_full("p", "top", user, dst, /*workers=*/1);
    auto t3 = std::chrono::steady_clock::now();
    if (!warm.ok() || warm->rolled_back || !warm->failures.empty()) std::abort();
    const auto fs_after = hybrid.fs().counters();
    const auto ws_after = hybrid.jcf().workspace_stats();

    const std::uint64_t hash_delta = fs_after.hash_bytes - fs_before.hash_bytes;
    const std::uint64_t read_delta = fs_after.bytes_read - fs_before.bytes_read;
    const std::uint64_t dov_delta =
        ws_after.dov_read_bytes_logical - ws_before.dov_read_bytes_logical;
    if (hash_delta != 0 || read_delta != 0 || dov_delta != 0) {
      std::printf("FAIL: warm checkout touched payload bytes: vfs.hash.bytes=+%llu "
                  "vfs bytes_read=+%llu jcf dov_read_bytes_logical=+%llu\n",
                  static_cast<unsigned long long>(hash_delta),
                  static_cast<unsigned long long>(read_delta),
                  static_cast<unsigned long long>(dov_delta));
      std::abort();
    }

    auto us = [](auto a, auto b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
    };
    cold_us = std::min(cold_us, us(t0, t1));
    warm_us = std::min(warm_us, us(t2, t3));
  }

  char line[256];
  const double speedup = warm_us == 0 ? 0.0
                                      : static_cast<double>(cold_us) /
                                            static_cast<double>(warm_us);
  std::snprintf(line, sizeof(line),
                "hierarchy of %d cells: cold %8llu us   warm %8llu us (%4.2fx, "
                "0 payload bytes read/hashed)",
                kHierCells, static_cast<unsigned long long>(cold_us),
                static_cast<unsigned long long>(warm_us), speedup);
  benchutil::row(line);
  std::printf("JFM_PARALLEL_CHECKOUT workers=1 mode=hier_cold wall_us=%llu bytes=%llu "
              "speedup=1.0\n",
              static_cast<unsigned long long>(cold_us),
              static_cast<unsigned long long>(cold_bytes));
  std::printf("JFM_PARALLEL_CHECKOUT workers=1 mode=hier_warm wall_us=%llu bytes=%llu "
              "speedup=%.3f\n",
              static_cast<unsigned long long>(warm_us),
              static_cast<unsigned long long>(cold_bytes), speedup);
  auto& registry = support::telemetry::Registry::global();
  registry.gauge("bench.parallel_checkout.hier.cold.us")
      .set(static_cast<std::int64_t>(cold_us));
  registry.gauge("bench.parallel_checkout.hier.warm.us")
      .set(static_cast<std::int64_t>(warm_us));
}

// -- incremental checkout: change-feed delta vs full warm walk -------------
//
// The O(changed) claim (docs/incremental-checkout.md): once a workspace
// cursor exists, a repeat sync costs work proportional to the DOVs
// that actually changed, not the hierarchy size. We churn {0, 1, 10}%
// of a large hierarchy, then time the change-feed delta
// (checkout_hierarchy) against the full warm walk
// (checkout_hierarchy_full) over the SAME churn event. The JFM_INCR
// rows feed scripts/run_benches.py --check-incremental-speedup, which
// gates >= 5x at 1% churn in CI.

void print_incremental_report() {
  benchutil::header("incremental checkout: change-feed delta vs full warm walk");
  constexpr int kIncrCells = 96;
  constexpr int kIncrGates = 12;  // small payloads: walk cost must dominate

  coupling::HybridConfig config;
  config.content_addressed_cache = true;
  coupling::HybridFramework hybrid(config);
  if (!hybrid.bootstrap().ok()) std::abort();
  auto user = *hybrid.add_designer("alice");
  if (!hybrid.create_project("p").ok()) std::abort();
  std::vector<std::string> cells{"top"};
  for (int c = 1; c < kIncrCells; ++c) cells.push_back("cell" + std::to_string(c));
  for (const auto& cell : cells) {
    if (!hybrid.create_cell("p", cell, user).ok()) std::abort();
    if (!hybrid.reserve_cell("p", cell, user).ok()) std::abort();
    auto run = hybrid.run_activity("p", cell, "enter_schematic", user,
                                   hierarchy_schematic(kIncrGates));
    if (!run.ok()) std::abort();
  }
  for (std::size_t c = 1; c < cells.size(); ++c) {
    if (!hybrid.declare_child("p", "top", cells[c]).ok()) std::abort();
  }

  // Two destinations -> two independent cursors; both primed by a
  // first full sync so every timed row below is a warm repeat.
  const vfs::Path dst_full = vfs::Path().child("out").child("incr_full");
  const vfs::Path dst_incr = vfs::Path().child("out").child("incr_delta");
  for (const auto& dst : {dst_full, dst_incr}) {
    auto prime = hybrid.checkout_hierarchy_full("p", "top", user, dst, /*workers=*/1);
    if (!prime.ok() || !prime->failures.empty()) std::abort();
  }

  auto us = [](auto a, auto b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
  };
  int edit_seq = 0;
  char line[256];
  double speedup_1pct = 0.0;
  for (int churn_pct : {0, 1, 10}) {
    const int n_changed = churn_pct == 0 ? 0 : std::max(1, kIncrCells * churn_pct / 100);
    std::uint64_t full_us = ~0ull;
    std::uint64_t incr_us = ~0ull;
    std::size_t full_requests = 0;
    std::size_t incr_requests = 0;
    std::size_t incr_skipped = 0;
    std::size_t incr_feed = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      // Fresh edits each rep (rotating cells, unique net names) so
      // every rep is a genuine new churn event, not a cache replay.
      for (int i = 0; i < n_changed; ++i) {
        const auto& cell = cells[static_cast<std::size_t>(
            (rep * n_changed + i) % static_cast<int>(cells.size()))];
        // A new DOV inherits the previous version's content, so the
        // churn edit is a single fresh net, not the whole schematic.
        std::vector<coupling::ToolCommand> edits{
            {"add-net", {"churn" + std::to_string(edit_seq++)}}};
        if (!hybrid.run_activity("p", cell, "enter_schematic", user, edits).ok()) {
          std::abort();
        }
      }
      // Delta first: if the shared content cache biases anything, it
      // biases toward the full walk measured second.
      auto t0 = std::chrono::steady_clock::now();
      auto incr = hybrid.checkout_hierarchy("p", "top", user, dst_incr, /*workers=*/1);
      auto t1 = std::chrono::steady_clock::now();
      if (!incr.ok() || incr->rolled_back || !incr->failures.empty()) std::abort();
      if (!incr->incremental || incr->skipped == 0) std::abort();
      auto t2 = std::chrono::steady_clock::now();
      auto full = hybrid.checkout_hierarchy_full("p", "top", user, dst_full, /*workers=*/1);
      auto t3 = std::chrono::steady_clock::now();
      if (!full.ok() || full->rolled_back || !full->failures.empty()) std::abort();
      if (incr_us > us(t0, t1)) {
        incr_us = us(t0, t1);
        incr_requests = incr->requested;
        incr_skipped = incr->skipped;
        incr_feed = incr->feed_size;
      }
      if (full_us > us(t2, t3)) {
        full_us = us(t2, t3);
        full_requests = full->requested;
      }
    }
    const double speedup = incr_us == 0
                               ? static_cast<double>(full_us)
                               : static_cast<double>(full_us) / static_cast<double>(incr_us);
    if (churn_pct == 1) speedup_1pct = speedup;
    std::snprintf(line, sizeof(line),
                  "churn %2d%% (%2d cell(s)): full %8llu us (%zu req)   delta %8llu us "
                  "(%zu req, %zu skipped, feed %zu, %5.1fx)",
                  churn_pct, n_changed, static_cast<unsigned long long>(full_us),
                  full_requests, static_cast<unsigned long long>(incr_us), incr_requests,
                  incr_skipped, incr_feed, speedup);
    benchutil::row(line);
    std::printf("JFM_INCR churn_pct=%d mode=full wall_us=%llu requests=%zu skipped=0 "
                "feed=0 speedup=1.0\n",
                churn_pct, static_cast<unsigned long long>(full_us), full_requests);
    std::printf("JFM_INCR churn_pct=%d mode=incr wall_us=%llu requests=%zu skipped=%zu "
                "feed=%zu speedup=%.3f\n",
                churn_pct, static_cast<unsigned long long>(incr_us), incr_requests,
                incr_skipped, incr_feed, speedup);
    auto& registry = support::telemetry::Registry::global();
    const std::string prefix = "bench.incremental_checkout.churn" + std::to_string(churn_pct);
    registry.gauge(prefix + ".full.us").set(static_cast<std::int64_t>(full_us));
    registry.gauge(prefix + ".incr.us").set(static_cast<std::int64_t>(incr_us));
  }
  std::printf("JFM_INCR_META cells=%d views=%zu incr_speedup_1pct=%.3f\n", kIncrCells,
              coupling::HybridFramework::standard_views().size(), speedup_1pct);
}

void print_full_report() {
  print_report();
  print_hierarchy_report();
  print_incremental_report();
}

// -- google-benchmark micro-timings ----------------------------------------

void BM_ExportBatchCold(benchmark::State& state) {
  CheckoutEnv env;
  const auto workers = static_cast<std::size_t>(state.range(0));
  coupling::TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 2 * kDovs;
  int tag = 0;
  for (auto _ : state) {
    coupling::TransferEngine engine(&env.jcf, &env.fs,
                                    vfs::Path().child("bm_xfer" + std::to_string(tag)), options);
    auto items = env.requests("bm" + std::to_string(tag++));
    auto results = engine.export_batch(items, workers);
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(env.payload_bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExportBatchCold)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ExportBatchWarm(benchmark::State& state) {
  CheckoutEnv env;
  const auto workers = static_cast<std::size_t>(state.range(0));
  coupling::TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 2 * kDovs;
  coupling::TransferEngine engine(&env.jcf, &env.fs, vfs::Path().child("bm_warm_xfer"), options);
  auto items = env.requests("bmwarm");
  (void)engine.export_batch(items, workers);  // prime the cache
  for (auto _ : state) {
    auto results = engine.export_batch(items, workers);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ExportBatchWarm)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

JFM_BENCH_MAIN(print_full_report)
