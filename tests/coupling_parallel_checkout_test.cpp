// Parallel checkout under the reader-writer locking scheme
// (docs/concurrency.md). Three angles:
//
//   * raw-layer races: many threads hammer FileSystem::content_hash /
//     read_file / stat on the same nodes while writers mutate disjoint
//     paths -- the vfs rw-lock and the atomic hash memo must hold up
//     under TSan;
//   * the full storm: concurrent export_batch pools vs import_file vs
//     a chaos thread flipping the cache and snapshotting stats;
//   * a determinism guard: export_batch(items, workers=1) and
//     workers=8 over identical fresh environments must produce the
//     same Status vector, the same bytes on disk, the same stats and
//     the same final cache -- parallelism must never change results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "jfm/coupling/transfer.hpp"

namespace jfm::coupling {
namespace {

// ---------------------------------------------------------------------------
// Raw vfs layer: concurrent hash memoization.

TEST(ParallelVfs, ConcurrentContentHashAndReadersRaceFree) {
  support::SimClock clock;
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(vfs::Path().child("d")).ok());
  constexpr int kFiles = 8;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs.write_file(vfs::Path().child("d").child("f" + std::to_string(i)),
                              std::string(512 + i, 'x'))
                    .ok());
  }
  // Readers all race to memoize the same hashes; writers stay on
  // disjoint paths. Every hash answer must equal the single-threaded
  // one -- the memo can be computed twice but never torn.
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < kFiles; ++i) expected.push_back(vfs::fnv1a(std::string(512 + i, 'x')));
  std::atomic<int> mismatches{0};
  auto reader = [&]() {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < kFiles; ++i) {
        vfs::Path f = vfs::Path().child("d").child("f" + std::to_string(i));
        auto h = fs.content_hash(f);
        if (!h.ok() || *h != expected[static_cast<std::size_t>(i)]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        auto data = fs.read_file(f);
        if (!data.ok() || data->size() != 512u + static_cast<std::size_t>(i)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        (void)fs.stat(f);
        (void)fs.tree_size(vfs::Path().child("d"));
      }
    }
  };
  auto writer = [&](int id) {
    for (int round = 0; round < 50; ++round) {
      vfs::Path f = vfs::Path().child("d").child("w" + std::to_string(id));
      (void)fs.write_file(f, "scratch " + std::to_string(round));
      (void)fs.content_hash(f);
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) threads.emplace_back(reader);
  for (int w = 0; w < 2; ++w) threads.emplace_back(writer, w);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // the counters are atomics; the total read volume is exact
  const auto c = fs.counters();
  EXPECT_GE(c.bytes_read, 3u * 50u * kFiles * 512u);
}

// ---------------------------------------------------------------------------
// Engine-level fixture: a hierarchy of design objects with seed DOVs.

class ParallelCheckoutTest : public ::testing::Test {
 protected:
  // One self-contained environment. The determinism guard builds two
  // and requires them byte-identical, so everything here is seeded.
  struct Env {
    support::SimClock clock;
    vfs::FileSystem fs{&clock};
    jcf::JcfFramework jcf{&clock};
    jcf::UserRef user;
    std::vector<jcf::DesignObjectRef> dobjs;
    std::vector<jcf::DovRef> dovs;

    explicit Env(int objects) {
      EXPECT_TRUE(fs.mkdirs(vfs::Path().child("out")).ok());
      user = *jcf.create_user("alice");
      auto team = *jcf.create_team("rtl");
      EXPECT_TRUE(jcf.add_member(team, user).ok());
      auto tool = *jcf.register_tool("t");
      auto made = *jcf.create_viewtype("made");
      auto act = *jcf.create_activity("a", tool, {}, {made});
      auto flow = *jcf.create_flow("f", {act});
      EXPECT_TRUE(jcf.freeze_flow(flow).ok());
      auto project = *jcf.create_project("p", team);
      auto cell = *jcf.create_cell(project, "c", flow, team);
      auto cv = *jcf.create_cell_version(cell, user);
      EXPECT_TRUE(jcf.reserve(cv, user).ok());
      auto variant = *jcf.create_variant(cv, "work", user);
      for (int i = 0; i < objects; ++i) {
        auto vt = *jcf.create_viewtype("view" + std::to_string(i));
        dobjs.push_back(*jcf.create_design_object(variant, "do" + std::to_string(i), vt, user));
        // payload sizes vary so byte totals catch misrouted results
        dovs.push_back(*jcf.create_dov(dobjs.back(),
                                       std::string(200 + 17 * i, static_cast<char>('a' + i % 26)),
                                       user));
      }
    }
  };

  static std::vector<ExportRequest> requests(const Env& env, const std::string& prefix) {
    std::vector<ExportRequest> items;
    for (std::size_t i = 0; i < env.dovs.size(); ++i) {
      items.push_back({env.dovs[i], env.user,
                       vfs::Path().child("out").child(prefix + std::to_string(i))});
    }
    return items;
  }
};

// The full storm, for the TSan lane: reader pools, an importer and a
// chaos thread mixing cache maintenance with stats snapshots.
TEST_F(ParallelCheckoutTest, ExportStormWithImportsAndCacheChaos) {
  constexpr int kObjects = 8;
  Env env(kObjects);
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 64;
  TransferEngine engine(&env.jcf, &env.fs, vfs::Path().child("xfer"), options);

  constexpr int kImports = 24;
  std::vector<vfs::Path> sources;
  for (int i = 0; i < kImports; ++i) {
    vfs::Path src = vfs::Path().child("out").child("src" + std::to_string(i));
    ASSERT_TRUE(env.fs.write_file(src, "imported " + std::to_string(i)).ok());
    sources.push_back(src);
  }

  constexpr int kReaderThreads = 3;
  constexpr int kBatchesPerReader = 10;
  std::atomic<std::uint64_t> ok_exports{0};
  std::atomic<std::uint64_t> failed_exports{0};
  std::atomic<bool> done{false};

  auto reader = [&](int id) {
    for (int round = 0; round < kBatchesPerReader; ++round) {
      auto items = requests(env, "r" + std::to_string(id) + "_");
      auto results = engine.export_batch(items, 4);
      for (const auto& st : results) {
        (st.ok() ? ok_exports : failed_exports).fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto importer = [&]() {
    for (int i = 0; i < kImports; ++i) {
      auto dov = engine.import_file(sources[i], env.dobjs[static_cast<std::size_t>(i) % kObjects],
                                    env.user);
      EXPECT_TRUE(dov.ok()) << "import " << i;
    }
  };
  auto chaos = [&]() {
    std::uint64_t last_exports = 0;
    while (!done.load(std::memory_order_acquire)) {
      engine.clear_cache();
      (void)engine.cache_size();
      const auto s = engine.stats_snapshot();
      // snapshots are monotone: a later one never reports fewer exports
      EXPECT_GE(s.exports, last_exports);
      last_exports = s.exports;
      (void)env.fs.counters();
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaderThreads; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(importer);
  std::thread chaos_thread(chaos);
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  chaos_thread.join();

  const auto stats = engine.stats_snapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kReaderThreads) * kBatchesPerReader * kObjects;
  EXPECT_EQ(ok_exports.load(), expected);
  EXPECT_EQ(failed_exports.load(), 0u);
  EXPECT_EQ(stats.exports, expected);
  EXPECT_EQ(stats.imports, static_cast<std::uint64_t>(kImports));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.exports);

  // Every destination holds exactly one seed payload, untorn. Imports
  // only ever add *new* versions, so each exported DovRef's bytes are
  // immutable for the whole run.
  for (int r = 0; r < kReaderThreads; ++r) {
    for (int i = 0; i < kObjects; ++i) {
      auto content = env.fs.read_file(vfs::Path().child("out").child(
          "r" + std::to_string(r) + "_" + std::to_string(i)));
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(*content,
                std::string(200 + 17 * i, static_cast<char>('a' + i % 26)));
    }
  }
}

// Determinism guard: the worker count is a throughput knob, never a
// semantics knob. workers=1 and workers=8 over identical environments
// must agree on every observable.
TEST_F(ParallelCheckoutTest, WorkerCountDoesNotChangeResults) {
  constexpr int kObjects = 16;
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 256;

  auto run = [&](std::size_t workers) {
    auto env = std::make_unique<Env>(kObjects);
    TransferEngine engine(&env->jcf, &env->fs, vfs::Path().child("xfer"), options);
    auto items = requests(*env, "d");
    // one deterministic failure: a destination under a missing directory
    items.push_back({env->dovs[0], env->user,
                     vfs::Path().child("no_such_dir").child("x")});
    struct Outcome {
      std::vector<support::Status> cold;
      std::vector<support::Status> warm;
      TransferStats stats;
      std::size_t cache_entries;
      std::vector<std::string> files;
    } out;
    out.cold = engine.export_batch(items, workers);
    out.warm = engine.export_batch(items, workers);  // second pass: cache hits
    out.stats = engine.stats_snapshot();
    out.cache_entries = engine.cache_size();
    for (int i = 0; i < kObjects; ++i) {
      auto content = env->fs.read_file(vfs::Path().child("out").child("d" + std::to_string(i)));
      EXPECT_TRUE(content.ok());
      out.files.push_back(content.ok() ? *content : std::string());
    }
    return out;
  };

  const auto serial = run(1);
  const auto parallel = run(8);

  ASSERT_EQ(serial.cold.size(), parallel.cold.size());
  for (std::size_t i = 0; i < serial.cold.size(); ++i) {
    EXPECT_EQ(serial.cold[i].ok(), parallel.cold[i].ok()) << "cold item " << i;
    EXPECT_EQ(serial.cold[i].code(), parallel.cold[i].code()) << "cold item " << i;
    EXPECT_EQ(serial.warm[i].ok(), parallel.warm[i].ok()) << "warm item " << i;
  }
  // the one bad destination failed in both runs
  EXPECT_FALSE(serial.cold.back().ok());
  EXPECT_FALSE(parallel.cold.back().ok());

  EXPECT_EQ(serial.files, parallel.files);
  EXPECT_EQ(serial.cache_entries, parallel.cache_entries);
  EXPECT_EQ(serial.stats.exports, parallel.stats.exports);
  EXPECT_EQ(serial.stats.bytes_exported, parallel.stats.bytes_exported);
  EXPECT_EQ(serial.stats.staging_copies, parallel.stats.staging_copies);
  EXPECT_EQ(serial.stats.cache_hits, parallel.stats.cache_hits);
  EXPECT_EQ(serial.stats.cache_misses, parallel.stats.cache_misses);
  EXPECT_EQ(serial.stats.bytes_saved, parallel.stats.bytes_saved);
  // and the warm pass hit for every good destination in both runs
  EXPECT_EQ(serial.stats.cache_hits, static_cast<std::uint64_t>(kObjects));
}

// Zero-rehash warm exports: once a destination is materialized, a
// repeat export of the same DOVs must answer entirely from hash memos
// -- zero payload bytes read, zero payload bytes hashed, at either end
// of the pipe (vfs counters AND the jcf logical read accounting).
TEST_F(ParallelCheckoutTest, WarmExportBatchReadsAndHashesZeroPayloadBytes) {
  constexpr int kObjects = 12;
  Env env(kObjects);
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  TransferEngine engine(&env.jcf, &env.fs, vfs::Path().child("xfer"), options);
  auto items = requests(env, "z");
  for (const auto& st : engine.export_batch(items, 1)) ASSERT_TRUE(st.ok());

  const auto fs_before = env.fs.counters();
  const auto ws_before = env.jcf.workspace_stats();
  auto warm = engine.export_batch(items, 1);
  for (const auto& st : warm) EXPECT_TRUE(st.ok());
  const auto fs_after = env.fs.counters();
  const auto ws_after = env.jcf.workspace_stats();

  EXPECT_EQ(fs_after.hash_bytes, fs_before.hash_bytes);
  EXPECT_EQ(fs_after.bytes_read, fs_before.bytes_read);
  EXPECT_EQ(ws_after.dov_read_bytes_logical, ws_before.dov_read_bytes_logical);
  // ... while the exports still count as exports, with real byte totals
  const auto stats = engine.stats_snapshot();
  EXPECT_EQ(stats.exports, 2u * kObjects);
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kObjects));
}

// cache_probe leaves the fs hash memo behind: after an out-of-band
// overwrite invalidates it, the FIRST probe re-hashes the destination
// once and the SECOND probe of the same path is O(1) -- no new hashed
// bytes.
TEST_F(ParallelCheckoutTest, CacheProbeMemoizesSoSecondProbeIsFree) {
  Env env(1);
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  TransferEngine engine(&env.jcf, &env.fs, vfs::Path().child("xfer"), options);
  auto items = requests(env, "p");
  ASSERT_TRUE(engine.export_batch(items, 1)[0].ok());

  // Out-of-band rewrite with the SAME bytes: contents unchanged, but
  // write_file cannot know that, so the node's hash memo is dropped.
  auto bytes = env.fs.read_file(items[0].dst);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(env.fs.write_file(items[0].dst, *bytes).ok());

  const auto before = env.fs.counters();
  ASSERT_TRUE(engine.export_dov(items[0].dov, env.user, items[0].dst).ok());
  const auto mid = env.fs.counters();
  // probe 1 verified by hashing the destination payload exactly once
  EXPECT_EQ(mid.hash_bytes - before.hash_bytes, bytes->size());

  ASSERT_TRUE(engine.export_dov(items[0].dov, env.user, items[0].dst).ok());
  const auto after = env.fs.counters();
  // probe 2 rides the memo probe 1 installed: zero new hashed bytes
  EXPECT_EQ(after.hash_bytes, mid.hash_bytes);
  EXPECT_EQ(engine.stats_snapshot().cache_hits, 2u);
}

}  // namespace
}  // namespace jfm::coupling
