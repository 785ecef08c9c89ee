// The encapsulation data path (paper s2.1/s3.6): OMS <-> file system
// transfers, staging copies, byte accounting, and the direct-access
// ablation.

#include <gtest/gtest.h>

#include "jfm/coupling/transfer.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;

/// Default options with staging through the transfer directory on or off.
TransferOptions staging(bool copy_through_filesystem) {
  TransferOptions options;
  options.copy_through_filesystem = copy_through_filesystem;
  return options;
}

class TransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(vfs::Path().child("out")).ok());
    user = *jcf.create_user("alice");
    team = *jcf.create_team("rtl");
    ASSERT_TRUE(jcf.add_member(team, user).ok());
    auto tool = *jcf.register_tool("t");
    vt = *jcf.create_viewtype("schematic");
    auto act = *jcf.create_activity("a", tool, {}, {vt});
    auto flow = *jcf.create_flow("f", {act});
    ASSERT_TRUE(jcf.freeze_flow(flow).ok());
    auto project = *jcf.create_project("p", team);
    auto cell = *jcf.create_cell(project, "c", flow, team);
    cv = *jcf.create_cell_version(cell, user);
    ASSERT_TRUE(jcf.reserve(cv, user).ok());
    variant = *jcf.create_variant(cv, "work", user);
    dobj = *jcf.create_design_object(variant, "schematic", vt, user);
  }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  jcf::JcfFramework jcf{&clock};
  jcf::UserRef user;
  jcf::TeamRef team;
  jcf::ViewTypeRef vt;
  jcf::CellVersionRef cv;
  jcf::VariantRef variant;
  jcf::DesignObjectRef dobj;
};

TEST_F(TransferTest, ExportMaterializesDovContent) {
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), staging(true));
  auto dov = *jcf.create_dov(dobj, std::string(256, 'd'), user);
  auto dst = vfs::Path().child("out").child("data");
  ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  EXPECT_EQ(*fs.read_file(dst), std::string(256, 'd'));
  EXPECT_EQ(engine.stats_snapshot().exports, 1u);
  EXPECT_EQ(engine.stats_snapshot().bytes_exported, 256u);
  EXPECT_EQ(engine.stats_snapshot().staging_copies, 1u);
}

TEST_F(TransferTest, ImportCreatesNewDov) {
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), staging(true));
  auto src = vfs::Path().child("out").child("src");
  ASSERT_TRUE(fs.write_file(src, "tool output").ok());
  auto dov = engine.import_file(src, dobj, user);
  ASSERT_TRUE(dov.ok());
  EXPECT_EQ(*jcf.dov_data(*dov, user), "tool output");
  EXPECT_EQ(*jcf.dov_number(*dov), 1);
  EXPECT_EQ(engine.stats_snapshot().imports, 1u);
  EXPECT_EQ(engine.stats_snapshot().bytes_imported, 11u);
}

TEST_F(TransferTest, StagingDoublesFileSystemTraffic) {
  const std::string payload(10'000, 'p');
  auto dov = *jcf.create_dov(dobj, payload, user);

  // copy-through mode: payload crosses the fs twice on export
  TransferEngine staged(&jcf, &fs, vfs::Path().child("xfer1"), staging(true));
  fs.reset_counters();
  ASSERT_TRUE(staged.export_dov(dov, user, vfs::Path().child("out").child("a")).ok());
  const auto with_staging = fs.counters().bytes_written;

  TransferEngine direct(&jcf, &fs, vfs::Path().child("xfer2"), staging(false));
  fs.reset_counters();
  ASSERT_TRUE(direct.export_dov(dov, user, vfs::Path().child("out").child("b")).ok());
  const auto without_staging = fs.counters().bytes_written;

  EXPECT_EQ(with_staging, 2 * without_staging);
  EXPECT_EQ(direct.stats_snapshot().staging_copies, 0u);
  EXPECT_FALSE(direct.copies_through_filesystem());
}

TEST_F(TransferTest, WorkspaceRulesApplyToTransfers) {
  auto dov = *jcf.create_dov(dobj, "private", user);
  auto stranger = *jcf.create_user("eve");
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), staging(true));
  // unpublished data cannot be exported by another user
  auto st = engine.export_dov(dov, stranger, vfs::Path().child("out").child("x"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::permission_denied);
  // imports need the workspace
  auto src = vfs::Path().child("out").child("src");
  ASSERT_TRUE(fs.write_file(src, "x").ok());
  auto denied = engine.import_file(src, dobj, stranger);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, Errc::permission_denied);
}

TEST_F(TransferTest, MissingSourceFileReported) {
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), staging(true));
  auto missing = engine.import_file(vfs::Path().child("out").child("ghost"), dobj, user);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Errc::not_found);
}

// ---- content-addressed transfer cache --------------------------------------

TEST_F(TransferTest, WarmExportOfUnchangedDovMovesZeroBytes) {
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  const std::string payload(4096, 'w');
  auto dov = *jcf.create_dov(dobj, payload, user);
  auto dst = vfs::Path().child("out").child("cached");

  // Cold export: byte counts match the uncached copy-through path.
  fs.reset_counters();
  ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  EXPECT_EQ(fs.counters().bytes_copied, payload.size());
  EXPECT_EQ(fs.counters().bytes_written, 2 * payload.size());
  EXPECT_EQ(engine.stats_snapshot().staging_copies, 1u);
  EXPECT_EQ(engine.stats_snapshot().cache_misses, 1u);

  // Warm export: zero staging copies, zero bytes copied or written.
  fs.reset_counters();
  ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  EXPECT_EQ(fs.counters().bytes_copied, 0u);
  EXPECT_EQ(fs.counters().bytes_written, 0u);
  EXPECT_EQ(engine.stats_snapshot().staging_copies, 1u);  // unchanged
  EXPECT_EQ(engine.stats_snapshot().cache_hits, 1u);
  EXPECT_EQ(engine.stats_snapshot().bytes_saved, payload.size());
  EXPECT_GE(fs.counters().hash_ops, 1u);  // verification is a hash, not a copy
  EXPECT_EQ(*fs.read_file(dst), payload);
}

TEST_F(TransferTest, ImportInvalidatesCachedExport) {
  TransferOptions options;
  options.content_addressed_cache = true;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  auto v1 = *jcf.create_dov(dobj, "version one", user);
  auto dst = vfs::Path().child("out").child("inv");
  ASSERT_TRUE(engine.export_dov(v1, user, dst).ok());
  EXPECT_EQ(engine.cache_size(), 1u);

  // A new version of the same design object invalidates the entry,
  // through the JcfFramework version-change hook.
  auto src = vfs::Path().child("out").child("newsrc");
  ASSERT_TRUE(fs.write_file(src, "version two").ok());
  auto v2 = engine.import_file(src, dobj, user);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_GE(engine.stats_snapshot().cache_invalidations, 1u);

  // The next export of the latest version delivers the imported bytes.
  ASSERT_TRUE(engine.export_dov(*v2, user, dst).ok());
  EXPECT_EQ(*fs.read_file(dst), "version two");
}

TEST_F(TransferTest, DirectCreateDovAlsoInvalidates) {
  TransferOptions options;
  options.content_addressed_cache = true;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  auto v1 = *jcf.create_dov(dobj, "aaa", user);
  ASSERT_TRUE(engine.export_dov(v1, user, vfs::Path().child("out").child("d")).ok());
  EXPECT_EQ(engine.cache_size(), 1u);
  // bypass the engine: the hook still fires
  (void)*jcf.create_dov(dobj, "bbb", user);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST_F(TransferTest, TamperedDestinationIsDetectedAndRecopied) {
  TransferOptions options;
  options.content_addressed_cache = true;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  auto dov = *jcf.create_dov(dobj, "pristine bytes", user);
  auto dst = vfs::Path().child("out").child("tamper");
  ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  // Somebody scribbles over the materialized file...
  ASSERT_TRUE(fs.write_file(dst, "scribble").ok());
  // ...so the next export must NOT trust the cache entry.
  ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  EXPECT_EQ(*fs.read_file(dst), "pristine bytes");
  EXPECT_EQ(engine.stats_snapshot().cache_hits, 0u);
  EXPECT_EQ(engine.stats_snapshot().cache_misses, 2u);
}

TEST_F(TransferTest, CacheEvictionIsBounded) {
  TransferOptions options;
  options.content_addressed_cache = true;
  options.cache_capacity = 2;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  auto dov = *jcf.create_dov(dobj, "evictme", user);
  for (int i = 0; i < 5; ++i) {
    auto dst = vfs::Path().child("out").child("e" + std::to_string(i));
    ASSERT_TRUE(engine.export_dov(dov, user, dst).ok());
  }
  EXPECT_LE(engine.cache_size(), 2u);
  EXPECT_EQ(engine.stats_snapshot().cache_evictions, 3u);
}

TEST_F(TransferTest, StatsAgreeAcrossCopyThroughDirectAndCachedModes) {
  // One fixed workload, three engine modes: logical transfer counters
  // must agree; only the physical movement differs.
  auto v1 = *jcf.create_dov(dobj, std::string(1000, 'x'), user);
  auto v2 = *jcf.create_dov(dobj, std::string(2000, 'y'), user);
  auto src = vfs::Path().child("out").child("wl_src");
  ASSERT_TRUE(fs.write_file(src, std::string(500, 'z')).ok());

  struct ModeResult {
    TransferStats stats;
    vfs::IoCounters io;
  };
  auto run_workload = [&](const std::string& tag, TransferOptions options) {
    TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer_" + tag), options);
    auto base = vfs::Path().child("out");
    fs.reset_counters();
    EXPECT_TRUE(engine.export_dov(v1, user, base.child(tag + "_a")).ok());
    EXPECT_TRUE(engine.export_dov(v2, user, base.child(tag + "_b")).ok());
    EXPECT_TRUE(engine.export_dov(v2, user, base.child(tag + "_b")).ok());  // repeat
    EXPECT_TRUE(engine.import_file(src, dobj, user).ok());
    return ModeResult{engine.stats_snapshot(), fs.counters()};
  };

  auto staged = run_workload("staged", {.copy_through_filesystem = true});
  auto direct = run_workload("direct", {.copy_through_filesystem = false});
  auto cached = run_workload(
      "cached", {.copy_through_filesystem = true, .content_addressed_cache = true});

  // Logical accounting is mode-independent.
  for (const auto* mode : {&staged, &direct, &cached}) {
    EXPECT_EQ(mode->stats.exports, 3u);
    EXPECT_EQ(mode->stats.imports, 1u);
    EXPECT_EQ(mode->stats.bytes_exported, 1000u + 2000u + 2000u);
    EXPECT_EQ(mode->stats.bytes_imported, 500u);
  }
  // Physical movement: staged pays 4 staging copies (3 exports + 1
  // import); direct none; cached skips exactly the repeated export.
  EXPECT_EQ(staged.stats.staging_copies, 4u);
  EXPECT_EQ(direct.stats.staging_copies, 0u);
  EXPECT_EQ(cached.stats.staging_copies, 3u);
  EXPECT_EQ(cached.stats.cache_hits, 1u);
  EXPECT_EQ(cached.stats.bytes_saved, 2000u);
  // IoCounters tell the same story: each staged export/import copies
  // the payload once (stage -> dst or src -> stage).
  EXPECT_EQ(staged.io.bytes_copied, 1000u + 2000u + 2000u + 500u);
  EXPECT_EQ(direct.io.bytes_copied, 0u);
  EXPECT_EQ(cached.io.bytes_copied, 1000u + 2000u + 500u);
}

// ---- staging hygiene -------------------------------------------------------

TEST_F(TransferTest, StagingFilesRemovedAfterSuccessAndFailure) {
  const auto xfer = vfs::Path().child("xfer");
  TransferEngine engine(&jcf, &fs, xfer, staging(true));
  auto dov = *jcf.create_dov(dobj, "payload", user);

  // success paths
  ASSERT_TRUE(engine.export_dov(dov, user, vfs::Path().child("out").child("ok")).ok());
  auto src = vfs::Path().child("out").child("src");
  ASSERT_TRUE(fs.write_file(src, "import me").ok());
  ASSERT_TRUE(engine.import_file(src, dobj, user).ok());
  EXPECT_TRUE(fs.list(xfer)->empty());

  // failed export: destination parent does not exist
  auto bad_dst = vfs::Path().child("nodir").child("x");
  ASSERT_FALSE(engine.export_dov(dov, user, bad_dst).ok());
  EXPECT_TRUE(fs.list(xfer)->empty());

  // failed import: unreadable source
  ASSERT_FALSE(engine.import_file(vfs::Path().child("out").child("ghost"), dobj, user).ok());
  EXPECT_TRUE(fs.list(xfer)->empty());

  // failed import: workspace denies the write AFTER the staging copy
  auto stranger = *jcf.create_user("mallory");
  ASSERT_FALSE(engine.import_file(src, dobj, stranger).ok());
  EXPECT_TRUE(fs.list(xfer)->empty());

  // cached mode cleans up too
  TransferOptions options;
  options.content_addressed_cache = true;
  const auto xfer2 = vfs::Path().child("xfer_cached");
  TransferEngine cached(&jcf, &fs, xfer2, options);
  ASSERT_TRUE(cached.export_dov(dov, user, vfs::Path().child("out").child("ok2")).ok());
  ASSERT_FALSE(cached.export_dov(dov, user, bad_dst).ok());
  EXPECT_TRUE(fs.list(xfer2)->empty());
}

// ---- batched export --------------------------------------------------------

TEST_F(TransferTest, ExportBatchDeliversPerItemResults) {
  TransferOptions options;
  options.content_addressed_cache = true;
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);
  auto v1 = *jcf.create_dov(dobj, "batch payload", user);
  std::vector<ExportRequest> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back({v1, user, vfs::Path().child("out").child("b" + std::to_string(i))});
  }
  items.push_back({v1, user, vfs::Path().child("nodir").child("x")});  // fails
  auto results = engine.export_batch(items, 3);
  ASSERT_EQ(results.size(), items.size());
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(*fs.read_file(items[i].dst), "batch payload");
  }
  EXPECT_FALSE(results[6].ok());
  EXPECT_EQ(results[6].error().code, Errc::not_found);
  EXPECT_EQ(engine.stats_snapshot().exports, 7u);
}

TEST_F(TransferTest, RoundTripPreservesBytes) {
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), staging(true));
  std::string payload;
  for (int i = 0; i < 1000; ++i) payload.push_back(static_cast<char>('a' + i % 26));
  auto d1 = *jcf.create_dov(dobj, payload, user);
  auto mid = vfs::Path().child("out").child("mid");
  ASSERT_TRUE(engine.export_dov(d1, user, mid).ok());
  auto d2 = engine.import_file(mid, dobj, user);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*jcf.dov_data(*d2, user), payload);
}

}  // namespace
}  // namespace jfm::coupling
