// Copy-on-write extent semantics (docs/vfs-cow.md): sharing on copy,
// break-on-mutation, logical-vs-physical accounting, pinned read
// extents, quota invariance across modes, and a TSan storm of
// concurrent copies and writes over shared extents.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "jfm/vfs/filesystem.hpp"

namespace jfm::vfs {
namespace {

using support::Errc;

Path p(const std::string& text) {
  auto parsed = Path::parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return *parsed;
}

std::string blob(std::size_t n, char fill) { return std::string(n, fill); }

class CowTest : public ::testing::Test {
 protected:
  support::SimClock clock;
};

TEST_F(CowTest, CopySharesExtentAndCountsLogicalBytes) {
  FileSystem fs(&clock);
  const std::string data = blob(4096, 'a');
  ASSERT_TRUE(fs.write_file(p("/a"), data).ok());
  fs.reset_counters();

  ASSERT_TRUE(fs.copy_file(p("/a"), p("/b")).ok());

  auto io = fs.counters();
  EXPECT_EQ(io.bytes_copied, data.size());       // logical: paper cost model
  EXPECT_EQ(io.bytes_physical_copied, 0u);       // physical: a refcount bump
  EXPECT_EQ(io.files_copied, 1u);

  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.shared_copies, 1u);
  EXPECT_EQ(cow.bytes_saved, data.size());
  EXPECT_EQ(cow.broken_extents, 0u);
  EXPECT_EQ(cow.live_files, 2u);
  EXPECT_EQ(cow.live_extents, 1u);
  EXPECT_EQ(cow.live_shared_extents, 1u);
  EXPECT_EQ(cow.logical_bytes, 2 * data.size());
  EXPECT_EQ(cow.physical_bytes, data.size());

  // Both files read back the same payload.
  auto a = fs.read_file(p("/a"));
  auto b = fs.read_file(p("/b"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, data);
}

TEST_F(CowTest, AblationDuplicatesEveryCopy) {
  FileSystem fs(&clock, FsOptions{.cow_extents = false});
  const std::string data = blob(2048, 'x');
  ASSERT_TRUE(fs.write_file(p("/a"), data).ok());
  fs.reset_counters();

  ASSERT_TRUE(fs.copy_file(p("/a"), p("/b")).ok());

  auto io = fs.counters();
  EXPECT_EQ(io.bytes_copied, data.size());           // logical: identical to COW
  EXPECT_EQ(io.bytes_physical_copied, data.size());  // physical: a real memcpy

  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.shared_copies, 0u);
  EXPECT_EQ(cow.bytes_saved, 0u);
  EXPECT_EQ(cow.broken_extents, 0u);
  EXPECT_EQ(cow.live_extents, 2u);
  EXPECT_EQ(cow.live_shared_extents, 0u);
  EXPECT_EQ(cow.physical_bytes, 2 * data.size());

  auto b = fs.read_file(p("/b"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, data);
}

TEST_F(CowTest, OverwriteBreaksSharingWithoutTouchingTheOtherOwner) {
  FileSystem fs(&clock);
  ASSERT_TRUE(fs.write_file(p("/a"), blob(1024, 'a')).ok());
  ASSERT_TRUE(fs.copy_file(p("/a"), p("/b")).ok());

  ASSERT_TRUE(fs.write_file(p("/b"), blob(8, 'b')).ok());

  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.broken_extents, 1u);
  EXPECT_EQ(cow.live_shared_extents, 0u);
  EXPECT_EQ(cow.live_extents, 2u);

  auto a = fs.read_file(p("/a"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, blob(1024, 'a'));  // the co-owner never observes the write
  auto b = fs.read_file(p("/b"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, blob(8, 'b'));
}

TEST_F(CowTest, AppendClonesACoOwnedExtent) {
  FileSystem fs(&clock);
  const std::string data = blob(512, 'z');
  ASSERT_TRUE(fs.write_file(p("/a"), data).ok());
  ASSERT_TRUE(fs.copy_file(p("/a"), p("/b")).ok());

  ASSERT_TRUE(fs.append_file(p("/b"), "tail").ok());

  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.broken_extents, 1u);
  EXPECT_EQ(cow.bytes_cloned, data.size());  // the read-modify-replace clone

  auto a = fs.read_file(p("/a"));
  auto b = fs.read_file(p("/b"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, data);
  EXPECT_EQ(*b, data + "tail");
}

TEST_F(CowTest, ReadExtentSurvivesOverwriteAndRemoval) {
  FileSystem fs(&clock);
  ASSERT_TRUE(fs.write_file(p("/a"), "original").ok());

  auto ext = fs.read_extent(p("/a"));
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(**ext, "original");

  // The pinned extent is bit-stable through any later mutation: this
  // is the guarantee the checkout journal's pre-images rely on.
  ASSERT_TRUE(fs.write_file(p("/a"), "replaced").ok());
  ASSERT_TRUE(fs.remove(p("/a")).ok());
  EXPECT_EQ(**ext, "original");
}

TEST_F(CowTest, ReadExtentPinDoesNotCountAsCowBreakInEitherMode) {
  for (bool cow_on : {true, false}) {
    FileSystem fs(&clock, FsOptions{.cow_extents = cow_on});
    ASSERT_TRUE(fs.write_file(p("/a"), "v1").ok());
    auto pin = fs.read_extent(p("/a"));
    ASSERT_TRUE(pin.ok());
    ASSERT_TRUE(fs.write_file(p("/a"), "v2").ok());
    auto cow = fs.cow_snapshot();
    if (cow_on) {
      // An external pin is a co-owner, so replacing the buffer counts.
      EXPECT_EQ(cow.broken_extents, 1u);
    } else {
      // The ablation's counters stay flat no matter what.
      EXPECT_EQ(cow.broken_extents, 0u);
      EXPECT_EQ(cow.shared_copies, 0u);
    }
  }
}

TEST_F(CowTest, WriteExtentSharesTheCallersBuffer) {
  FileSystem fs(&clock);
  auto ext = make_extent(blob(256, 'q'));
  fs.reset_counters();
  ASSERT_TRUE(fs.write_extent(p("/a"), ext).ok());
  ASSERT_TRUE(fs.write_extent(p("/b"), ext).ok());

  auto io = fs.counters();
  EXPECT_EQ(io.bytes_written, 512u);          // logical writes count
  EXPECT_EQ(io.bytes_physical_written, 0u);   // but nothing was duplicated
  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.live_extents, 1u);
  EXPECT_EQ(cow.live_shared_extents, 1u);
}

TEST_F(CowTest, WriteExtentClonesUnderTheAblation) {
  FileSystem fs(&clock, FsOptions{.cow_extents = false});
  auto ext = make_extent(blob(256, 'q'));
  fs.reset_counters();
  ASSERT_TRUE(fs.write_extent(p("/a"), ext).ok());

  auto io = fs.counters();
  EXPECT_EQ(io.bytes_written, 256u);
  EXPECT_EQ(io.bytes_physical_written, 256u);
  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.live_shared_extents, 0u);
  auto a = fs.read_file(p("/a"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *ext);
}

TEST_F(CowTest, CopyTreeSharesPerFile) {
  FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(p("/src/sub")).ok());
  ASSERT_TRUE(fs.write_file(p("/src/one"), blob(100, '1')).ok());
  ASSERT_TRUE(fs.write_file(p("/src/sub/two"), blob(200, '2')).ok());

  ASSERT_TRUE(fs.copy_tree(p("/src"), p("/dst")).ok());

  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.live_files, 4u);
  EXPECT_EQ(cow.live_extents, 2u);        // every payload exists once
  EXPECT_EQ(cow.live_shared_extents, 2u);
  EXPECT_EQ(cow.logical_bytes, 600u);
  EXPECT_EQ(cow.physical_bytes, 300u);
  auto two = fs.read_file(p("/dst/sub/two"));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, blob(200, '2'));
}

TEST_F(CowTest, QuotaChargesLogicalBytesIdenticallyAcrossModes) {
  for (bool cow_on : {true, false}) {
    FileSystem fs(&clock, FsOptions{.cow_extents = cow_on});
    fs.set_capacity(1000);
    ASSERT_TRUE(fs.write_file(p("/a"), blob(600, 'a')).ok());
    // A shared copy is physically free, but the quota models the
    // paper's real disk: logical bytes, identical verdict in both
    // modes.
    auto st = fs.copy_file(p("/a"), p("/b"));
    EXPECT_FALSE(st.ok()) << "cow=" << cow_on;
    EXPECT_EQ(st.error().code, Errc::io_error);
    EXPECT_EQ(fs.used_bytes(), 600u);
  }
}

TEST_F(CowTest, ContentHashPropagatesThroughSharedCopies) {
  FileSystem fs(&clock);
  ASSERT_TRUE(fs.write_file(p("/a"), "hash me").ok());
  auto h1 = fs.content_hash(p("/a"));
  ASSERT_TRUE(h1.ok());
  fs.reset_counters();
  ASSERT_TRUE(fs.copy_file(p("/a"), p("/b")).ok());
  auto h2 = fs.content_hash(p("/b"));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h1, *h2);
  // The memo travelled with the extent: no bytes were re-hashed.
  EXPECT_EQ(fs.counters().hash_bytes, 0u);
}

// Identical workload in both modes must yield bit-identical contents
// and identical *logical* counters -- the ablation contract the
// benchmarks and the paper's 4x tables depend on.
TEST_F(CowTest, LogicalCountersAndContentsIdenticalAcrossModes) {
  auto run = [this](bool cow_on) {
    FileSystem fs(&clock, FsOptions{.cow_extents = cow_on});
    EXPECT_TRUE(fs.mkdirs(p("/w")).ok());
    EXPECT_TRUE(fs.write_file(p("/w/a"), blob(300, 'a')).ok());
    EXPECT_TRUE(fs.copy_file(p("/w/a"), p("/w/b")).ok());
    EXPECT_TRUE(fs.append_file(p("/w/b"), "suffix").ok());
    EXPECT_TRUE(fs.copy_file(p("/w/b"), p("/w/c")).ok());
    EXPECT_TRUE(fs.write_file(p("/w/c"), blob(10, 'c')).ok());
    std::string contents;
    auto files = fs.walk_files(p("/w"));
    EXPECT_TRUE(files.ok());
    for (const auto& f : *files) {
      auto data = fs.read_file(f);
      EXPECT_TRUE(data.ok());
      contents += f.str() + "=" + *data + ";";
    }
    auto io = fs.counters();
    return std::pair<std::string, std::string>(
        contents, std::to_string(io.bytes_read) + "/" + std::to_string(io.bytes_written) +
                      "/" + std::to_string(io.bytes_copied) + "/" +
                      std::to_string(io.files_copied));
  };
  auto cow = run(true);
  auto physical = run(false);
  EXPECT_EQ(cow.first, physical.first);
  EXPECT_EQ(cow.second, physical.second);
}

// TSan storm: many threads copy from a hot shared source while others
// overwrite and append to the copies. Under TSan this proves the
// extent refcounting, the hash memo publish and the break-of-sharing
// accounting are race-free; under a plain build it checks the end
// state is sane.
TEST_F(CowTest, ConcurrentCopyWriteStormOnSharedExtents) {
  FileSystem fs(&clock);
  const std::string hot = blob(4096, 'h');
  ASSERT_TRUE(fs.write_file(p("/hot"), hot).ok());
  ASSERT_TRUE(fs.mkdirs(p("/out")).ok());

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fs, t, &hot] {
      const Path mine = Path().child("out").child("t" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(fs.copy_file(Path().child("hot"), mine).ok());
        if (i % 3 == 0) {
          ASSERT_TRUE(fs.append_file(mine, "x").ok());
        } else if (i % 3 == 1) {
          ASSERT_TRUE(fs.write_file(mine, "private" + std::to_string(i)).ok());
        } else {
          auto pin = fs.read_extent(mine);
          ASSERT_TRUE(pin.ok());
          ASSERT_EQ(**pin, hot);  // just copied, nobody else writes mine
        }
        auto back = fs.read_extent(Path().child("hot"));
        ASSERT_TRUE(back.ok());
        ASSERT_EQ(**back, hot);  // the hot source is never perturbed
      }
    });
  }
  for (auto& w : workers) w.join();

  // The hot file still reads back exactly; every thread's file exists.
  auto final_hot = fs.read_file(p("/hot"));
  ASSERT_TRUE(final_hot.ok());
  EXPECT_EQ(*final_hot, hot);
  auto cow = fs.cow_snapshot();
  EXPECT_EQ(cow.live_files, 1u + kThreads);
  EXPECT_GE(cow.shared_copies, static_cast<std::uint64_t>(kThreads));
  // Consistency of the live walk: physical never exceeds logical.
  EXPECT_LE(cow.physical_bytes, cow.logical_bytes);
}

// write_extent with a known hash seeds the node's hash memo at publish time, and
// copy_file carries the memo to the destination: no content_hash after
// either may ever touch payload bytes.
TEST_F(CowTest, WriteExtentWithAHashSeedsTheMemoAndCopyPropagatesIt) {
  FileSystem fs(&clock);
  auto ext = std::make_shared<const std::string>(blob(1024, 'm'));
  const std::uint64_t h = fnv1a(*ext);
  ASSERT_TRUE(fs.write_extent(p("/m"), ext, h).ok());
  const auto before = fs.counters();
  auto got = fs.content_hash(p("/m"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, h);
  ASSERT_TRUE(fs.copy_file(p("/m"), p("/m2")).ok());
  auto propagated = fs.content_hash(p("/m2"));
  ASSERT_TRUE(propagated.ok());
  EXPECT_EQ(*propagated, h);
  EXPECT_EQ(fs.counters().hash_bytes, before.hash_bytes);

  // Overwriting through the hashed path re-seeds; a plain write drops
  // the memo and the next hash recomputes.
  auto ext2 = std::make_shared<const std::string>(blob(512, 'n'));
  ASSERT_TRUE(fs.write_extent(p("/m"), ext2, fnv1a(*ext2)).ok());
  EXPECT_EQ(*fs.content_hash(p("/m")), fnv1a(*ext2));
  EXPECT_EQ(fs.counters().hash_bytes, before.hash_bytes);
  ASSERT_TRUE(fs.write_file(p("/m"), blob(512, 'n')).ok());
  EXPECT_EQ(*fs.content_hash(p("/m")), fnv1a(*ext2));
  EXPECT_EQ(fs.counters().hash_bytes, before.hash_bytes + 512);
}

// The ablation must accept the hashed write too: it clones the buffer,
// but a clone has identical bytes, so the memo stays truthful.
TEST_F(CowTest, WriteExtentWithAHashSeedsTheMemoUnderTheAblation) {
  FileSystem fs(&clock, FsOptions{.cow_extents = false});
  auto ext = std::make_shared<const std::string>(blob(256, 'q'));
  ASSERT_TRUE(fs.write_extent(p("/q"), ext, fnv1a(*ext)).ok());
  const auto before = fs.counters();
  EXPECT_EQ(*fs.content_hash(p("/q")), fnv1a(*ext));
  EXPECT_EQ(fs.counters().hash_bytes, before.hash_bytes);
}

// Striped-lock storm (docs/concurrency.md): two shards only, so
// distinct nodes collide on a stripe constantly; copiers run the
// dual-shard ordered-acquisition path in BOTH directions at once
// (a->b vs b->a would deadlock unordered locks) plus the equal-index
// self-copy edge, while probers hammer read/stat/hash on the same
// nodes. TSan proves the lock order; the assertions prove reads are
// never torn -- every observed payload is one of the two seed blobs.
TEST_F(CowTest, OrderedShardAcquisitionSurvivesBidirectionalCopyStorm) {
  FsOptions options;
  options.lock_shards = 2;
  FileSystem fs(&clock, options);
  const std::string blob_a = blob(2048, 'a');
  const std::string blob_b = blob(2048, 'b');
  const std::uint64_t hash_a = fnv1a(blob_a);
  const std::uint64_t hash_b = fnv1a(blob_b);
  ASSERT_TRUE(fs.mkdirs(p("/d")).ok());
  ASSERT_TRUE(fs.write_file(p("/d/a"), blob_a).ok());
  ASSERT_TRUE(fs.write_file(p("/d/b"), blob_b).ok());

  constexpr int kIters = 150;
  std::atomic<int> torn{0};
  auto copier = [&](const Path& from, const Path& to) {
    for (int i = 0; i < kIters; ++i) {
      if (!fs.copy_file(from, to).ok()) torn.fetch_add(1);
      if (!fs.copy_file(from, from).ok()) torn.fetch_add(1);  // src==dst shard
    }
  };
  auto prober = [&]() {
    for (int i = 0; i < kIters; ++i) {
      for (const char* name : {"a", "b"}) {
        const Path f = Path().child("d").child(name);
        auto data = fs.read_file(f);
        auto hash = fs.content_hash(f);
        (void)fs.stat(f);
        if (!data.ok() || (*data != blob_a && *data != blob_b)) torn.fetch_add(1);
        if (!hash.ok() || (*hash != hash_a && *hash != hash_b)) torn.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(copier, p("/d/a"), p("/d/b"));
  threads.emplace_back(copier, p("/d/b"), p("/d/a"));
  threads.emplace_back(prober);
  threads.emplace_back(prober);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  // End state: both files hold one of the seed blobs, hashes agree.
  for (const char* name : {"a", "b"}) {
    const Path f = Path().child("d").child(name);
    auto data = fs.read_file(f);
    ASSERT_TRUE(data.ok());
    EXPECT_TRUE(*data == blob_a || *data == blob_b);
    EXPECT_EQ(*fs.content_hash(f), fnv1a(*data));
  }
}

}  // namespace
}  // namespace jfm::vfs
