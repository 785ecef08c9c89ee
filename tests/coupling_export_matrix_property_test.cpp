// Property test: the one export pipeline against the two it replaced.
//
// TransferEngine::export_shared once ran two near-copies of one
// pipeline: a cache-on path (fingerprint probe, fetch, hash-seeded
// publish, cache_store) and a cache-off ablation (plain fetch, plain
// publish). The oracle below is that pair, kept here together with the
// per-branch import tails and the sequential batch loop, over the
// public jcf and vfs API. Its cache-on fetch is dov_extent seeded with
// the fingerprint's hash: the hashed fetch it once used only read back
// the memo the fingerprint probe had just filled (DOVs are immutable),
// with the same read counters and spans as dov_extent.
//
// Every (content_addressed_cache x copy_through_filesystem x
// cow_extents) combination runs with 1 and 8 batch workers. Two
// identical worlds -- one driven by the engine, one by the oracle --
// take the same random interleaving of export_dov, export_batch,
// import_file and destination scribbles. After every op the test
// compares the returned statuses, the bytes of every destination, all
// TransferStats fields, both file systems' I/O and COW counters, and
// the op's coupling.transfer.*, vfs.cow.*, jcf.dov.* and
// oms.text.hash.* registry deltas (the last shows a cache-off export
// that starts hashing payloads).
//
// Batches use distinct destinations, so lanes never race on one file.
// With 8 workers the cache is sized so it never evicts: LRU victims
// depend on which lane stores first. The 1-worker runs use a 4-entry
// cache and exercise eviction. There are no transient failures (the
// failing ops miss a parent directory, read unpublished data or import
// a missing file), so the retry loop never runs and is not modelled.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "jfm/coupling/transfer.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/support/telemetry.hpp"
#include "test_seed.hpp"

namespace jfm::coupling {
namespace {

using support::Errc;
using support::Result;
using support::Status;
namespace telemetry = support::telemetry;

// ======================= the two-pipeline oracle ==========================

namespace oracle {

telemetry::Counter& xfer_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("coupling.transfer.") + which);
}

class Engine {
 public:
  Engine(jcf::JcfFramework* jcf, vfs::FileSystem* fs, vfs::Path transfer_dir,
         TransferOptions options)
      : jcf_(jcf), fs_(fs), transfer_dir_(std::move(transfer_dir)), options_(options) {
    (void)fs_->mkdirs(transfer_dir_);
    if (options_.content_addressed_cache) {
      listener_token_ = jcf_->add_dov_created_listener(
          [this](jcf::DesignObjectRef dobj, jcf::DovRef) { invalidate_dobj(dobj.id); });
    }
  }
  ~Engine() {
    if (listener_token_ != 0) jcf_->remove_dov_created_listener(listener_token_);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Status export_dov(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst) {
    return export_shared(dov, reader, dst);
  }

  std::vector<Status> export_batch(const std::vector<ExportRequest>& items) {
    std::vector<Status> results(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      results[i] = export_shared(items[i].dov, items[i].reader, items[i].dst);
    }
    return results;
  }

  Result<jcf::DovRef> import_file(const vfs::Path& src, jcf::DesignObjectRef dobj,
                                  jcf::UserRef writer) {
    vfs::Path read_from = src;
    vfs::Path stage;
    if (options_.copy_through_filesystem) {
      stage = staging_file("in");
      if (auto st = fs_->copy_file(src, stage); !st.ok()) {
        return Result<jcf::DovRef>::failure(st.error().code, st.error().message);
      }
      ++stats.staging_copies;
      xfer_counter("staging.count").add(1);
      read_from = stage;
    }
    const bool cow = fs_->options().cow_extents;
    oms::TextExtent payload;
    if (cow) {
      auto data = fs_->read_extent(read_from);
      if (options_.copy_through_filesystem) (void)fs_->remove(stage);
      if (!data.ok()) {
        return Result<jcf::DovRef>::failure(data.error().code, data.error().message);
      }
      payload = std::move(*data);
    } else {
      auto data = fs_->read_file(read_from);
      if (options_.copy_through_filesystem) (void)fs_->remove(stage);
      if (!data.ok()) {
        return Result<jcf::DovRef>::failure(data.error().code, data.error().message);
      }
      payload = std::make_shared<const std::string>(std::move(*data));
    }
    const std::uint64_t size = payload->size();
    ++stats.imports;
    stats.bytes_imported += size;
    stats.bytes_imported_physical +=
        cow ? 0 : (options_.copy_through_filesystem ? 2 * size : size);
    xfer_counter("import.count").add(1);
    xfer_counter("import.bytes").add(size);
    xfer_counter("import.physical.bytes")
        .add(cow ? 0 : (options_.copy_through_filesystem ? 2 * size : size));
    return jcf_->create_dov(dobj, std::move(payload), writer);
  }

  TransferStats stats;

 private:
  struct CacheEntry {
    std::uint64_t content_hash = 0;
    std::uint64_t bytes = 0;
    oms::ObjectId dobj;
    std::uint64_t last_used = 0;
  };
  using CacheKey = std::pair<oms::ObjectId, std::string>;

  vfs::Path staging_file(const std::string& tag) {
    return transfer_dir_.child(tag + "_" + std::to_string(++stage_counter_) + ".xfer");
  }

  void invalidate_dobj(oms::ObjectId dobj) {
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.dobj == dobj) {
        it = cache_.erase(it);
        ++stats.cache_invalidations;
        xfer_counter("cache.invalidation.count").add(1);
      } else {
        ++it;
      }
    }
  }

  bool cache_probe(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                   std::uint64_t size) {
    auto it = cache_.find(CacheKey(dov.id, dst.str()));
    if (it == cache_.end() || it->second.content_hash != hash) {
      ++stats.cache_misses;
      xfer_counter("cache.miss.count").add(1);
      return false;
    }
    auto on_disk = fs_->content_hash(dst);
    if (!on_disk.ok() || *on_disk != hash) {
      cache_.erase(CacheKey(dov.id, dst.str()));
      ++stats.cache_misses;
      xfer_counter("cache.miss.count").add(1);
      return false;
    }
    it = cache_.find(CacheKey(dov.id, dst.str()));
    if (it != cache_.end()) it->second.last_used = ++cache_tick_;
    ++stats.cache_hits;
    stats.bytes_saved += size;
    xfer_counter("cache.hit.count").add(1);
    xfer_counter("cache.saved.bytes").add(size);
    return true;
  }

  void cache_store(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                   std::uint64_t size) {
    auto dobj = jcf_->design_object_of(dov);
    CacheEntry entry;
    entry.content_hash = hash;
    entry.bytes = size;
    if (dobj.ok()) entry.dobj = dobj->id;
    entry.last_used = ++cache_tick_;
    cache_[CacheKey(dov.id, dst.str())] = entry;
    while (cache_.size() > options_.cache_capacity) {
      auto victim = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      cache_.erase(victim);
      ++stats.cache_evictions;
      xfer_counter("cache.eviction.count").add(1);
    }
  }

  Status export_shared(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst) {
    if (options_.content_addressed_cache) {
      auto fp = jcf_->dov_fingerprint(dov, reader);
      if (!fp.ok()) return Status(fp.error());
      const std::uint64_t size = fp->size;
      ++stats.exports;
      stats.bytes_exported += size;
      xfer_counter("export.count").add(1);
      xfer_counter("export.bytes").add(size);
      const std::uint64_t physical =
          fs_->options().cow_extents ? 0
                                     : (options_.copy_through_filesystem ? 2 * size : size);
      if (cache_probe(dov, dst, fp->content_hash, size)) return {};
      auto data = jcf_->dov_extent(dov, reader);
      if (!data.ok()) return Status(data.error());
      Status st;
      if (options_.copy_through_filesystem) {
        vfs::Path stage = staging_file("out");
        if (auto ws = fs_->write_extent(stage, *data, fp->content_hash); !ws.ok()) return ws;
        ++stats.staging_copies;
        xfer_counter("staging.count").add(1);
        st = fs_->copy_file(stage, dst);
        (void)fs_->remove(stage);
      } else {
        st = fs_->write_extent(dst, std::move(*data), fp->content_hash);
      }
      if (st.ok()) {
        stats.bytes_exported_physical += physical;
        xfer_counter("export.physical.bytes").add(physical);
        cache_store(dov, dst, fp->content_hash, size);
      }
      return st;
    }
    // Cache-off ablation.
    auto data = jcf_->dov_extent(dov, reader);
    if (!data.ok()) return Status(data.error());
    const std::uint64_t size = (*data)->size();
    ++stats.exports;
    stats.bytes_exported += size;
    xfer_counter("export.count").add(1);
    xfer_counter("export.bytes").add(size);
    const std::uint64_t physical =
        fs_->options().cow_extents ? 0 : (options_.copy_through_filesystem ? 2 * size : size);
    Status st;
    if (options_.copy_through_filesystem) {
      vfs::Path stage = staging_file("out");
      if (auto ws = fs_->write_extent(stage, *data); !ws.ok()) return ws;
      ++stats.staging_copies;
      xfer_counter("staging.count").add(1);
      st = fs_->copy_file(stage, dst);
      (void)fs_->remove(stage);
    } else {
      st = fs_->write_extent(dst, std::move(*data));
    }
    if (st.ok()) {
      stats.bytes_exported_physical += physical;
      xfer_counter("export.physical.bytes").add(physical);
    }
    return st;
  }

  jcf::JcfFramework* jcf_;
  vfs::FileSystem* fs_;
  vfs::Path transfer_dir_;
  TransferOptions options_;
  std::uint64_t listener_token_ = 0;
  std::uint64_t stage_counter_ = 0;
  std::map<CacheKey, CacheEntry> cache_;
  std::uint64_t cache_tick_ = 0;
};

}  // namespace oracle

// ======================= the two worlds ===================================

constexpr int kObjects = 4;
constexpr int kDsts = 6;

/// One complete environment: file system, JCF and a reserved cell
/// version with kObjects design objects. Both worlds are built by the
/// same calls, so they hold the same objects.
struct World {
  explicit World(bool cow) : fs(&clock, vfs::FsOptions{.cow_extents = cow}), jcf(&clock) {
    EXPECT_TRUE(fs.mkdirs(vfs::Path().child("out")).ok());
    alice = *jcf.create_user("alice");
    bob = *jcf.create_user("bob");
    auto team = *jcf.create_team("rtl");
    EXPECT_TRUE(jcf.add_member(team, alice).ok());
    auto tool = *jcf.register_tool("t");
    auto made = *jcf.create_viewtype("made");
    auto act = *jcf.create_activity("a", tool, {}, {made});
    auto flow = *jcf.create_flow("f", {act});
    EXPECT_TRUE(jcf.freeze_flow(flow).ok());
    auto project = *jcf.create_project("p", team);
    auto cell = *jcf.create_cell(project, "c", flow, team);
    auto cv = *jcf.create_cell_version(cell, alice);
    EXPECT_TRUE(jcf.reserve(cv, alice).ok());
    auto variant = *jcf.create_variant(cv, "work", alice);
    for (int i = 0; i < kObjects; ++i) {
      auto vt = *jcf.create_viewtype("view" + std::to_string(i));
      dobjs.push_back(*jcf.create_design_object(variant, "do" + std::to_string(i), vt, alice));
    }
  }

  support::SimClock clock;
  vfs::FileSystem fs;
  jcf::JcfFramework jcf;
  jcf::UserRef alice;
  jcf::UserRef bob;
  std::vector<jcf::DesignObjectRef> dobjs;
};

vfs::Path dst_path(std::size_t i) {
  // The last slot's parent directory does not exist: exports to it fail
  // at the publish step, after the fetch and the count.
  if (i + 1 == kDsts) return vfs::Path().child("nodir").child("x");
  return vfs::Path().child("out").child("dst" + std::to_string(i));
}

using Counters = std::map<std::string, std::uint64_t>;

Counters watched_counters() {
  Counters out;
  for (const auto& [name, value] : telemetry::Registry::global().snapshot().counters) {
    if (name.starts_with("coupling.transfer.") || name.starts_with("vfs.cow.") ||
        name.starts_with("jcf.dov.") || name.starts_with("oms.text.hash.")) {
      out[name] = value;
    }
  }
  return out;
}

/// Per-op registry delta. With `racy_memo`, oms.text.hash.* only
/// records THAT a payload was hashed: lanes that miss one DOV's hash
/// memo together each compute (and count) the identical value.
Counters delta(const Counters& before, const Counters& after, bool racy_memo) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const std::uint64_t d = value - (it == before.end() ? 0 : it->second);
    if (d == 0) continue;
    out[name] = racy_memo && name.starts_with("oms.text.hash.") ? 1 : d;
  }
  return out;
}

std::string describe(const Status& st) { return st.ok() ? "ok" : st.error().to_text(); }

std::vector<std::uint64_t> stats_fields(const TransferStats& s) {
  return {s.exports,        s.imports,      s.bytes_exported,      s.bytes_imported,
          s.bytes_exported_physical,        s.bytes_imported_physical,
          s.staging_copies, s.cache_hits,   s.cache_misses,        s.cache_evictions,
          s.cache_invalidations,            s.bytes_saved,         s.retries,
          s.timeouts};
}

std::vector<std::uint64_t> fs_fields(const vfs::FileSystem& fs) {
  const vfs::IoCounters io = fs.counters();
  const vfs::CowStats cow = fs.cow_snapshot();
  return {io.bytes_read,          io.bytes_written,          io.bytes_copied,
          io.files_copied,        io.hash_ops,               io.hash_bytes,
          io.bytes_physical_written, io.bytes_physical_copied, cow.shared_copies,
          cow.broken_extents,     cow.bytes_saved,           cow.bytes_cloned,
          cow.live_extents,       cow.physical_bytes};
}

// ======================= the property =====================================

struct Config {
  bool cache = false;
  bool staged = false;
  bool cow = false;
  std::size_t workers = 1;
};

using Param = std::tuple<std::uint64_t, std::size_t, int>;  // seed, workers, combo

class ExportMatrixProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ExportMatrixProperty, OnePipelineMatchesTheTwoItReplaced) {
  const auto [seed, workers, combo] = GetParam();
  const Config cfg{(combo & 1) != 0, (combo & 2) != 0, (combo & 4) != 0, workers};
  support::Rng rng(seed * 16 + static_cast<std::uint64_t>(combo) * 2 + (workers > 1 ? 1 : 0));

  TransferOptions options;
  options.copy_through_filesystem = cfg.staged;
  options.content_addressed_cache = cfg.cache;
  options.cache_capacity = workers > 1 ? 1024 : 4;

  World real(cfg.cow);
  World model(cfg.cow);
  TransferEngine engine(&real.jcf, &real.fs, vfs::Path().child("xfer"), options);
  oracle::Engine reference(&model.jcf, &model.fs, vfs::Path().child("xfer"), options);

  // Every version ever made, as (engine world, oracle world) refs.
  std::vector<std::pair<jcf::DovRef, jcf::DovRef>> history;
  const vfs::Path src = vfs::Path().child("out").child("src");

  auto payload = [&] {
    // A small alphabet and a small length pool, so identical payloads
    // (and content hashes) recur across versions and design objects.
    std::string text(1 + rng.below(8) * (1 + rng.below(200)), '\0');
    for (auto& c : text) c = static_cast<char>('a' + rng.below(3));
    return text;
  };
  auto pick_request = [&](std::size_t dst_slot) {
    const auto& [r, m] = history[rng.below(history.size())];
    const bool as_bob = rng.chance(0.1);
    return std::pair{ExportRequest{r, as_bob ? real.bob : real.alice, dst_path(dst_slot)},
                     ExportRequest{m, as_bob ? model.bob : model.alice, dst_path(dst_slot)}};
  };

  for (int step = 0; step < 160; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double dice = rng.uniform();
    Counters before;
    Counters after_real;
    std::string what;

    if (history.empty() || dice < 0.25) {
      // import: a fresh payload, a round trip of an exported file, a
      // missing source, or a writer the workspace refuses
      what = "import";
      vfs::Path from = src;
      const double kind = rng.uniform();
      if (kind < 0.2 && !history.empty()) {
        from = dst_path(rng.below(kDsts - 1));
      } else if (kind < 0.25) {
        from = vfs::Path().child("out").child("ghost");
      } else {
        const std::string text = payload();
        ASSERT_TRUE(real.fs.write_file(src, text).ok());
        ASSERT_TRUE(model.fs.write_file(src, text).ok());
      }
      const int which = static_cast<int>(rng.below(kObjects));
      const bool as_bob = rng.chance(0.1);
      before = watched_counters();
      auto got = engine.import_file(from, real.dobjs[which], as_bob ? real.bob : real.alice);
      after_real = watched_counters();
      auto want =
          reference.import_file(from, model.dobjs[which], as_bob ? model.bob : model.alice);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) {
        EXPECT_EQ(got.error().to_text(), want.error().to_text());
      } else {
        history.emplace_back(*got, *want);
      }
    } else if (dice < 0.6) {
      what = "export_dov";
      auto [r, m] = pick_request(rng.below(kDsts));
      before = watched_counters();
      Status got = engine.export_dov(r.dov, r.reader, r.dst);
      after_real = watched_counters();
      Status want = reference.export_dov(m.dov, m.reader, m.dst);
      EXPECT_EQ(describe(got), describe(want));
    } else if (dice < 0.8) {
      what = "export_batch";
      std::vector<std::size_t> slots(kDsts);
      for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
      for (std::size_t i = slots.size(); i > 1; --i) std::swap(slots[i - 1], slots[rng.below(i)]);
      slots.resize(1 + rng.below(kDsts));
      std::vector<ExportRequest> real_items;
      std::vector<ExportRequest> model_items;
      for (std::size_t slot : slots) {
        auto [r, m] = pick_request(slot);
        real_items.push_back(r);
        model_items.push_back(m);
      }
      before = watched_counters();
      auto got = engine.export_batch(real_items, cfg.workers);
      after_real = watched_counters();
      auto want = reference.export_batch(model_items);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(describe(got[i]), describe(want[i])) << "item " << i;
      }
    } else {
      // scribble over a destination: new bytes, the bytes of some
      // version (same content hash), or removal
      what = "scribble";
      const vfs::Path dst = dst_path(rng.below(kDsts - 1));
      const double kind = rng.uniform();
      std::optional<std::string> text;
      if (kind < 0.4) {
        text = payload();
      } else if (kind < 0.7) {
        const auto& [r, m] = history[rng.below(history.size())];
        text = *real.jcf.dov_data(r, real.alice);
        ASSERT_EQ(*text, *model.jcf.dov_data(m, model.alice));
      }
      auto scribble = [&](World& w) {
        if (text) {
          ASSERT_TRUE(w.fs.write_file(dst, *text).ok());
        } else {
          (void)w.fs.remove(dst);
        }
      };
      before = watched_counters();
      scribble(real);
      after_real = watched_counters();
      scribble(model);
    }
    SCOPED_TRACE(what);
    const Counters after_model = watched_counters();

    EXPECT_EQ(delta(before, after_real, workers > 1), delta(after_real, after_model, workers > 1));
    EXPECT_EQ(stats_fields(engine.stats_snapshot()), stats_fields(reference.stats));
    EXPECT_EQ(fs_fields(real.fs), fs_fields(model.fs));
    for (std::size_t i = 0; i + 1 < kDsts; ++i) {
      auto got = real.fs.read_file(dst_path(i));
      auto want = model.fs.read_file(dst_path(i));
      ASSERT_EQ(got.ok(), want.ok()) << dst_path(i).str();
      if (got.ok()) {
        EXPECT_EQ(*got, *want) << dst_path(i).str();
      }
    }
    if (::testing::Test::HasFailure()) break;
  }

  // The matrix is only meaningful if every path ran.
  const TransferStats s = engine.stats_snapshot();
  EXPECT_GT(s.exports, 0u);
  EXPECT_GT(s.imports, 0u);
  EXPECT_EQ(s.staging_copies > 0, cfg.staged);
  if (cfg.cache) {
    EXPECT_GT(s.cache_hits, 0u);
    EXPECT_GT(s.cache_misses, 0u);
    EXPECT_GT(s.cache_invalidations, 0u);
    if (workers == 1) {
      EXPECT_GT(s.cache_evictions, 0u);
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [seed, workers, combo] = info.param;
  return "seed" + std::to_string(seed) + "_w" + std::to_string(workers) +
         ((combo & 1) ? "_cache" : "_nocache") + ((combo & 2) ? "_staged" : "_direct") +
         ((combo & 4) ? "_cow" : "_nocow");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExportMatrixProperty,
    ::testing::Combine(::testing::ValuesIn(jfm::testing::test_seeds<std::uint64_t>(
                           "export-matrix", {3u, 17u, 42u, 1995u})),
                       ::testing::Values(std::size_t{1}, std::size_t{8}),
                       ::testing::Range(0, 8)),
    param_name);

}  // namespace
}  // namespace jfm::coupling
