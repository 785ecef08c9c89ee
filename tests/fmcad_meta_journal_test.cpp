// The .meta checkpoint + journal (docs/file-formats.md): record codec,
// compaction, torn-tail recovery, failure-atomic library commits, and a
// randomized property over three designer sessions proving that delta
// refresh and journal replay are indistinguishable from full copies.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "jfm/fmcad/journal.hpp"
#include "jfm/fmcad/session.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/support/telemetry.hpp"
#include "test_seed.hpp"

namespace jfm::fmcad {
namespace {

using support::Errc;
namespace faultsim = support::faultsim;

void arm(const char* plan) {
  auto parsed = faultsim::parse_plan(plan);
  ASSERT_TRUE(parsed.ok());
  faultsim::Injector::global().arm(std::move(*parsed));
}

std::uint64_t counter(const char* name) {
  return support::telemetry::Registry::global().counter(name).value();
}

/// Every path under `dir`, directories included, depth first.
std::vector<std::string> listing(const vfs::FileSystem& fs, const vfs::Path& dir) {
  std::vector<std::string> out;
  auto names = fs.list(dir);
  if (!names.ok()) return out;
  for (const auto& name : *names) {
    const vfs::Path child = dir.child(name);
    out.push_back(child.str());
    if (fs.is_directory(child)) {
      for (auto& nested : listing(fs, child)) out.push_back(std::move(nested));
    }
  }
  return out;
}

const vfs::Path kRoot = vfs::Path().child("libs").child("work");

std::string reopened_meta(vfs::FileSystem& fs, support::SimClock& clock) {
  auto lib = Library::open(&fs, &clock, kRoot);
  return lib.ok() ? (*lib)->meta().serialize() : "open failed: " + lib.error().to_text();
}

// ---- record codec ---------------------------------------------------------

std::vector<MetaRecord> one_of_each() {
  std::vector<MetaRecord> records = {
      MetaRecord::define_view("schematic", "schematic"),
      MetaRecord::create_cell("alu"),
      MetaRecord::create_cellview({"alu", "schematic"}),
      MetaRecord::create_config("golden"),
      MetaRecord::checkout({"alu", "schematic"}, {"anna", 0, "work_anna.cv"}),
      MetaRecord::checkin({"alu", "schematic"}, {1, "v1.cv", 42, "anna"}),
      MetaRecord::set_member("golden", {"alu", "schematic"}, 1),
      MetaRecord::remove_member("golden", {"alu", "schematic"}),
      MetaRecord::checkout({"alu", "schematic"}, {"ben", 1, "work_ben.cv"}),
      MetaRecord::cancel({"alu", "schematic"}, "ben"),
  };
  for (std::size_t i = 0; i < records.size(); ++i) records[i].generation = i + 2;
  return records;
}

TEST(MetaJournal, RecordsRoundTripAndReplay) {
  LibraryMeta meta;
  meta.library = "work";
  meta.generation = 1;
  const LibraryMeta empty = meta;
  std::string journal;
  for (const auto& record : one_of_each()) {
    journal += record.encode();
    const std::string line = record.encode();
    ASSERT_EQ(line.back(), '\n');
    auto decoded = MetaRecord::decode(std::string_view(line).substr(0, line.size() - 1));
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_text();
    EXPECT_EQ(decoded->encode(), line);
    ASSERT_TRUE(decoded->apply(meta).ok()) << line;
    EXPECT_EQ(meta.generation, record.generation);
  }
  const CellViewRecord* record = meta.find_cellview({"alu", "schematic"});
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->versions.size(), 1u);
  EXPECT_EQ(record->versions[0].mtime, 42u);
  EXPECT_FALSE(record->checkout.has_value());
  EXPECT_TRUE(meta.configs.at("golden").members.empty());

  // replay() over the journal text lands on the same metadata.
  LibraryMeta replayed = empty;
  ASSERT_TRUE(replay(journal, replayed).ok());
  EXPECT_EQ(replayed.serialize(), meta.serialize());
  replayed = empty;
  journal.pop_back();  // unterminated last record
  EXPECT_EQ(replay(journal, replayed).code(), Errc::parse_error);
}

TEST(MetaJournal, DecodeRejectsGarbageWithoutThrowing) {
  for (const char* line : {
           "",
           "x 2 cell alu",
           "j two cell alu",
           "j -1 cell alu",
           "j 99999999999999999999999 cell alu",
           "j 2 wat alu",
           "j 2 cell",
           "j 2 cell alu extra",
           "j 2 member golden alu schematic one",
           "j 2 member golden alu schematic 99999999999",
           "j 2 checkout alu schematic anna x work.cv",
           "j 2 checkin alu schematic 1 v1.cv -5 anna",
           "j 2 checkin alu schematic 1 v1.cv 99999999999999999999999 anna",
       }) {
    EXPECT_EQ(MetaRecord::decode(line).code(), Errc::parse_error) << line;
  }
}

TEST(MetaJournal, ApplyRejectsOutOfSequenceAndDanglingRecords) {
  LibraryMeta meta;
  meta.generation = 5;
  auto cell = MetaRecord::create_cell("alu");
  cell.generation = 7;  // skips generation 6
  EXPECT_EQ(cell.apply(meta).code(), Errc::parse_error);
  auto dangling = MetaRecord::checkout({"alu", "schematic"}, {"anna", 0, "w.cv"});
  dangling.generation = 6;
  EXPECT_EQ(dangling.apply(meta).code(), Errc::parse_error);
  auto member = MetaRecord::set_member("nope", {"alu", "schematic"}, 1);
  member.generation = 6;
  EXPECT_EQ(member.apply(meta).code(), Errc::parse_error);
  EXPECT_EQ(meta.generation, 5u);  // rejected records change nothing
  EXPECT_TRUE(meta.cellviews.empty());
}

// ---- the file: checkpoint + journal ---------------------------------------

/// Everything a failed commit must leave untouched.
struct Snapshot {
  std::uint64_t generation;
  std::string meta;
  std::string reopened;
  std::vector<std::string> files;
  bool operator==(const Snapshot&) const = default;
};

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(kRoot.parent()).ok());
    auto lib = Library::create(&fs, &clock, kRoot.parent(), "work");
    ASSERT_TRUE(lib.ok());
    library = *lib;
    ASSERT_TRUE(library->define_view("schematic", "schematic").ok());
    ASSERT_TRUE(library->create_cell("alu").ok());
    ASSERT_TRUE(library->create_cellview(key).ok());
  }
  void TearDown() override { faultsim::Injector::global().disarm(); }

  std::string file() { return *fs.read_file(kRoot.child(".meta")); }
  Snapshot take() {
    return {library->generation(), library->meta().serialize(), reopened_meta(fs, clock),
            listing(fs, kRoot)};
  }
  /// Commit throwaway configs until one compacts. Right after a
  /// compaction the journal holds one record, so the next small commit
  /// is an append.
  void until_compacted() {
    const std::uint64_t compactions0 = counter("fmcad.meta.compaction.count");
    for (int i = 0; counter("fmcad.meta.compaction.count") == compactions0; ++i) {
      ASSERT_LT(i, 1000);
      ASSERT_TRUE(library->create_config("pad" + std::to_string(pads_++)).ok());
    }
  }
  void cycle(const std::string& user, const std::string& content) {
    auto work = library->checkout(key, user);
    ASSERT_TRUE(work.ok()) << work.error().to_text();
    ASSERT_TRUE(fs.write_file(*work, content).ok());
    ASSERT_TRUE(library->checkin(key, user).ok());
  }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  std::shared_ptr<Library> library;
  const CellViewKey key{"alu", "schematic"};
  int pads_ = 0;
};

TEST_F(JournalFileTest, CommitAppendsOneRecord) {
  until_compacted();
  const std::string before = file();
  const std::uint64_t bytes0 = counter("fmcad.meta.write.bytes");
  ASSERT_TRUE(library->create_config("golden").ok());
  const std::string after = file();
  ASSERT_EQ(after.substr(0, before.size()), before);
  const std::string record = "j " + std::to_string(library->generation()) + " config golden\n";
  EXPECT_EQ(after.substr(before.size()), record);
  EXPECT_EQ(counter("fmcad.meta.write.bytes") - bytes0, record.size());
  EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
}

TEST_F(JournalFileTest, CompactionBoundsTheFileAndKeepsOpenExact) {
  const std::uint64_t compactions0 = counter("fmcad.meta.compaction.count");
  for (int i = 0; i < 400; ++i) {
    cycle(i % 2 == 0 ? "anna" : "ben", "content " + std::to_string(i));
    const std::size_t canonical = library->meta().serialize().size();
    // checkpoint <= canonical, journal <= checkpoint + one record
    EXPECT_LE(file().size(), 2 * canonical + 128);
  }
  EXPECT_GE(counter("fmcad.meta.compaction.count") - compactions0, 3u);
  EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
  EXPECT_EQ(library->meta().find_cellview(key)->versions.size(), 400u);
}

TEST_F(JournalFileTest, PlainCheckpointStillOpens) {
  // A .meta holding only a checkpoint (no journal) is a valid library.
  ASSERT_TRUE(fs.write_file(kRoot.child(".meta"), library->meta().serialize()).ok());
  EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
  // So is one whose "end" lost its newline; the first commit after
  // opening it rewrites the file rather than appending to "end".
  std::string text = library->meta().serialize();
  text.pop_back();
  ASSERT_TRUE(fs.write_file(kRoot.child(".meta"), text).ok());
  auto reopened = Library::open(&fs, &clock, kRoot);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->create_config("golden").ok());
  EXPECT_EQ(reopened_meta(fs, clock), (*reopened)->meta().serialize());
}

TEST_F(JournalFileTest, CorruptJournalIsAParseError) {
  ASSERT_TRUE(fs.append_file(kRoot.child(".meta"), "j 1 cell zzz\n").ok());  // stale gen
  EXPECT_EQ(Library::open(&fs, &clock, kRoot).code(), Errc::parse_error);
  ASSERT_TRUE(fs.write_file(kRoot.child(".meta"), library->meta().serialize() + "garbage\n").ok());
  EXPECT_EQ(Library::open(&fs, &clock, kRoot).code(), Errc::parse_error);
}

TEST_F(JournalFileTest, TornTailIsDroppedAndRepairedByTheNextCommit) {
  cycle("anna", "one");
  until_compacted();
  const std::string committed = library->meta().serialize();
  const std::uint64_t generation = library->generation();
  arm("vfs.append.torn=1");
  // A metadata-only commit, so the append is the only vfs write.
  const auto st = library->create_config("golden");
  EXPECT_EQ(faultsim::Injector::global().injected(), 1u);
  faultsim::Injector::global().disarm();
  EXPECT_EQ(st.code(), Errc::io_error);
  EXPECT_EQ(library->generation(), generation);
  EXPECT_EQ(library->meta().serialize(), committed);
  EXPECT_NE(file().back(), '\n');  // half a record landed
  EXPECT_EQ(reopened_meta(fs, clock), committed);

  // A library opened on the torn file repairs it on its next commit,
  // and so does the library that saw the failure.
  auto reopened = Library::open(&fs, &clock, kRoot);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->create_config("silver").ok());
  EXPECT_EQ(file().back(), '\n');
  EXPECT_EQ(reopened_meta(fs, clock), (*reopened)->meta().serialize());
}

TEST_F(JournalFileTest, FailedCompactionLeavesNoTrace) {
  until_compacted();
  const Snapshot before = take();
  const std::uint64_t compactions0 = counter("fmcad.meta.compaction.count");
  // The first failure is an append; it makes the next commit compact,
  // and that compaction's write_file fails too.
  for (int attempt = 0; attempt < 2; ++attempt) {
    arm("vfs.write@1");
    EXPECT_EQ(library->create_config("golden").code(), Errc::io_error);
    faultsim::Injector::global().disarm();
    EXPECT_EQ(take(), before);
  }
  EXPECT_EQ(counter("fmcad.meta.compaction.count"), compactions0);
  ASSERT_TRUE(library->create_config("golden").ok());
  EXPECT_EQ(counter("fmcad.meta.compaction.count"), compactions0 + 1);
  EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
}

TEST_F(JournalFileTest, SessionsDeltaRefreshAcrossCompaction) {
  DesignerSession lagging(library, "lagging");
  DesignerSession eager(library, "eager");
  for (int i = 0; i < 300; ++i) {
    cycle("anna", std::to_string(i));
    eager.refresh();
    ASSERT_EQ(eager.view().serialize(), library->meta().serialize());
  }
  // After the checkpoint moved past the lagging snapshot, refresh falls
  // back to a full copy -- and still lands on the live metadata.
  EXPECT_FALSE(library->changes_since(lagging.view().generation).has_value());
  lagging.refresh();
  EXPECT_EQ(lagging.view().serialize(), library->meta().serialize());
  ASSERT_TRUE(library->changes_since(library->generation()).has_value());
  EXPECT_TRUE(library->changes_since(library->generation())->empty());
  EXPECT_FALSE(library->changes_since(library->generation() + 1).has_value());
}

// ---- failure atomicity ------------------------------------------------------

class FailedCommitTest : public JournalFileTest,
                         public ::testing::WithParamInterface<const char*> {
 protected:
  /// Run `op` with its commit's vfs write failing: every observable
  /// piece of library state must be exactly as before.
  template <typename Op>
  void expect_no_effect(Op op, const char* what) {
    until_compacted();  // so the commit appends, and the torn site can trip
    const Snapshot before = take();
    arm(GetParam());
    const Errc code = op();
    EXPECT_EQ(faultsim::Injector::global().injected(), 1u) << what;
    faultsim::Injector::global().disarm();
    EXPECT_EQ(code, Errc::io_error) << what;
    EXPECT_EQ(take(), before) << what;
  }
};

TEST_P(FailedCommitTest, MutationsLeaveNoTrace) {
  cycle("anna", "v1");
  ASSERT_TRUE(library->create_config("golden").ok());
  ASSERT_TRUE(library->set_config_member("golden", key, 1).ok());
  expect_no_effect([&] { return library->define_view("layout", "layout").code(); }, "view");
  expect_no_effect([&] { return library->create_cell("rom").code(); }, "cell");
  ASSERT_TRUE(library->define_view("layout", "layout").ok());
  expect_no_effect([&] { return library->create_cellview({"alu", "layout"}).code(); },
                   "cellview");
  expect_no_effect([&] { return library->create_config("silver").code(); }, "config");
  expect_no_effect([&] { return library->set_config_member("golden", key, 1).code(); },
                   "member");
  expect_no_effect([&] { return library->remove_config_member("golden", key).code(); },
                   "unmember");
  // checkout copies the base version (vfs.copy), so vfs.write@1 is the
  // commit itself.
  expect_no_effect([&] { return library->checkout(key, "ben").code(); }, "checkout");
  auto work = library->checkout(key, "ben");
  ASSERT_TRUE(work.ok());
  ASSERT_TRUE(fs.write_file(*work, "v2").ok());
  expect_no_effect([&] { return library->checkin(key, "ben").code(); }, "checkin");
  expect_no_effect([&] { return library->cancel_checkout(key, "ben").code(); }, "cancel");
  // The library still works after every failure.
  ASSERT_TRUE(library->checkin(key, "ben").ok());
  EXPECT_EQ(*fs.read_file(kRoot.child("alu").child("schematic").child("v2.cv")), "v2");
  EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
}

INSTANTIATE_TEST_SUITE_P(Sites, FailedCommitTest,
                         ::testing::Values("vfs.write@1", "vfs.append.torn@1"));

// ---- property: delta refresh + replay == full copies ------------------------

/// The reference designer: validates against a full copy of the
/// oracle library's metadata, refreshed by copying all of it.
struct OracleSession {
  std::shared_ptr<Library> library;
  std::string user;
  LibraryMeta snapshot;

  void refresh() { snapshot = library->meta(); }
  bool stale() const { return snapshot.generation != library->generation(); }
  template <typename Op>
  Errc mutate(Op op) {
    if (stale()) return Errc::stale_metadata;
    const Errc code = op();
    if (code == Errc::ok) refresh();
    return code;
  }
};

struct MetaJournalProperty : public ::testing::TestWithParam<std::uint64_t> {
  void TearDown() override { faultsim::Injector::global().disarm(); }
};

TEST_P(MetaJournalProperty, DeltaRefreshAndReplayMatchFullCopies) {
  support::Rng rng(GetParam());
  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  support::SimClock oracle_clock;
  vfs::FileSystem oracle_fs{&oracle_clock};
  ASSERT_TRUE(fs.mkdirs(kRoot.parent()).ok());
  ASSERT_TRUE(oracle_fs.mkdirs(kRoot.parent()).ok());
  auto library = *Library::create(&fs, &clock, kRoot.parent(), "work");
  auto oracle = *Library::create(&oracle_fs, &oracle_clock, kRoot.parent(), "work");

  const std::vector<std::string> users = {"anna", "ben", "carl"};
  std::vector<std::unique_ptr<DesignerSession>> sessions;
  std::vector<OracleSession> oracles;
  for (const auto& user : users) {
    sessions.push_back(std::make_unique<DesignerSession>(library, user));
    oracles.push_back({oracle, user, oracle->meta()});
  }
  std::vector<std::string> views;
  std::vector<std::string> cells;
  std::vector<std::string> configs;
  const std::uint64_t compactions0 = counter("fmcad.meta.compaction.count");
  const std::uint64_t delta0 = counter("fmcad.session.refresh.delta.count");
  const std::uint64_t full0 = counter("fmcad.session.refresh.full.count");
  std::uint64_t torn_steps = 0;

  for (int step = 0; step < 1200; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::size_t s = rng.below(sessions.size());
    DesignerSession& session = *sessions[s];
    OracleSession& ref = oracles[s];
    // Mostly existing cellviews, sometimes any (cell, view) pair.
    auto some_key = [&]() -> CellViewKey {
      const auto& live = library->meta().cellviews;
      if (!live.empty() && rng.chance(0.8)) {
        return std::next(live.begin(), static_cast<long>(rng.below(live.size())))->first;
      }
      if (cells.empty() || views.empty()) return {"nocell", "noview"};
      return {rng.pick(cells), rng.pick(views)};
    };
    // One op, run on the real session (`real`) and on the oracle
    // (`model`); each returns its outcome.
    std::function<Errc()> real;
    std::function<Errc()> model;
    std::function<void()> on_success = [] {};
    const std::uint64_t roll = rng.below(100);
    if (roll < 12) {
      real = [&] { session.refresh(); return Errc::ok; };
      model = [&] { ref.refresh(); return Errc::ok; };
    } else if (roll < 15) {
      const std::string name = "view" + std::to_string(views.size());
      real = [&, name] { return session.define_view(name, "vt").code(); };
      model = [&, name] { return ref.mutate([&] { return oracle->define_view(name, "vt").code(); }); };
      on_success = [&, name] { views.push_back(name); };
    } else if (roll < 22) {
      const std::string name = "cell" + std::to_string(cells.size());
      real = [&, name] { return session.create_cell(name).code(); };
      model = [&, name] { return ref.mutate([&] { return oracle->create_cell(name).code(); }); };
      on_success = [&, name] { cells.push_back(name); };
    } else if (roll < 32) {
      const CellViewKey key = some_key();
      real = [&, key] { return session.create_cellview(key).code(); };
      model = [&, key] { return ref.mutate([&] { return oracle->create_cellview(key).code(); }); };
    } else if (roll < 35) {
      const std::string name = "cfg" + std::to_string(configs.size());
      real = [&, name] { return session.create_config(name).code(); };
      model = [&, name] { return ref.mutate([&] { return oracle->create_config(name).code(); }); };
      on_success = [&, name] { configs.push_back(name); };
    } else if (roll < 40 && !configs.empty()) {
      const std::string config = rng.pick(configs);
      const CellViewKey key = some_key();
      const int version = static_cast<int>(rng.range(1, 3));
      real = [&, config, key, version] {
        return session.set_config_member(config, key, version).code();
      };
      model = [&, config, key, version] {
        return ref.mutate([&] { return oracle->set_config_member(config, key, version).code(); });
      };
    } else if (roll < 43 && !configs.empty()) {
      // No session surface for this one: the library primitive, as an
      // administrator would call it.
      const std::string config = rng.pick(configs);
      const CellViewKey key = some_key();
      real = [&, config, key] { return library->remove_config_member(config, key).code(); };
      model = [&, config, key] { return oracle->remove_config_member(config, key).code(); };
    } else if (roll < 65) {
      const CellViewKey key = some_key();
      real = [&, key] { return session.checkout(key).code(); };
      model = [&, key] { return ref.mutate([&] { return oracle->checkout(key, ref.user).code(); }); };
    } else if (roll < 90) {
      const CellViewKey key = some_key();
      const std::string content = "step " + std::to_string(step);
      real = [&, key, content] {
        (void)session.write_working(key, content);
        return session.checkin(key).code();
      };
      model = [&, key, content] {
        const CellViewRecord* record = oracle->meta().find_cellview(key);
        if (record != nullptr && record->checkout && record->checkout->user == ref.user) {
          const auto work = oracle->cellview_dir(key).child(record->checkout->work_file);
          EXPECT_TRUE(oracle_fs.write_file(work, content).ok());
        }
        return ref.mutate([&] { return oracle->checkin(key, ref.user).code(); });
      };
    } else {
      const CellViewKey key = some_key();
      real = [&, key] { return session.cancel_checkout(key).code(); };
      // cancel is not gated on freshness (DesignerSession::cancel_checkout)
      model = [&, key] {
        const Errc code = oracle->cancel_checkout(key, ref.user).code();
        if (code == Errc::ok) ref.refresh();
        return code;
      };
    }

    // On a few steps the real op's journal append is torn: it must fail
    // cleanly, leave meta() and generation alone, and the file must
    // reopen to exactly the committed prefix. The oracle then skips the
    // op, since it never happened.
    const bool torn = step > 20 && rng.chance(0.03);
    if (torn) arm("vfs.append.torn@1");
    const std::uint64_t generation = library->generation();
    const Errc got = real();
    const bool tripped = torn && faultsim::Injector::global().injected() > 0;
    faultsim::Injector::global().disarm();
    if (tripped) {
      ++torn_steps;
      EXPECT_EQ(got, Errc::io_error);
      EXPECT_EQ(library->generation(), generation);
      EXPECT_EQ(reopened_meta(fs, clock), library->meta().serialize());
      oracle_clock.reset(clock.now());  // the failed op's file traffic
    } else {
      ASSERT_EQ(got, model()) << "outcome diverged from the full-copy oracle";
      if (got == Errc::ok) on_success();
      // A rejected designer refreshes by hand and retries later (s2.2).
      if (got == Errc::stale_metadata) {
        session.refresh();
        ref.refresh();
      }
    }

    ASSERT_EQ(clock.now(), oracle_clock.now());
    const std::string live = library->meta().serialize();
    ASSERT_EQ(oracle->meta().serialize(), live);
    ASSERT_EQ(reopened_meta(fs, clock), live);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      ASSERT_EQ(sessions[i]->stale(), oracles[i].stale()) << users[i];
      // A fresh session sees the live metadata; a stale one, exactly the
      // full copy the oracle took at the same generation.
      ASSERT_EQ(sessions[i]->view().serialize(),
                oracles[i].stale() ? oracles[i].snapshot.serialize() : live)
          << users[i];
    }
  }
  // Long enough to cross several compactions, and both refresh paths
  // (delta replay and the post-compaction full copy) were exercised.
  const std::uint64_t compactions = counter("fmcad.meta.compaction.count") - compactions0;
  const std::uint64_t deltas = counter("fmcad.session.refresh.delta.count") - delta0;
  const std::uint64_t fulls = counter("fmcad.session.refresh.full.count") - full0;
  EXPECT_GE(compactions, 3u);
  EXPECT_GT(fulls, 0u);
  // A session needs a full copy only when a compaction moved the
  // checkpoint past its snapshot: at most once per compaction.
  EXPECT_LE(fulls, compactions * sessions.size());
  EXPECT_GT(deltas, fulls);
  EXPECT_GT(torn_steps, 0u);
  EXPECT_GT(library->generation(), 200u);
  std::fprintf(stderr,
               "[MetaJournalProperty] seed=%llu generation=%llu compactions=%llu "
               "delta_refreshes=%llu full_refreshes=%llu torn=%llu\n",
               static_cast<unsigned long long>(GetParam()),
               static_cast<unsigned long long>(library->generation()),
               static_cast<unsigned long long>(compactions),
               static_cast<unsigned long long>(deltas), static_cast<unsigned long long>(fulls),
               static_cast<unsigned long long>(torn_steps));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaJournalProperty,
                         ::testing::ValuesIn(jfm::testing::test_seeds<std::uint64_t>(
                             "MetaJournalProperty", {1, 2, 3, 4})));

}  // namespace
}  // namespace jfm::fmcad
