// Durability contract (docs/persistence.md): a Store attached to a
// journal directory recovers BIT-IDENTICALLY from the latest valid
// snapshot plus the committed WAL tail -- objects, typed attributes,
// text fingerprints, link order in both directions, per-object
// modified stamps and the store epoch all reproduce through the
// public API. Crash semantics are committed-prefix: any torn or
// corrupt WAL suffix is discarded wholesale, never partially applied.
// The property test drives a seeded random workload, records a digest
// oracle at every commit sequence, then re-opens the store from every
// record boundary and from mid-record cuts and checks the recovered
// image against the oracle for exactly the surviving prefix.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "jfm/oms/store.hpp"
#include "jfm/oms/wal.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/vfs/filesystem.hpp"
#include "test_seed.hpp"

namespace jfm::oms {
namespace {

using support::Errc;

Schema persist_schema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .define_class({"Node",
                                 "",
                                 {{"label", AttrType::text},
                                  {"weight", AttrType::integer},
                                  {"ratio", AttrType::real},
                                  {"flag", AttrType::boolean}}})
                  .ok());
  EXPECT_TRUE(schema.define_class({"Leaf", "Node", {}}).ok());
  EXPECT_TRUE(schema.define_relation({"edge", "Node", "Node", Cardinality::many_to_many}).ok());
  EXPECT_TRUE(schema.define_relation({"ref", "Node", "Node", Cardinality::many_to_many}).ok());
  return schema;
}

StoreOptions durable() {
  StoreOptions opts;
  opts.durability = StoreOptions::Durability::wal;
  return opts;
}

std::string value_text(const AttrValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return "i:" + std::to_string(*i);
  if (const auto* d = std::get_if<double>(&value)) {
    std::ostringstream os;
    os.precision(17);
    os << "r:" << *d;
    return os.str();
  }
  if (const auto* b = std::get_if<bool>(&value)) return *b ? "b:true" : "b:false";
  return "t:" + std::get<std::string>(value);
}

// Everything recovery must restore, read back through the public API.
// Includes the epoch and per-object modified stamps, so replay must
// reproduce even the epoch gaps aborted transactions leave behind.
std::string digest(const Store& store) {
  std::string out = "epoch=" + std::to_string(store.epoch()) + "\n";
  std::map<std::uint64_t, std::uint64_t> modified;
  for (const auto& c : store.objects_changed_since("Node", 0)) modified[c.id.raw()] = c.modified;
  std::vector<ObjectId> ids = store.objects_of("Node");
  std::sort(ids.begin(), ids.end());
  for (ObjectId id : ids) {
    out += "object " + std::to_string(id.raw()) + ' ' + *store.class_of(id) + ' ' +
           std::to_string(store.created_at(id)) + " m=" + std::to_string(modified[id.raw()]) +
           '\n';
    for (const char* attr : {"label", "weight", "ratio", "flag"}) {
      auto v = store.get(id, attr);
      if (!v.ok()) continue;
      out += "  " + std::string(attr) + '=' + value_text(*v);
      if (auto fp = store.text_fingerprint(id, attr); fp.ok()) {
        out += " fp=" + std::to_string(fp->hash) + '/' + std::to_string(fp->size);
      }
      out += '\n';
    }
    for (const char* rel : {"edge", "ref"}) {
      // Order-sensitive in BOTH directions: link order is part of the
      // store contract the logical redo log preserves.
      if (auto tos = store.targets(rel, id); tos.ok() && !tos->empty()) {
        out += "  " + std::string(rel) + ">";
        for (ObjectId to : *tos) out += ' ' + std::to_string(to.raw());
        out += '\n';
      }
      if (auto froms = store.sources(rel, id); froms.ok() && !froms->empty()) {
        out += "  " + std::string(rel) + "<";
        for (ObjectId from : *froms) out += ' ' + std::to_string(from.raw());
        out += '\n';
      }
    }
  }
  return out;
}

vfs::Path journal_dir() { return vfs::Path().child("oms"); }

class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override { support::faultsim::Injector::global().disarm(); }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
};

// Populate a small, representative image: every attribute type, text
// overwrites, links in a chosen order, an unlink, a destroy and an
// aborted transaction (for the epoch gap).
std::vector<ObjectId> populate(Store& store) {
  auto a = *store.create("Node");
  auto b = *store.create("Leaf");
  auto c = *store.create("Node");
  EXPECT_TRUE(store.set(a, "label", AttrValue(std::string("alpha"))).ok());
  EXPECT_TRUE(store.set(a, "weight", AttrValue(std::int64_t{42})).ok());
  EXPECT_TRUE(store.set(b, "ratio", AttrValue(0.375)).ok());
  EXPECT_TRUE(store.set(b, "flag", AttrValue(true)).ok());
  EXPECT_TRUE(store.set(a, "label", AttrValue(std::string("alpha-2"))).ok());
  EXPECT_TRUE(store.link("edge", a, c).ok());
  EXPECT_TRUE(store.link("edge", a, b).ok());  // order a->c before a->b
  EXPECT_TRUE(store.link("ref", b, a).ok());
  EXPECT_TRUE(store.unlink("edge", a, c).ok());
  auto d = *store.create("Node");
  EXPECT_TRUE(store.destroy(d).ok());
  EXPECT_TRUE(store.begin().ok());
  auto ghost = *store.create("Node");
  EXPECT_TRUE(store.set(ghost, "weight", AttrValue(std::int64_t{7})).ok());
  EXPECT_TRUE(store.abort().ok());  // leaves an epoch gap the WAL must pin
  EXPECT_TRUE(store.begin().ok());
  EXPECT_TRUE(store.set(c, "label", AttrValue(std::string("gamma"))).ok());
  EXPECT_TRUE(store.link("ref", c, a).ok());
  EXPECT_TRUE(store.commit().ok());
  return {a, b, c};
}

TEST_F(PersistenceTest, OpenRequiresDurabilityAttachmentAndEmptiness) {
  Store plain(persist_schema(), &clock);
  auto st = plain.open(fs, journal_dir());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::invalid_argument);
  EXPECT_FALSE(plain.wal_stats().attached);

  Store dirty(persist_schema(), &clock, durable());
  (void)*dirty.create("Node");
  EXPECT_FALSE(dirty.open(fs, journal_dir()).ok());

  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  auto again = store.open(fs, journal_dir());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::already_exists);
}

TEST_F(PersistenceTest, EmptyStoreOpenIsRecoverable) {
  {
    Store store(persist_schema(), &clock, durable());
    ASSERT_TRUE(store.open(fs, journal_dir()).ok());
    EXPECT_TRUE(store.wal_stats().attached);
    EXPECT_EQ(store.wal_stats().commit_seq, 0u);
  }
  Store reopened(persist_schema(), &clock, durable());
  ASSERT_TRUE(reopened.open(fs, journal_dir()).ok());
  EXPECT_EQ(reopened.object_count(), 0u);
  EXPECT_EQ(reopened.epoch(), 0u);
}

TEST_F(PersistenceTest, WalOnlyReopenRestoresTheImage) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  populate(store);
  const std::string before = digest(store);

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
  EXPECT_GT(recovered.wal_stats().replayed_records, 0u);
  EXPECT_EQ(recovered.wal_stats().snapshots_loaded, 0u);
  EXPECT_EQ(recovered.wal_stats().commit_seq, store.wal_stats().commit_seq);
  // Recovered ids never collide with the old image's, including ids
  // consumed by the aborted transaction.
  auto fresh = recovered.create("Node");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(store.exists(*fresh));
}

TEST_F(PersistenceTest, SnapshotOnlyReopenRestoresTheImage) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  populate(store);
  ASSERT_TRUE(store.snapshot().ok());
  const std::string before = digest(store);
  // The snapshot truncated the log back to its header.
  auto wal = fs.read_file(journal_dir().child("wal"));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(*wal, std::string(wal::kFileHeader));

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
  EXPECT_EQ(recovered.wal_stats().replayed_records, 0u);
  EXPECT_EQ(recovered.wal_stats().snapshots_loaded, 1u);
}

// A snapshot whose manifest carries a malformed number -- with a valid
// CRC, so the field parser itself must catch it -- is rejected, never
// loaded with a truncated or wrapped value.
TEST_F(PersistenceTest, MalformedManifestNumbersRejectTheSnapshot) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  populate(store);
  ASSERT_TRUE(store.snapshot().ok());
  auto listed = fs.list(journal_dir().child("snap"));
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  const vfs::Path manifest = journal_dir().child("snap").child(listed->front()).child("manifest");
  auto original = fs.read_file(manifest);
  ASSERT_TRUE(original.ok());
  const std::string body = original->substr(0, original->rfind("end "));
  const std::string real_field = " ratio real 0.375\n";
  const std::string int_field = " weight int 42\n";
  ASSERT_NE(body.find(real_field), std::string::npos);
  ASSERT_NE(body.find(int_field), std::string::npos);

  // Rewrite the manifest with `from` replaced by `to` and a fresh CRC,
  // then report how many snapshots a recovering store loads.
  auto loads_with = [&](const std::string& from, const std::string& to) {
    std::string edited = body;
    edited.replace(edited.find(from), from.size(), to);
    char trailer[32];
    std::snprintf(trailer, sizeof(trailer), "end %016llx\n",
                  static_cast<unsigned long long>(support::crc32c(edited)));
    EXPECT_TRUE(fs.write_file(manifest, edited + trailer).ok());
    Store recovered(persist_schema(), &clock, durable());
    EXPECT_TRUE(recovered.open(fs, journal_dir()).ok());
    return recovered.wal_stats().snapshots_loaded;
  };
  EXPECT_EQ(loads_with(real_field, real_field), 1u);  // the rewrite itself is sound
  for (const char* bad : {"0.375x", "0.3.75", "1e999", "0x1p3", "-"}) {
    EXPECT_EQ(loads_with(real_field, std::string(" ratio real ") + bad + "\n"), 0u) << bad;
  }
  for (const char* bad : {"42abc", "4 2", "99999999999999999999", "-"}) {
    EXPECT_EQ(loads_with(int_field, std::string(" weight int ") + bad + "\n"), 0u) << bad;
  }
}

TEST_F(PersistenceTest, SnapshotPlusTailReopenRestoresTheImage) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  auto ids = populate(store);
  ASSERT_TRUE(store.snapshot().ok());
  EXPECT_TRUE(store.set(ids[0], "weight", AttrValue(std::int64_t{1000})).ok());
  EXPECT_TRUE(store.link("edge", ids[2], ids[1]).ok());
  const std::string before = digest(store);

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
  EXPECT_EQ(recovered.wal_stats().snapshots_loaded, 1u);
  EXPECT_EQ(recovered.wal_stats().replayed_records, 2u);
}

TEST_F(PersistenceTest, CorruptTailIsDiscardedWholesale) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  populate(store);
  const std::string before = digest(store);
  auto wal = fs.read_file(journal_dir().child("wal"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(fs.write_file(journal_dir().child("wal"), *wal + "garbage tail bytes").ok());

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
  EXPECT_GT(recovered.wal_stats().discarded_bytes, 0u);
  // The rewrite scrubbed the suffix: a second recovery sees a clean log.
  Store again(persist_schema(), &clock, durable());
  ASSERT_TRUE(again.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(again), before);
  EXPECT_EQ(again.wal_stats().discarded_bytes, 0u);
}

TEST_F(PersistenceTest, TornAppendIsRepairedBeforeTheNextFlush) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  auto a = *store.create("Node");

  // The next append tears: half the frame lands, the flush fails, but
  // the commit itself stays visible in memory.
  auto plan = support::faultsim::parse_plan("vfs.append.torn@1");
  ASSERT_TRUE(plan.ok());
  support::faultsim::Injector::global().arm(std::move(*plan));
  EXPECT_TRUE(store.set(a, "label", AttrValue(std::string("survives"))).ok());
  support::faultsim::Injector::global().disarm();
  EXPECT_GE(store.wal_stats().flush_failures, 1u);
  EXPECT_GT(store.wal_stats().pending_records, 0u);

  // The following commit truncates the torn half-frame and re-appends
  // the buffered record ahead of its own -- nothing is lost.
  EXPECT_TRUE(store.set(a, "weight", AttrValue(std::int64_t{5})).ok());
  EXPECT_EQ(store.wal_stats().pending_records, 0u);
  const std::string before = digest(store);

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
  EXPECT_EQ(recovered.wal_stats().discarded_bytes, 0u);
}

TEST_F(PersistenceTest, HalfWrittenSnapshotFallsBackToOlderState) {
  Store store(persist_schema(), &clock, durable());
  ASSERT_TRUE(store.open(fs, journal_dir()).ok());
  auto ids = populate(store);
  ASSERT_TRUE(store.snapshot().ok());
  EXPECT_TRUE(store.set(ids[1], "label", AttrValue(std::string("tail"))).ok());

  // Kill the next snapshot partway through its writes: the half-written
  // directory must be rejected at recovery in favour of the previous
  // snapshot + WAL tail.
  auto plan = support::faultsim::parse_plan("oms.snapshot@1");
  ASSERT_TRUE(plan.ok());
  support::faultsim::Injector::global().arm(std::move(*plan));
  EXPECT_FALSE(store.snapshot().ok());
  support::faultsim::Injector::global().disarm();
  EXPECT_TRUE(store.set(ids[1], "weight", AttrValue(std::int64_t{9})).ok());
  const std::string before = digest(store);

  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(digest(recovered), before);
}

TEST_F(PersistenceTest, DurabilityOffIsBitIdentical) {
  // Journal into a file system with its OWN clock so the WAL appends
  // do not advance the store clock -- the ablation compares the paper's
  // volatile store against a durable one under identical stamps.
  support::SimClock store_clock, journal_clock;
  vfs::FileSystem journal_fs(&journal_clock);
  Store durable_store(persist_schema(), &store_clock, durable());
  ASSERT_TRUE(durable_store.open(journal_fs, journal_dir()).ok());
  support::SimClock plain_clock;
  Store plain(persist_schema(), &plain_clock);
  populate(durable_store);
  populate(plain);
  EXPECT_EQ(digest(durable_store), digest(plain));
  EXPECT_FALSE(plain.wal_stats().attached);
}

// ===========================================================================
// Crash-replay property: for a seeded random workload, cutting the WAL
// at ANY byte offset and recovering yields exactly the image of the
// longest committed prefix whose records survived intact.
// ===========================================================================

struct Workload {
  std::map<std::uint64_t, std::string> digest_at_seq;  // oracle, keyed by commit seq
  std::string wal_bytes;                               // final on-disk journal
};

Workload run_workload(support::SimClock& clock, vfs::FileSystem& fs, std::uint32_t seed) {
  Store store(persist_schema(), &clock, durable());
  EXPECT_TRUE(store.open(fs, journal_dir()).ok());
  support::Rng rng(seed);
  std::vector<ObjectId> live;
  Workload out;
  out.digest_at_seq[0] = digest(store);
  for (int tx = 0; tx < 30; ++tx) {
    EXPECT_TRUE(store.begin().ok());
    const std::size_t ops = 1 + rng.below(4);
    for (std::size_t i = 0; i < ops; ++i) {
      const std::uint64_t kind = rng.below(6);
      if (kind == 0 || live.size() < 2) {
        auto id = store.create(rng.chance(0.3) ? "Leaf" : "Node");
        if (id.ok()) live.push_back(*id);
      } else if (kind == 1) {
        (void)store.set(rng.pick(live), "weight",
                        AttrValue(static_cast<std::int64_t>(rng.below(1000))));
      } else if (kind == 2) {
        (void)store.set(rng.pick(live), "label", AttrValue(rng.identifier(8)));
      } else if (kind == 3) {
        (void)store.set(rng.pick(live), "ratio", AttrValue(rng.uniform()));
      } else if (kind == 4) {
        (void)store.link("edge", rng.pick(live), rng.pick(live));
      } else {
        (void)store.unlink("edge", rng.pick(live), rng.pick(live));
      }
    }
    if (live.size() > 4 && rng.chance(0.15)) {
      ObjectId victim = rng.pick(live);
      if (store.destroy(victim).ok()) live.erase(std::find(live.begin(), live.end(), victim));
    }
    if (rng.chance(0.2)) {
      EXPECT_TRUE(store.abort().ok());
      // An abort may have rolled back creates whose ids are in `live`.
      std::erase_if(live, [&](ObjectId id) { return !store.exists(id); });
    } else {
      EXPECT_TRUE(store.commit().ok());
      out.digest_at_seq[store.wal_stats().commit_seq] = digest(store);
    }
  }
  auto wal = fs.read_file(journal_dir().child("wal"));
  EXPECT_TRUE(wal.ok());
  out.wal_bytes = *wal;
  return out;
}

void expect_recovers_prefix(const std::string& cut_bytes, const Workload& oracle,
                            std::uint64_t expect_seq) {
  support::SimClock clock;
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(journal_dir()).ok());
  ASSERT_TRUE(fs.write_file(journal_dir().child("wal"), cut_bytes).ok());
  Store recovered(persist_schema(), &clock, durable());
  ASSERT_TRUE(recovered.open(fs, journal_dir()).ok());
  EXPECT_EQ(recovered.wal_stats().commit_seq, expect_seq);
  ASSERT_TRUE(oracle.digest_at_seq.contains(expect_seq));
  EXPECT_EQ(digest(recovered), oracle.digest_at_seq.at(expect_seq));
}

TEST_F(PersistenceTest, CrashReplayMatchesCommittedPrefixAtEveryCut) {
  for (std::uint32_t seed : jfm::testing::test_seeds("oms_persistence", {1, 2, 3, 4})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    support::SimClock wclock;
    vfs::FileSystem wfs(&wclock);
    const Workload oracle = run_workload(wclock, wfs, seed);

    const std::string header(wal::kFileHeader);
    ASSERT_EQ(oracle.wal_bytes.substr(0, header.size()), header);
    const std::string body = oracle.wal_bytes.substr(header.size());
    const wal::ScanResult scanned = wal::scan(body);
    ASSERT_FALSE(scanned.torn);
    ASSERT_FALSE(scanned.records.empty());
    ASSERT_EQ(scanned.valid_bytes, body.size());

    // Every record boundary, including the empty log.
    expect_recovers_prefix(header, oracle, 0);
    for (std::size_t i = 0; i < scanned.records.size(); ++i) {
      expect_recovers_prefix(header + body.substr(0, scanned.record_ends[i]), oracle,
                             scanned.records[i].seq);
    }
    // Mid-record cuts: a torn final frame is discarded, recovering the
    // previous boundary. Sample a few offsets inside random records.
    support::Rng rng(seed ^ 0x9e3779b9u);
    for (int probe = 0; probe < 6; ++probe) {
      const std::size_t i = rng.below(scanned.records.size());
      const std::uint64_t begin = i == 0 ? 0 : scanned.record_ends[i - 1];
      const std::uint64_t end = scanned.record_ends[i];
      if (end - begin < 2) continue;
      const std::uint64_t cut = begin + 1 + rng.below(end - begin - 1);
      expect_recovers_prefix(header + body.substr(0, cut), oracle,
                             i == 0 ? 0 : scanned.records[i - 1].seq);
    }
    // A cut inside the file header itself discards everything.
    expect_recovers_prefix(header.substr(0, 3), oracle, 0);
  }
}

}  // namespace
}  // namespace jfm::oms
