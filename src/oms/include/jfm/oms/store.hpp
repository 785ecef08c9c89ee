#pragma once
// OMS object store: typed objects, bidirectional relationships and
// journaled transactions.
//
// JCF keeps *everything* -- metadata (teams, flows, activities) and
// design data blobs -- in OMS. The paper stresses two properties this
// store reproduces:
//   * the data are "completely under the control of the framework";
//     there is no direct access to internal structures (s2.1) -- the
//     public API is the only way in;
//   * encapsulated tools exchange data by export/import through the
//     file system (dump.hpp), never by pointer sharing.
//
// Mutations outside an explicit transaction auto-commit; inside a
// transaction they are journaled and can be rolled back atomically.
//
// Query engine (docs/oms-indexing.md): every name resolution in the
// frameworks above funnels through find/find_one/objects_of, so the
// store maintains secondary indexes alongside the primary object map:
//   * a per-class live-object index (subclass fan-in resolved once
//     against the frozen schema) behind objects_of;
//   * hash indexes keyed (class, attr, value) behind find/find_one;
//   * per-relation edge sets behind linked() and the duplicate-edge
//     check in link(), alongside the ordered adjacency vectors that
//     keep targets()/sources() in link order.
// Index maintenance is transactional -- the undo journal restores the
// indexes exactly on abort().
//
// Change tracking (docs/incremental-checkout.md): the store carries a
// monotonic mutation epoch, bumped on every mutation. Every live
// object is stamped with the epoch of its last mutation, and a
// per-class epoch-ordered index answers objects_changed_since() in
// O(changed) -- no full scans. Stamps are journaled exactly like the
// secondary indexes, so abort() restores them; the epoch counter
// itself never moves backwards (aborted work leaves a gap, which is
// harmless: consumers only ever ask "changed since E").
//
// Read isolation (docs/concurrency.md): the store carries one
// reader-writer lock. All const queries (get*/targets/sources/
// objects_of/find*/linked/exists/class_of) take shared access -- the
// indexes are only read under it -- so many exporters can resolve DOV
// attributes concurrently; every mutation and the transaction
// machinery take exclusive access, which is where the indexes are
// maintained. Readers that interleave with a multi-operation
// transaction observe individual committed operations (read-committed
// per call, not snapshot isolation) -- the single-writer discipline of
// the framework layers above keeps that sound. Dump (friend) locks the
// same mutex around its whole-store walks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "jfm/oms/schema.hpp"
#include "jfm/oms/wal.hpp"
#include "jfm/support/clock.hpp"
#include "jfm/support/ids.hpp"
#include "jfm/support/result.hpp"
#include "jfm/vfs/path.hpp"

namespace jfm::vfs {
class FileSystem;
}  // namespace jfm::vfs

namespace jfm::oms {

struct ObjectTag {
  static constexpr const char* prefix() { return "obj#"; }
};
using ObjectId = support::Id<ObjectTag>;

/// A refcounted immutable text payload, structurally identical to
/// vfs::Extent (docs/vfs-cow.md). Text attributes are stored as
/// extents internally, so get_text_extent() hands the blob out as a
/// refcount bump and the transfer layer can publish it into the file
/// system without ever materializing a private duplicate: one buffer
/// is shared by the store, its value index, the undo journal and every
/// checked-out file. set() replaces an attribute's extent, it never
/// mutates it, so a handed-out extent stays bit-stable forever.
using TextExtent = std::shared_ptr<const std::string>;

/// Constant-size summary of a text attribute -- exactly what a
/// content-addressed cache probe needs, with no payload access at all.
struct TextFingerprint {
  std::uint64_t hash = 0;
  std::uint64_t size = 0;
};

/// One row of objects_changed_since(): a live object and the epoch of
/// its last committed mutation.
struct ChangedObject {
  ObjectId id;
  std::uint64_t modified = 0;
};

struct StoreOptions {
  /// Durability mode (docs/persistence.md). `off` keeps the purely
  /// in-memory behaviour bit-identically -- the ablation every
  /// existing caller rides on; `wal` enables Store::open(), which
  /// attaches the store to a vfs directory and appends one CRC-framed
  /// redo record per committed transaction.
  enum class Durability { off, wal };
  Durability durability = Durability::off;
};

class Store {
 public:
  Store(Schema schema, support::SimClock* clock, StoreOptions options = {});

  const Schema& schema() const noexcept { return schema_; }
  const StoreOptions& options() const noexcept { return options_; }

  // -- objects -----------------------------------------------------------
  support::Result<ObjectId> create(std::string_view class_name);
  support::Status destroy(ObjectId id);  ///< also drops all links touching id
  bool exists(ObjectId id) const noexcept;
  support::Result<std::string> class_of(ObjectId id) const;
  std::size_t object_count() const noexcept;

  // -- attributes --------------------------------------------------------
  support::Status set(ObjectId id, std::string_view attr, AttrValue value);
  /// Zero-copy twin of set() for text attributes: the store adopts the
  /// caller's extent instead of materializing a private string, so a
  /// blob imported from the file system is ONE buffer shared by the
  /// file, the attribute and the value index. Fails with
  /// invalid_argument when the attribute is not declared text.
  support::Status set_text(ObjectId id, std::string_view attr, TextExtent value);
  support::Result<AttrValue> get(ObjectId id, std::string_view attr) const;
  /// Typed accessors; fail with invalid_argument on type mismatch.
  support::Result<std::int64_t> get_int(ObjectId id, std::string_view attr) const;
  support::Result<std::string> get_text(ObjectId id, std::string_view attr) const;
  support::Result<bool> get_bool(ObjectId id, std::string_view attr) const;
  support::Result<double> get_real(ObjectId id, std::string_view attr) const;
  /// Zero-copy twin of get_text: returns the attribute's stored extent
  /// (a refcount bump, no byte traffic). The extent is immutable; a
  /// later set() on the attribute installs a new one.
  support::Result<TextExtent> get_text_extent(ObjectId id, std::string_view attr) const;
  /// Hash + size of a text attribute WITHOUT handing out the payload:
  /// the O(1) warm-path probe (after the hash memo is populated). The
  /// first call per buffer hashes it (O(size), counted under
  /// oms.text.hash.*) and memoizes; every later call -- on this
  /// attribute, a journal copy or an index key sharing the buffer -- is
  /// O(1).
  support::Result<TextFingerprint> text_fingerprint(ObjectId id, std::string_view attr) const;

  // -- relationships -----------------------------------------------------
  support::Status link(std::string_view relation, ObjectId from, ObjectId to);
  support::Status unlink(std::string_view relation, ObjectId from, ObjectId to);
  bool linked(std::string_view relation, ObjectId from, ObjectId to) const;
  /// Targets of `from` under `relation`, in link order.
  support::Result<std::vector<ObjectId>> targets(std::string_view relation, ObjectId from) const;
  /// Sources pointing at `to` under `relation`, in link order.
  support::Result<std::vector<ObjectId>> sources(std::string_view relation, ObjectId to) const;

  // -- queries -----------------------------------------------------------
  /// All live objects of `class_name` (including subclasses), id order.
  std::vector<ObjectId> objects_of(std::string_view class_name) const;
  /// Objects of `class_name` whose attribute equals `value`, id order.
  std::vector<ObjectId> find(std::string_view class_name, std::string_view attr,
                             const AttrValue& value) const;
  /// First match of find(), if any.
  std::optional<ObjectId> find_one(std::string_view class_name, std::string_view attr,
                                   const AttrValue& value) const;

  // -- change tracking ---------------------------------------------------
  /// The store-wide mutation epoch: 0 for a pristine store, bumped on
  /// every mutation (create/destroy/set/link/unlink). Lock-free --
  /// callable concurrently with mutators -- so a consumer can snapshot
  /// it BEFORE reading state and later ask "what changed since".
  std::uint64_t epoch() const noexcept { return epoch_.load(std::memory_order_acquire); }
  /// Live objects of `class_name` (including subclasses) whose last
  /// mutation is AFTER `epoch`, in id order. Served from the per-class
  /// epoch index: O(changed + log n), never a store scan. Objects
  /// destroyed since simply drop out (live objects only), and an
  /// aborted transaction restores the stamps it touched, so committed
  /// state alone is visible.
  std::vector<ChangedObject> objects_changed_since(std::string_view class_name,
                                                   std::uint64_t epoch) const;

  // -- transactions ------------------------------------------------------
  support::Status begin();
  support::Status commit();
  support::Status abort();  ///< roll back everything since begin()
  bool in_transaction() const noexcept {
    return tx_open_.load(std::memory_order_relaxed);
  }

  support::Timestamp created_at(ObjectId id) const;

  // -- durability (docs/persistence.md) ----------------------------------
  /// Attach this store to durability directory `dir` inside `fs` and
  /// recover whatever committed state the directory holds: load the
  /// latest CRC-valid snapshot, replay the WAL tail on top of it and
  /// physically discard any torn/corrupt suffix. Requires
  /// durability=wal, an empty store and no prior attach; after open()
  /// every committed transaction is encoded into the WAL.
  support::Status open(vfs::FileSystem& fs, const vfs::Path& dir);
  /// Append any records a failed commit-time flush left buffered to
  /// the WAL now. A failed flush keeps the records buffered for retry
  /// -- commit() itself never fails on WAL I/O.
  support::Status flush_wal();
  /// Write a full snapshot of the store image and truncate the WAL.
  /// Payload bytes are published as COW extents (refcount-pinned, not
  /// copied) keyed by their memoized content hash.
  support::Status snapshot();

  /// Durability introspection for `stats wal` and the tests. All
  /// counters are per-store; the oms.wal.* / oms.snapshot.* telemetry
  /// counters aggregate the same events process-wide.
  struct WalStats {
    bool attached = false;
    std::uint64_t commit_seq = 0;       ///< last committed record sequence
    std::uint64_t snapshot_seq = 0;     ///< sequence the snapshot covers
    std::uint64_t pending_records = 0;  ///< encoded, not yet appended
    std::uint64_t appended_records = 0;
    std::uint64_t appended_bytes = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flush_failures = 0;
    std::uint64_t replayed_records = 0;  ///< applied by the last open()
    std::uint64_t discarded_bytes = 0;   ///< torn suffix dropped at open()
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshots_loaded = 0;
  };
  WalStats wal_stats() const;

 private:
  friend class Dump;

  /// Lazily-filled FNV-1a memo for one immutable text buffer. Shared
  /// (by shared_ptr) between every StoredValue copy that shares the
  /// buffer -- attribute slot, index key, journal pre-image -- so the
  /// memo is coherent BY CONSTRUCTION: an undo that restores an old
  /// extent restores its memo with it, and no invalidation logic ever
  /// exists. Filled under the store's shared lock (atomic publish,
  /// valid released after hash; concurrent fillers compute identical
  /// values).
  struct TextHashMemo {
    std::atomic<std::uint64_t> hash{0};
    std::atomic<bool> valid{false};
  };

  /// The text alternative of StoredValue: the extent plus its hash
  /// memo. The memo pointer is never null for values the store holds.
  struct StoredText {
    TextExtent text;
    std::shared_ptr<TextHashMemo> memo;
  };

  /// Internal attribute representation: AttrValue with the text
  /// alternative swapped for a refcounted extent + hash memo (same
  /// alternative order, so the two variants agree on index()).
  /// Everything the store retains -- the attribute maps, the value
  /// index keys, the undo-journal closures -- holds StoredValue, so
  /// one text blob is one buffer (and one memo) no matter how many
  /// structures reference it, and journaling a text overwrite is a
  /// refcount bump instead of a payload copy. Conversion to/from the
  /// public AttrValue happens at the API boundary (to_stored/to_attr).
  using StoredValue = std::variant<std::int64_t, double, StoredText, bool>;

  static StoredText make_stored_text(TextExtent text);
  /// The buffer's FNV-1a, from the memo when valid, computed-and-
  /// published otherwise (misses counted under oms.text.hash.*).
  static std::uint64_t memoized_hash(const StoredText& stored);

  static StoredValue to_stored(AttrValue value);
  static AttrValue to_attr(const StoredValue& value);
  /// Content equality across the representation boundary (extents
  /// compare by the bytes they hold, never by buffer identity).
  static bool stored_equals(const StoredValue& stored, const AttrValue& value) noexcept;

  struct Object {
    std::string class_name;
    std::map<std::string, StoredValue, std::less<>> attrs;
    support::Timestamp created = 0;
    /// Epoch of the last committed mutation touching this object
    /// (0 = never stamped). Journal-restored on abort, mirrored in
    /// epoch_index_. Not serialized by Dump: a restored store starts
    /// its epoch history fresh (docs/incremental-checkout.md).
    std::uint64_t modified = 0;
  };

  using Edge = std::pair<ObjectId, ObjectId>;
  struct EdgeHash {
    std::size_t operator()(const Edge& e) const noexcept {
      return std::hash<std::uint64_t>{}((e.first.raw() * 0x9E3779B97F4A7C15ull) ^
                                        e.second.raw());
    }
  };

  struct RelationIndex {
    std::unordered_map<ObjectId, std::vector<ObjectId>> forward;
    std::unordered_map<ObjectId, std::vector<ObjectId>> backward;
    /// O(1) membership twin of the adjacency vectors: linked() and the
    /// duplicate-edge check in link() hit this set instead of scanning
    /// O(degree) vectors.
    std::unordered_set<Edge, EdgeHash> edges;
  };

  /// Hash/equality for the value index, transparent (C++20
  /// heterogeneous lookup) across StoredValue and AttrValue: extents
  /// hash and compare by content, and the two variants share
  /// alternative indices, so a query carrying a plain AttrValue probes
  /// the StoredValue-keyed buckets without allocating a conversion.
  struct ValueHash {
    using is_transparent = void;
    std::size_t operator()(const StoredValue& value) const noexcept;
    std::size_t operator()(const AttrValue& value) const noexcept;
  };
  struct ValueEq {
    using is_transparent = void;
    bool operator()(const StoredValue& a, const StoredValue& b) const noexcept;
    bool operator()(const StoredValue& a, const AttrValue& b) const noexcept;
    bool operator()(const AttrValue& a, const StoredValue& b) const noexcept;
  };
  /// value -> live objects of one exact class carrying it; std::set so
  /// the smallest id (find_one's answer) is bucket.begin().
  using ValueBucket = std::unordered_map<StoredValue, std::set<ObjectId>, ValueHash, ValueEq>;

  // transaction journal: undo closures applied in reverse on abort
  void journal(std::function<void()> undo);

  void erase_object_links(ObjectId id);
  /// Shared body of set()/set_text(): install `value` on an existing
  /// object, maintaining the value index and the undo journal. mu_
  /// held exclusively; the attribute is already schema-validated.
  support::Status set_stored(ObjectId id, Object& obj, std::string_view attr,
                             StoredValue value);
  support::Status link_nocheck(const RelationDef& rel, ObjectId from, ObjectId to);
  // lock-free bodies of destroy()/unlink(), shared with WAL replay
  support::Status destroy_locked(ObjectId id);
  support::Status unlink_locked(std::string_view relation, ObjectId from, ObjectId to);

  // -- secondary-index maintenance (mu_ held exclusively) ----------------
  void index_add_object(ObjectId id, const Object& obj);     ///< class + attr entries
  void index_remove_object(ObjectId id, const Object& obj);  ///< class + attr entries
  void index_add_attr(ObjectId id, const std::string& cls, std::string_view attr,
                      const StoredValue& value);
  void index_remove_attr(ObjectId id, const std::string& cls, std::string_view attr,
                         const StoredValue& value);
  void edge_insert(RelationIndex& index, ObjectId from, ObjectId to);
  void edge_erase(RelationIndex& index, ObjectId from, ObjectId to);

  // -- epoch maintenance (mu_ held exclusively) --------------------------
  /// Bump the store epoch, restamp `obj`, move its epoch-index entry
  /// and journal the restoration of the previous stamp.
  void touch(ObjectId id, Object& obj);
  void epoch_entry_insert(const std::string& cls, std::uint64_t epoch, ObjectId id);
  void epoch_entry_erase(const std::string& cls, std::uint64_t epoch, ObjectId id);

  // -- durability internals (persist.cpp; mu_ held exclusively) ----------
  /// Whether mutators should record WAL ops: attached, and not inside
  /// recovery replay or a Dump import (both re-snapshot instead).
  bool wal_active() const noexcept { return journal_fs_ != nullptr && !replaying_; }
  /// Capture protocol: before emitting a mutation's bytes into
  /// wal_pending_ call wal_note_op(e0) (stamps the record's epoch
  /// bracket and opens the frame-header slot on the first op), after
  /// the mutation succeeded call wal_op_done() (counts it; outside a
  /// transaction, packages the single-op record immediately). The emit
  /// itself is a direct wal::emit_* append behind the open frame of
  /// wal_pending_ -- no Op objects, no per-op allocations, and sealing
  /// the record (wal_package) backpatches the header in place instead
  /// of copying the ops.
  void wal_note_op(std::uint64_t epoch_before) {
    if (tx_wal_op_count_ == 0) {
      tx_epoch_before_ = epoch_before;
      tx_frame_base_ = wal::open_frame(wal_pending_);
    }
  }
  void wal_op_done() {
    ++tx_wal_op_count_;
    // Auto-commit: one mutation outside a transaction is one committed
    // transaction, packaged immediately.
    if (!tx_open_.load(std::memory_order_relaxed)) wal_package();
  }
  /// Seal the buffered tx ops into the next commit record and flush
  /// it (a failed flush keeps it buffered for the next one).
  void wal_package();
  /// Re-apply the journal preallocation (kWalPreallocateBytes in
  /// persist.cpp) after the WAL file was created, truncated or
  /// rewritten. Best effort: the reservation is a performance hint.
  void wal_preallocate_locked();
  support::Status wal_flush_locked();
  /// After a failed append the file may hold a torn half-record;
  /// truncate it back to the last durable byte before appending again.
  support::Status wal_repair_tail();
  support::Status write_snapshot_locked();
  support::Status load_snapshot_locked(vfs::FileSystem& fs, const vfs::Path& dir,
                                       std::uint64_t seq, std::uint64_t& max_id);
  /// Re-execute one WAL record through the mutator paths, pinning the
  /// epoch counter to the recorded bracket.
  support::Status apply_record(const wal::Record& rec, std::uint64_t& max_id);
  /// Drop all store state back to pristine (between snapshot-load
  /// attempts during recovery).
  void reset_locked();
  vfs::Path wal_path() const { return journal_dir_.child("wal"); }
  vfs::Path snap_root() const { return journal_dir_.child("snap"); }

  Schema schema_;
  support::SimClock* clock_;
  StoreOptions options_;
  support::IdAllocator<ObjectTag> ids_;
  // shared for const queries, exclusive for mutations/transactions
  mutable std::shared_mutex mu_;
  std::unordered_map<ObjectId, Object> objects_;
  std::map<std::string, RelationIndex, std::less<>> relations_;
  // live objects per exact class; objects_of unions the schema's
  // subclass closure over it
  std::map<std::string, std::set<ObjectId>, std::less<>> class_index_;
  // exact class -> attr -> value -> live objects; find/find_one union
  // the subclass closure over it
  std::map<std::string, std::map<std::string, ValueBucket, std::less<>>, std::less<>>
      attr_index_;
  // exact class -> last-modified epoch -> live object. Written under
  // mu_ exclusive alongside the object stamp; objects_changed_since
  // walks upper_bound(epoch)..end per subclass. Stamps are unique per
  // object (each touch() issues a fresh epoch), so the value is a
  // single id, and a set<> per epoch is unnecessary.
  std::map<std::string, std::map<std::uint64_t, ObjectId>, std::less<>> epoch_index_;
  // store-wide mutation epoch; bumped under mu_ exclusive, read
  // lock-free by epoch()
  std::atomic<std::uint64_t> epoch_{0};
  std::vector<std::function<void()>> undo_log_;
  std::atomic<bool> tx_open_{false};

  // -- durability state (docs/persistence.md); all under mu_ exclusive ---
  vfs::FileSystem* journal_fs_ = nullptr;  ///< null until open() succeeds
  vfs::Path journal_dir_;
  bool replaying_ = false;  ///< inside open() replay or a Dump import
  std::uint64_t commit_seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::uint64_t tx_epoch_before_ = 0;  ///< epoch at the tx's first captured op
  // Offset of the open transaction's frame-header slot inside
  // wal_pending_; valid while tx_wal_op_count_ > 0. Ops are captured
  // directly as encoded bytes behind it (wal::emit_*), commit
  // backpatches the header in place, abort resizes the buffer back.
  std::size_t tx_frame_base_ = 0;
  std::uint32_t tx_wal_op_count_ = 0;
  // Sealed frames awaiting append -- plus, past tx_frame_base_, the
  // open frame of the in-flight transaction -- concatenated into one
  // buffer so a flush hands the vfs a single contiguous batch (more
  // than one record only after a failed flush); capacity is retained
  // across flushes.
  std::string wal_pending_;
  std::uint64_t wal_pending_count_ = 0;  ///< sealed records inside wal_pending_
  std::uint64_t wal_expected_bytes_ = 0;  ///< durable WAL size after last success
  bool wal_tail_dirty_ = false;           ///< a failed append may have torn the tail
  // per-store stat mirrors of the oms.wal.* / oms.snapshot.* telemetry
  std::uint64_t wal_appended_records_ = 0;
  std::uint64_t wal_appended_bytes_ = 0;
  std::uint64_t wal_flushes_ = 0;
  std::uint64_t wal_flush_failures_ = 0;
  std::uint64_t wal_replayed_records_ = 0;
  std::uint64_t wal_discarded_bytes_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshots_loaded_ = 0;
};

}  // namespace jfm::oms
