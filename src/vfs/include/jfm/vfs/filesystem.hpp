#pragma once
// In-memory UNIX-like file system with real byte payloads.
//
// This is the substrate both frameworks share (paper s2.1/s2.2): FMCAD
// libraries are directories, JCF encapsulation copies design data
// "to and from the database via the UNIX file system". Payloads are real
// strings, so copying an N-byte design really moves N bytes in the
// paper-faithful mode -- the s3.6 size-scaling benchmark measures
// physical work, not a model.
//
// Copy-on-write extents (docs/vfs-cow.md): each file's payload is a
// refcounted immutable buffer (an Extent). With FsOptions::cow_extents
// enabled (the default), copy_file shares the source's extent with the
// destination -- an O(1) refcount bump instead of an O(size) byte
// duplication -- and a later mutation of either file installs a fresh
// buffer (sharing is broken, never observed by readers). cow_extents =
// false restores the paper's physical byte-moving behaviour: every copy
// materializes a private duplicate. Both modes produce bit-identical
// file contents and identical *logical* I/O counters; only the
// physical counters and the wall clock differ.
//
// The file system keeps two families of I/O accounting:
//   * logical counters (bytes_read / bytes_written / bytes_copied):
//     the paper's cost model -- every operation counts its payload size
//     regardless of sharing, so the s3.6 byte-scaling ablation and the
//     4x transfer-cache claims stay comparable across COW modes;
//   * physical counters (bytes_physical_*): bytes actually duplicated
//     into a new buffer. Under COW a copy_file adds zero.
//
// Thread-safety (docs/concurrency.md): TWO-LEVEL striped locking.
//   * the TREE lock (one reader-writer lock) guards structure only:
//     children maps, node existence, directory metadata. Lookups take
//     it shared; structure changes (mkdir, remove, node creation,
//     copy_tree, append_file) take it exclusive.
//   * a fixed array of PAYLOAD SHARDS (FsOptions::lock_shards
//     reader-writer locks, keyed by node identity) guards a file
//     node's payload state: its extent, hash memo and mtime. Readers
//     take the node's shard shared; a payload overwrite takes it
//     exclusive -- while holding the tree lock only SHARED, so eight
//     workers publishing eight different files no longer serialize on
//     one global lock.
// Lock order: tree before shards; multiple shards (copy_file's
// two-endpoint fast path) in ascending shard index; at most two shards
// are ever held. Operations that hold the tree lock exclusively need no
// shard locks -- payload writers hold the tree lock shared, so tree-
// exclusive access excludes them all. The I/O counters and the quota
// are atomics (the quota check is a CAS loop); extents themselves are
// immutable once published, and the shared_ptr control block makes
// cross-thread refcounting safe.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "jfm/support/clock.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/support/result.hpp"
#include "jfm/vfs/path.hpp"

namespace jfm::vfs {

/// The framework's content-hash primitive now lives in support (so the
/// OMS store memoizes the exact hash the transfer cache verifies);
/// re-exported here for the vfs-level callers that grew up with it.
using support::fnv1a;
inline constexpr std::uint64_t kFnv1aOffset = support::kFnv1aOffset;
inline constexpr std::uint64_t kFnv1aPrime = support::kFnv1aPrime;

/// A refcounted immutable payload buffer. Extents are the currency of
/// the zero-copy data path: the OMS store, the transfer engine, the
/// checkout journal and the file system all hold references to the
/// same buffer instead of materializing private duplicates. An extent
/// handed out by read_extent stays valid and bit-stable forever --
/// writers replace a file's extent, they never mutate it.
using Extent = std::shared_ptr<const std::string>;

/// Wrap a byte payload into a fresh extent (one materialization).
inline Extent make_extent(std::string data) {
  return std::make_shared<const std::string>(std::move(data));
}

struct FsOptions {
  /// Share payload extents on copy (O(1) logical copies) and break
  /// sharing only when a co-owned buffer is mutated. false restores
  /// the paper-faithful physical duplication on every copy; it exists
  /// as the bench_s36 ablation and must produce bit-identical file
  /// contents and logical counters.
  bool cow_extents = true;
  /// Number of payload shard locks (clamped to >= 1). More shards =
  /// less false sharing between writers of unrelated files; the
  /// default comfortably exceeds any realistic worker count.
  std::size_t lock_shards = 64;
};

struct FileStat {
  std::uint64_t size = 0;
  support::Timestamp mtime = 0;
  bool is_directory = false;
};

/// Point-in-time copy of the I/O accounting; counters() returns one by
/// value so callers never observe a counter mid-update.
struct IoCounters {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_copied = 0;  ///< subset of read+written moved by copy ops
  std::uint64_t files_copied = 0;
  std::uint64_t hash_ops = 0;      ///< content_hash() calls answered
  std::uint64_t hash_bytes = 0;    ///< bytes actually hashed (cache misses only)
  // -- physical accounting (docs/vfs-cow.md) ------------------------------
  // The logical counters above model the paper's cost; these count what
  // the process really duplicated. bytes_physical_copied is the subset
  // of bytes_copied that was memcpy'd into a new buffer (zero for a
  // shared COW copy); bytes_physical_written counts every byte that
  // landed in a newly materialized extent (write_file always, a
  // write_extent only when the ablation forces a private clone).
  std::uint64_t bytes_physical_written = 0;
  std::uint64_t bytes_physical_copied = 0;
};

/// Copy-on-write accounting: event counters since construction (or
/// reset_counters) plus a live walk of the tree. cow_snapshot() returns
/// one by value and refreshes the vfs.cow.live.* gauges.
struct CowStats {
  // event counters
  std::uint64_t shared_copies = 0;   ///< copies served by a refcount bump
  std::uint64_t broken_extents = 0;  ///< mutations that replaced a co-owned buffer
  std::uint64_t bytes_saved = 0;     ///< payload bytes sharing did NOT duplicate
  std::uint64_t bytes_cloned = 0;    ///< payload bytes break-of-sharing DID duplicate
  // live state (computed by walking the tree under the shared lock)
  std::uint64_t live_files = 0;        ///< file nodes in the tree
  std::uint64_t live_extents = 0;      ///< distinct payload buffers
  std::uint64_t live_shared_extents = 0;  ///< distinct buffers referenced by >1 file
  std::uint64_t logical_bytes = 0;     ///< sum of file sizes
  std::uint64_t physical_bytes = 0;    ///< sum of distinct extent sizes
};

class FileSystem {
 public:
  /// The clock stamps mtimes; it is borrowed, not owned, so one clock
  /// can drive the whole simulated environment.
  explicit FileSystem(support::SimClock* clock, FsOptions options = {});

  const FsOptions& options() const noexcept { return options_; }

  // -- directories -------------------------------------------------------
  support::Status mkdir(const Path& path);   ///< parent must exist
  support::Status mkdirs(const Path& path);  ///< mkdir -p
  /// Sorted names of entries in a directory.
  support::Result<std::vector<std::string>> list(const Path& dir) const;

  // -- files -------------------------------------------------------------
  support::Status write_file(const Path& path, std::string data);  ///< create/overwrite
  support::Status append_file(const Path& path, std::string_view data);

  /// Preallocate an existing file's payload buffer to `capacity` bytes
  /// and pre-fault the pages -- the fallocate analog real databases
  /// apply to their log files. Logical state (contents, size, mtime,
  /// content hash, quota usage) is untouched; only the buffer backing
  /// future append_file growth changes, so appends within the reserved
  /// capacity are pure memcpy with no reallocation and no first-touch
  /// page faults on the commit path. Appending past the reservation
  /// simply falls back to amortized growth. A co-owned extent is
  /// cloned first (counted as a COW break, like append), preserving
  /// the bit-stability contract for existing references.
  support::Status reserve_file(const Path& path, std::size_t capacity);
  support::Result<std::string> read_file(const Path& path) const;

  /// Zero-copy read: the returned extent shares the file's payload
  /// buffer (a refcount bump, no byte traffic beyond the logical read
  /// accounting). The extent is immutable and survives any later write
  /// to -- or removal of -- the file; the checkout journal's pre-image
  /// capture is built on exactly this guarantee.
  support::Result<Extent> read_extent(const Path& path) const;

  /// Publish an extent at `path` (create/overwrite). With cow_extents
  /// the file shares the caller's buffer -- O(1), no duplication; the
  /// ablation clones it into a private buffer instead. Counts as a
  /// logical write either way. A `hash` the caller already knows for
  /// exactly these bytes seeds the destination's content-hash memo
  /// instead of invalidating it, so a post-publish content_hash (the
  /// transfer cache's verify probe) is O(1) with zero bytes hashed. The
  /// caller vouches that `*hash == fnv1a(*data)`; the ablation's clone
  /// holds identical bytes, so the memo stays truthful there too.
  support::Status write_extent(const Path& path, Extent data,
                               std::optional<std::uint64_t> hash = {});

  // -- shared ------------------------------------------------------------
  bool exists(const Path& path) const;
  bool is_directory(const Path& path) const;
  support::Result<FileStat> stat(const Path& path) const;
  /// FNV-1a hash of a file's payload. The hash is memoized per node and
  /// invalidated by writes, so repeated calls on an unchanged file cost
  /// O(1); `hash_ops` counts every call, `hash_bytes` only real work.
  /// Concurrent callers may both compute the (identical) hash; the
  /// memo is an atomic publish, never a race.
  support::Result<std::uint64_t> content_hash(const Path& path) const;
  support::Status remove(const Path& path, bool recursive = false);

  /// Copy one file; dst parent must exist. This is the paper's
  /// encapsulation data path, so it updates the logical copy counters
  /// in both modes. With cow_extents the destination shares the
  /// source's extent (O(1), zero physical bytes); the ablation
  /// duplicates the payload. The destination inherits the source's
  /// memoized content hash, so a post-copy content_hash(dst) is O(1)
  /// when the source's hash was already known -- the transfer cache's
  /// verify-by-hash probe relies on this.
  support::Status copy_file(const Path& src, const Path& dst);
  /// Recursively copy a directory tree (creates dst). Shares extents
  /// per file under COW, duplicates under the ablation.
  support::Status copy_tree(const Path& src, const Path& dst);

  /// Total payload bytes under a path (file -> its size). Logical:
  /// shared extents count once per file referencing them.
  support::Result<std::uint64_t> tree_size(const Path& path) const;
  /// All file paths under `root`, depth-first, sorted.
  support::Result<std::vector<Path>> walk_files(const Path& root) const;

  IoCounters counters() const noexcept;
  void reset_counters() noexcept;

  /// COW accounting: event counters + a live tree walk (shared lock).
  /// Also refreshes the vfs.cow.live.* telemetry gauges.
  CowStats cow_snapshot() const;

  /// Disk-capacity quota for failure injection: writes that would push
  /// the total payload past `bytes` fail with Errc::io_error ("no space
  /// left on device"). 0 = unlimited (default). The quota tracks
  /// *logical* bytes -- a COW-shared copy still charges its full size,
  /// exactly like the paper's real file system would -- so quota
  /// behaviour is identical across COW modes. Shrinking below current
  /// usage only affects future growth.
  void set_capacity(std::uint64_t bytes) noexcept {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t capacity() const noexcept { return capacity_.load(std::memory_order_relaxed); }
  std::uint64_t used_bytes() const noexcept {
    return used_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    bool dir = false;
    Extent data;  // file payload; never null for files, immutable once set
    // True only while `data` points at a buffer append_file itself
    // allocated (as a non-const string) and nothing else has ever
    // replaced. Together with use_count()==1 under the exclusive tree
    // lock it licenses the in-place append fast path: growing the
    // buffer is O(appended bytes) amortized instead of O(file), which
    // is what keeps WAL appends (docs/persistence.md) off a quadratic
    // cliff. Any handed-out reference forces the copy path, so the
    // "extents are bit-stable while referenced" contract holds.
    bool appendable = false;
    std::map<std::string, std::unique_ptr<Node>> children;  // dir entries, sorted
    support::Timestamp mtime = 0;
    // Memoized fnv1a(*data). hash_valid is published with release order
    // after cached_hash so shared-lock readers see a consistent pair.
    mutable std::atomic<std::uint64_t> cached_hash{0};
    mutable std::atomic<bool> hash_valid{false};

    const std::string& payload() const noexcept { return *data; }
  };

  /// Atomic twin of IoCounters: bumped from shared-lock read paths.
  struct AtomicIoCounters {
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> bytes_copied{0};
    std::atomic<std::uint64_t> files_copied{0};
    std::atomic<std::uint64_t> hash_ops{0};
    std::atomic<std::uint64_t> hash_bytes{0};
    std::atomic<std::uint64_t> bytes_physical_written{0};
    std::atomic<std::uint64_t> bytes_physical_copied{0};
  };

  struct AtomicCowCounters {
    std::atomic<std::uint64_t> shared_copies{0};
    std::atomic<std::uint64_t> broken_extents{0};
    std::atomic<std::uint64_t> bytes_saved{0};
    std::atomic<std::uint64_t> bytes_cloned{0};
  };

  /// A payload shard: guards the extent, hash memo and mtime of every
  /// file node that hashes to it. See the locking rules above.
  struct Shard {
    std::shared_mutex mu;
  };

  /// Which shard guards this node's payload. Keyed by node identity
  /// (the address is stable for the node's lifetime and available to
  /// tree walkers that never formed a path string).
  std::size_t shard_index(const void* node) const noexcept;
  Shard& shard_of(const Node& node) const noexcept;

  // All helpers below require mu_ to be held by the caller (shared is
  // enough for the const ones, exclusive for the mutating ones).
  const Node* find(const Path& path) const;
  Node* find(const Path& path);
  support::Status mkdir_locked(const Path& path);
  /// create/overwrite `path` with `data`; when `known_hash` is set the
  /// destination's hash memo is seeded instead of invalidated (the
  /// copy-propagation fast path). `physical` says whether the buffer
  /// was freshly materialized (physical accounting) or shared.
  /// Requires mu_ EXCLUSIVE (and therefore no shard locks).
  support::Status write_extent_locked(const Path& path, Extent data,
                                      std::optional<std::uint64_t> known_hash, bool physical);
  /// Replace an existing file node's payload. Requires mu_ SHARED plus
  /// the node's shard EXCLUSIVE.
  support::Status overwrite_locked(Node& node, Extent data,
                                   std::optional<std::uint64_t> known_hash, bool physical);
  /// The striped create/overwrite entry point behind every write_*:
  /// existing files are overwritten under tree-shared + shard-exclusive
  /// (the hot parallel path); creation falls back to tree-exclusive.
  support::Status publish_extent(const Path& path, Extent data,
                                 std::optional<std::uint64_t> known_hash, bool physical);
  /// Replacing a file's extent while other owners still reference it
  /// is a break of sharing; count it.
  void note_replaced(const Node& node);
  support::Status copy_tree_into(const Node& src, Node& dst_parent, const std::string& name);
  /// Would growing usage by `delta` exceed the quota?
  support::Status charge(std::uint64_t new_size, std::uint64_t old_size);
  static std::uint64_t subtree_bytes(const Node& node);

  support::SimClock* clock_;
  FsOptions options_;
  Node root_;
  // Tree (structure) lock: shared for lookups, exclusive for structure
  // changes. Payload state lives under the shards below; leaf metadata
  // that reads must update (counters, hash memos, used bytes) is atomic.
  mutable std::shared_mutex mu_;
  mutable std::vector<Shard> shards_;  // fixed size after construction
  mutable AtomicIoCounters counters_;
  AtomicCowCounters cow_;
  std::atomic<std::uint64_t> capacity_{0};  // 0 = unlimited
  std::atomic<std::uint64_t> used_bytes_{0};
};

}  // namespace jfm::vfs
