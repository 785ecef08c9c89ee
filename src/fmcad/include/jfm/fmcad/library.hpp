#pragma once
// An FMCAD library: a (virtual) UNIX directory plus its .meta file.
//
// Directory layout:
//   <root>/.meta
//   <root>/<cell>/<view>/v<N>.cv        -- cellview version files
//   <root>/<cell>/<view>/work_<user>.cv -- working copy while checked out
//
// Every committed metadata change bumps `generation` and reaches the
// .meta file through the vfs, so metadata traffic is physically
// measurable. The file is a checkpoint (the canonical serialization)
// followed by a journal of one MetaRecord per later change
// (journal.hpp): a commit appends its record, and once the journal
// outgrows the checkpoint the next commit compacts -- it rewrites the
// file as a fresh checkpoint. Commits are therefore amortized O(change)
// and the file stays under about twice its canonical size. A mutation
// persists its record first and applies it to meta() only once the
// write succeeded, so a failed commit changes nothing a caller can see.
//
// All designer access goes through DesignerSession (session.hpp), which
// holds a *snapshot* of this metadata and is responsible for refreshing
// it -- the paper's coordination burden. The library keeps the journal
// text since the last checkpoint in memory too, so a refresh can replay
// just the records it missed.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jfm/fmcad/journal.hpp"
#include "jfm/fmcad/meta.hpp"
#include "jfm/support/clock.hpp"
#include "jfm/vfs/filesystem.hpp"

namespace jfm::fmcad {

class Library {
 public:
  /// Create a fresh library directory under `parent` and write its .meta.
  static support::Result<std::shared_ptr<Library>> create(vfs::FileSystem* fs,
                                                          support::SimClock* clock,
                                                          const vfs::Path& parent,
                                                          const std::string& name);

  /// Open an existing library directory by reading its .meta: parse the
  /// checkpoint, then replay the journal. A torn last record (no
  /// terminating newline) is dropped, and the next commit rewrites the
  /// file without it.
  static support::Result<std::shared_ptr<Library>> open(vfs::FileSystem* fs,
                                                        support::SimClock* clock,
                                                        const vfs::Path& root);

  const std::string& name() const noexcept { return meta_.library; }
  const vfs::Path& root() const noexcept { return root_; }
  std::uint64_t generation() const noexcept { return meta_.generation; }

  /// The committed metadata (what a freshly refreshed session would see).
  const LibraryMeta& meta() const noexcept { return meta_; }

  /// The journal records committed after generation `since`, oldest
  /// first, as the newline-terminated lines of the .meta file:
  /// replay() them onto a copy of meta() taken at `since` to reproduce
  /// meta(). nullopt when `since` predates the last checkpoint (or is
  /// ahead of this library); the caller then needs a full copy. The
  /// view is valid until the next commit.
  std::optional<std::string_view> changes_since(std::uint64_t since) const;

  vfs::FileSystem& fs() noexcept { return *fs_; }
  support::SimClock& clock() noexcept { return *clock_; }

  /// Directory of one cellview's files.
  vfs::Path cellview_dir(const CellViewKey& key) const;

  // -- committed metadata mutations ---------------------------------------
  // These are the primitive operations DesignerSession uses after its
  // own staleness/locking checks; each one bumps the generation and
  // journals one record to .meta. They still validate their own
  // invariants, and on failure leave the metadata, the generation and
  // the library directory as they were.
  support::Status define_view(const std::string& name, const std::string& viewtype);
  support::Status create_cell(const std::string& name);
  support::Status create_cellview(const CellViewKey& key);
  support::Status create_config(const std::string& name);
  support::Status set_config_member(const std::string& config, const CellViewKey& key,
                                    int version);
  support::Status remove_config_member(const std::string& config, const CellViewKey& key);

  /// Mark `key` checked out by `user` from its default version; creates
  /// the working file as a copy of the base version (or empty for a new
  /// cellview). Fails with Errc::locked when someone else holds it.
  support::Result<vfs::Path> checkout(const CellViewKey& key, const std::string& user);

  /// Commit the working file as version n+1 and release the lock.
  support::Result<int> checkin(const CellViewKey& key, const std::string& user);

  /// Drop the working file and release the lock.
  support::Status cancel_checkout(const CellViewKey& key, const std::string& user);

  /// Total bytes of design data in the library (excludes .meta).
  std::uint64_t design_bytes() const;

 private:
  Library(vfs::FileSystem* fs, support::SimClock* clock, vfs::Path root)
      : fs_(fs), clock_(clock), root_(std::move(root)) {}

  /// Persist `record` as the next generation's change (append, or
  /// compact), then apply it to meta_. On failure meta_ is untouched.
  support::Status commit(MetaRecord record);

  vfs::FileSystem* fs_;
  support::SimClock* clock_;
  vfs::Path root_;
  LibraryMeta meta_;
  std::uint64_t checkpoint_bytes_ = 0;     ///< size of the file's checkpoint
  bool rewrite_next_ = false;              ///< the file's tail may be torn
  std::string journal_;                    ///< the file's records after the checkpoint
  std::vector<std::size_t> record_starts_; ///< offset of each record in journal_
};

}  // namespace jfm::fmcad
