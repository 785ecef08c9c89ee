#pragma once
// DesignerSession: one designer's view of an FMCAD library.
//
// The session holds a *snapshot* of the .meta contents taken at the
// last refresh(). Paper s2.2: "The refreshment of the metadata objects
// is not performed automatically, and therefore, it is the
// responsibility of the designer to keep his design up to date. Of
// course, this aspect may cause severe locking problems during the
// design process."
//
// Concretely:
//  * reads answer from the snapshot (and can therefore be stale);
//  * mutations are validated against the *live* library, but are
//    rejected with Errc::stale_metadata when the snapshot is out of
//    date -- the designer must refresh() and retry. The s3.1 benchmark
//    counts those rejections as coordination overhead.
//
// refresh() is a delta refresh: it replays the library's journal
// records since the snapshot's generation instead of copying the whole
// metadata. What the designer observes -- the snapshot's contents, the
// generation, and when stale_metadata fires -- is exactly what a full
// copy would give.

#include <memory>
#include <string>

#include "jfm/fmcad/library.hpp"

namespace jfm::fmcad {

struct SessionStats {
  std::uint64_t refreshes = 0;
  std::uint64_t stale_rejections = 0;
  std::uint64_t lock_rejections = 0;
  std::uint64_t checkouts = 0;
  std::uint64_t checkins = 0;
};

class DesignerSession {
 public:
  DesignerSession(std::shared_ptr<Library> library, std::string user);

  const std::string& user() const noexcept { return user_; }
  Library& library() noexcept { return *library_; }

  /// Bring the snapshot up to the committed metadata. Replays only the
  /// records committed since the snapshot (Library::changes_since), so
  /// it costs O(changes missed); falls back to a full copy of meta()
  /// when the library has compacted its journal past the snapshot.
  void refresh();
  /// Has the library moved past this session's snapshot?
  bool stale() const noexcept;
  /// The snapshot this designer currently believes in.
  const LibraryMeta& view() const noexcept { return snapshot_; }

  // -- reads (through the snapshot) ---------------------------------------
  /// Read a version's design file directly from the library directory --
  /// FMCAD's native open path, no copy through any database.
  support::Result<std::string> read_version(const CellViewKey& key, int number) const;
  /// Read whatever the snapshot thinks is the default (latest) version.
  support::Result<std::string> read_default(const CellViewKey& key) const;

  // -- mutations (validated against the live library) ---------------------
  support::Status define_view(const std::string& name, const std::string& viewtype);
  support::Status create_cell(const std::string& name);
  support::Status create_cellview(const CellViewKey& key);
  support::Status create_config(const std::string& name);
  support::Status set_config_member(const std::string& config, const CellViewKey& key,
                                    int version);

  support::Result<vfs::Path> checkout(const CellViewKey& key);
  support::Status write_working(const CellViewKey& key, std::string data);
  support::Result<std::string> read_working(const CellViewKey& key) const;
  support::Result<int> checkin(const CellViewKey& key);
  support::Status cancel_checkout(const CellViewKey& key);

  const SessionStats& stats() const noexcept { return stats_; }

 private:
  /// Mutations require a current snapshot; returns stale_metadata if not.
  support::Status require_fresh();
  /// Working-file path if *this user* holds the checkout (live check).
  support::Result<vfs::Path> working_path(const CellViewKey& key) const;

  std::shared_ptr<Library> library_;
  std::string user_;
  LibraryMeta snapshot_;
  SessionStats stats_;
};

}  // namespace jfm::fmcad
