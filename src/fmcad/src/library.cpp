#include "jfm/fmcad/library.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;
using support::Status;

namespace {
const char* kMetaFile = ".meta";

support::telemetry::Counter& lib_counter(const char* which) {
  return support::telemetry::Registry::global().counter(
      std::string("fmcad.library.") + which + ".count");
}

support::telemetry::Counter& meta_write_bytes() {
  static auto& c = support::telemetry::Registry::global().counter("fmcad.meta.write.bytes");
  return c;
}

support::telemetry::Counter& meta_compactions() {
  static auto& c = support::telemetry::Registry::global().counter("fmcad.meta.compaction.count");
  return c;
}

template <typename T>
Result<T> forward(const support::Error& error) {
  return Result<T>::failure(error.code, error.message);
}
}  // namespace

Result<std::shared_ptr<Library>> Library::create(vfs::FileSystem* fs, support::SimClock* clock,
                                                 const vfs::Path& parent,
                                                 const std::string& name) {
  if (!support::is_identifier(name)) {
    return Result<std::shared_ptr<Library>>::failure(Errc::invalid_argument,
                                                     "bad library name '" + name + "'");
  }
  vfs::Path root = parent.child(name);
  if (fs->exists(root)) {
    return Result<std::shared_ptr<Library>>::failure(Errc::already_exists, root.str());
  }
  if (auto st = fs->mkdirs(root); !st.ok()) {
    return Result<std::shared_ptr<Library>>::failure(st.error().code, st.error().message);
  }
  auto lib = std::shared_ptr<Library>(new Library(fs, clock, root));
  lib->meta_.library = name;
  lib->meta_.generation = 1;
  std::string checkpoint = lib->meta_.serialize();
  lib->checkpoint_bytes_ = checkpoint.size();
  if (auto st = fs->write_file(root.child(kMetaFile), std::move(checkpoint)); !st.ok()) {
    return forward<std::shared_ptr<Library>>(st.error());
  }
  return lib;
}

Result<std::shared_ptr<Library>> Library::open(vfs::FileSystem* fs, support::SimClock* clock,
                                               const vfs::Path& root) {
  auto text = fs->read_file(root.child(kMetaFile));
  if (!text.ok()) {
    return Result<std::shared_ptr<Library>>::failure(Errc::not_found,
                                                     "no .meta under " + root.str());
  }
  // The checkpoint ends at its first "end" line; journal records follow.
  const std::string_view file(*text);
  const std::size_t end = file.find("\nend\n");
  const std::size_t checkpoint_bytes = end == std::string_view::npos ? file.size() : end + 5;
  auto meta = LibraryMeta::parse(std::string(file.substr(0, checkpoint_bytes)));
  if (!meta.ok()) return forward<std::shared_ptr<Library>>(meta.error());
  auto lib = std::shared_ptr<Library>(new Library(fs, clock, root));
  lib->meta_ = std::move(*meta);
  lib->checkpoint_bytes_ = checkpoint_bytes;
  // Torn append: the committed prefix ends at the last newline, and the
  // partial record after it is dropped. The next commit then rewrites
  // the file, as it must when the checkpoint lost its final newline.
  std::string_view journal = file.substr(checkpoint_bytes);
  const std::size_t committed = journal.rfind('\n') + 1;  // npos + 1 == 0
  lib->rewrite_next_ = end == std::string_view::npos || committed != journal.size();
  journal = journal.substr(0, committed);
  if (auto st = replay(journal, lib->meta_); !st.ok()) {
    return forward<std::shared_ptr<Library>>(st.error());
  }
  lib->journal_ = journal;
  for (std::size_t at = 0; at < journal.size(); at = journal.find('\n', at) + 1) {
    lib->record_starts_.push_back(at);
  }
  return lib;
}

vfs::Path Library::cellview_dir(const CellViewKey& key) const {
  return root_.child(key.cell).child(key.view);
}

std::optional<std::string_view> Library::changes_since(std::uint64_t since) const {
  const std::uint64_t base = meta_.generation - record_starts_.size();
  if (since < base || since > meta_.generation) return std::nullopt;
  if (since == meta_.generation) return std::string_view();
  return std::string_view(journal_).substr(record_starts_[since - base]);
}

Status Library::commit(MetaRecord record) {
  record.generation = meta_.generation + 1;
  std::string line = record.encode();
  const vfs::Path path = root_.child(kMetaFile);
  std::uint64_t written = line.size();
  if (rewrite_next_ || journal_.size() + line.size() > checkpoint_bytes_) {
    // Compaction: the current metadata becomes the new checkpoint, with
    // this change as the first journal record. write_file is
    // all-or-nothing, so a failure leaves the old file intact.
    std::string file = meta_.serialize();
    const std::uint64_t checkpoint_bytes = file.size();
    file += line;
    written = file.size();
    if (auto st = fs_->write_file(path, std::move(file)); !st.ok()) return st;
    checkpoint_bytes_ = checkpoint_bytes;
    rewrite_next_ = false;
    journal_.clear();
    record_starts_.clear();
    meta_compactions().add(1);
  } else if (auto st = fs_->append_file(path, line); !st.ok()) {
    // Part of the record may have landed; the next commit rewrites the
    // file, and Library::open drops the partial line meanwhile.
    rewrite_next_ = true;
    return st;
  }
  record_starts_.push_back(journal_.size());
  journal_ += line;
  (void)record.apply(meta_);  // validated by the caller; cannot fail
  meta_write_bytes().add(written);
  return {};
}

Status Library::define_view(const std::string& name, const std::string& viewtype) {
  if (!support::is_identifier(name) || !support::is_identifier(viewtype)) {
    return support::fail(Errc::invalid_argument, "bad view or viewtype name");
  }
  if (meta_.find_view(name) != nullptr) {
    return support::fail(Errc::already_exists, "view " + name);
  }
  return commit(MetaRecord::define_view(name, viewtype));
}

Status Library::create_cell(const std::string& name) {
  if (!support::is_identifier(name)) {
    return support::fail(Errc::invalid_argument, "bad cell name '" + name + "'");
  }
  if (meta_.has_cell(name)) return support::fail(Errc::already_exists, "cell " + name);
  if (auto st = fs_->mkdir(root_.child(name)); !st.ok()) return st;
  auto st = commit(MetaRecord::create_cell(name));
  if (!st.ok()) (void)fs_->remove(root_.child(name));
  return st;
}

Status Library::create_cellview(const CellViewKey& key) {
  if (!meta_.has_cell(key.cell)) return support::fail(Errc::not_found, "cell " + key.cell);
  if (meta_.find_view(key.view) == nullptr) {
    return support::fail(Errc::not_found, "view " + key.view);
  }
  if (meta_.find_cellview(key) != nullptr) {
    return support::fail(Errc::already_exists, "cellview " + key.str());
  }
  if (auto st = fs_->mkdir(cellview_dir(key)); !st.ok()) return st;
  auto st = commit(MetaRecord::create_cellview(key));
  if (!st.ok()) (void)fs_->remove(cellview_dir(key));
  return st;
}

Status Library::create_config(const std::string& name) {
  if (!support::is_identifier(name)) {
    return support::fail(Errc::invalid_argument, "bad config name '" + name + "'");
  }
  if (meta_.configs.contains(name)) return support::fail(Errc::already_exists, "config " + name);
  return commit(MetaRecord::create_config(name));
}

Status Library::set_config_member(const std::string& config, const CellViewKey& key,
                                  int version) {
  auto it = meta_.configs.find(config);
  if (it == meta_.configs.end()) return support::fail(Errc::not_found, "config " + config);
  const CellViewRecord* record = meta_.find_cellview(key);
  if (record == nullptr) return support::fail(Errc::not_found, "cellview " + key.str());
  if (record->version(version) == nullptr) {
    return support::fail(Errc::not_found,
                         "cellview " + key.str() + " has no version " + std::to_string(version));
  }
  // "For each cellview, at maximum one version can be part of the
  // configuration" -- map semantics give us that by construction.
  return commit(MetaRecord::set_member(config, key, version));
}

Status Library::remove_config_member(const std::string& config, const CellViewKey& key) {
  auto it = meta_.configs.find(config);
  if (it == meta_.configs.end()) return support::fail(Errc::not_found, "config " + config);
  if (!it->second.members.contains(key)) {
    return support::fail(Errc::not_found, key.str() + " not in config " + config);
  }
  return commit(MetaRecord::remove_member(config, key));
}

Result<vfs::Path> Library::checkout(const CellViewKey& key, const std::string& user) {
  JFM_SPAN("fmcad", "library.checkout");
  const CellViewRecord* record = meta_.find_cellview(key);
  if (record == nullptr) {
    return Result<vfs::Path>::failure(Errc::not_found, "cellview " + key.str());
  }
  if (record->checkout) {
    lib_counter("checkout.conflict").add(1);
    if (record->checkout->user == user) {
      return Result<vfs::Path>::failure(Errc::already_exists,
                                        "cellview " + key.str() +
                                            " is already checked out to you");
    }
    // Only one user can change a cellview at a time (s2.2); parallel work
    // on two versions of the same cellview is impossible in FMCAD.
    return Result<vfs::Path>::failure(Errc::locked, "cellview " + key.str() +
                                                        " is checked out by " +
                                                        record->checkout->user);
  }
  const std::string work_name = "work_" + user + ".cv";
  vfs::Path work = cellview_dir(key).child(work_name);
  const VersionInfo* base = record->default_version();
  const auto made = base != nullptr ? fs_->copy_file(cellview_dir(key).child(base->file), work)
                                    : fs_->write_file(work, "");
  if (!made.ok()) return forward<vfs::Path>(made.error());
  CheckOutStatus lock{user, base != nullptr ? base->number : 0, work_name};
  if (auto st = commit(MetaRecord::checkout(key, std::move(lock))); !st.ok()) {
    (void)fs_->remove(work);
    return forward<vfs::Path>(st.error());
  }
  lib_counter("checkout").add(1);
  return work;
}

Result<int> Library::checkin(const CellViewKey& key, const std::string& user) {
  JFM_SPAN("fmcad", "library.checkin");
  const CellViewRecord* record = meta_.find_cellview(key);
  if (record == nullptr) return Result<int>::failure(Errc::not_found, "cellview " + key.str());
  if (!record->checkout) {
    return Result<int>::failure(Errc::checkout_required,
                                "cellview " + key.str() + " is not checked out");
  }
  if (record->checkout->user != user) {
    return Result<int>::failure(Errc::permission_denied,
                                "cellview " + key.str() + " is checked out by " +
                                    record->checkout->user + ", not " + user);
  }
  const int next = record->versions.empty() ? 1 : record->versions.back().number + 1;
  VersionInfo ver;
  ver.number = next;
  ver.file = "v" + std::to_string(next) + ".cv";
  ver.author = user;
  const vfs::Path dir = cellview_dir(key);
  const vfs::Path work = dir.child(record->checkout->work_file);
  const vfs::Path stored = dir.child(ver.file);
  if (auto st = fs_->copy_file(work, stored); !st.ok()) return forward<int>(st.error());
  auto stat = fs_->stat(stored);
  ver.mtime = stat.ok() ? stat->mtime : clock_->now();
  if (auto st = commit(MetaRecord::checkin(key, std::move(ver))); !st.ok()) {
    // The working copy stays checked out; the new version never existed.
    (void)fs_->remove(stored);
    return forward<int>(st.error());
  }
  (void)fs_->remove(work);
  lib_counter("checkin").add(1);
  return next;
}

Status Library::cancel_checkout(const CellViewKey& key, const std::string& user) {
  const CellViewRecord* record = meta_.find_cellview(key);
  if (record == nullptr) return support::fail(Errc::not_found, "cellview " + key.str());
  if (!record->checkout) {
    return support::fail(Errc::checkout_required, "cellview " + key.str() + " is not checked out");
  }
  if (record->checkout->user != user) {
    return support::fail(Errc::permission_denied,
                         "cellview " + key.str() + " is checked out by " +
                             record->checkout->user + ", not " + user);
  }
  const vfs::Path work = cellview_dir(key).child(record->checkout->work_file);
  if (auto st = commit(MetaRecord::cancel(key, user)); !st.ok()) return st;
  (void)fs_->remove(work);
  lib_counter("checkout.cancel").add(1);
  return {};
}

std::uint64_t Library::design_bytes() const {
  auto files = fs_->walk_files(root_);
  if (!files.ok()) return 0;
  std::uint64_t total = 0;
  for (const auto& path : *files) {
    if (path.basename() == kMetaFile) continue;
    auto st = fs_->stat(path);
    if (st.ok()) total += st->size;
  }
  return total;
}

}  // namespace jfm::fmcad
