#include "jfm/fmcad/session.hpp"

#include "jfm/support/telemetry.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;
using support::Status;

namespace {
support::telemetry::Counter& refresh_counter(const char* which) {
  return support::telemetry::Registry::global().counter(
      std::string("fmcad.session.refresh.") + which + ".count");
}
}  // namespace

DesignerSession::DesignerSession(std::shared_ptr<Library> library, std::string user)
    : library_(std::move(library)), user_(std::move(user)) {
  snapshot_ = library_->meta();
}

void DesignerSession::refresh() {
  // Delta refresh: replay only the records committed since the
  // snapshot's generation. A full copy when the library compacted its
  // journal past that point, or when a record does not replay (a user
  // name with whitespace in it encodes but cannot decode).
  auto changes = library_->changes_since(snapshot_.generation);
  if (changes && replay(*changes, snapshot_).ok()) {
    static auto& delta = refresh_counter("delta");
    delta.add(1);
  } else {
    snapshot_ = library_->meta();
    static auto& full = refresh_counter("full");
    full.add(1);
  }
  ++stats_.refreshes;
}

bool DesignerSession::stale() const noexcept {
  return snapshot_.generation != library_->generation();
}

Status DesignerSession::require_fresh() {
  if (stale()) {
    ++stats_.stale_rejections;
    return support::fail(Errc::stale_metadata,
                         "library " + library_->name() + " changed (snapshot gen " +
                             std::to_string(snapshot_.generation) + ", library gen " +
                             std::to_string(library_->generation()) + "); refresh required");
  }
  return {};
}

Result<std::string> DesignerSession::read_version(const CellViewKey& key, int number) const {
  const CellViewRecord* record = snapshot_.find_cellview(key);
  if (record == nullptr) {
    return Result<std::string>::failure(Errc::not_found, "cellview " + key.str());
  }
  const VersionInfo* ver = record->version(number);
  if (ver == nullptr) {
    return Result<std::string>::failure(Errc::not_found, key.str() + " has no version " +
                                                             std::to_string(number));
  }
  return library_->fs().read_file(library_->cellview_dir(key).child(ver->file));
}

Result<std::string> DesignerSession::read_default(const CellViewKey& key) const {
  const CellViewRecord* record = snapshot_.find_cellview(key);
  if (record == nullptr) {
    return Result<std::string>::failure(Errc::not_found, "cellview " + key.str());
  }
  const VersionInfo* ver = record->default_version();
  if (ver == nullptr) {
    return Result<std::string>::failure(Errc::not_found, key.str() + " has no versions");
  }
  return library_->fs().read_file(library_->cellview_dir(key).child(ver->file));
}

Status DesignerSession::define_view(const std::string& name, const std::string& viewtype) {
  if (auto st = require_fresh(); !st.ok()) return st;
  auto st = library_->define_view(name, viewtype);
  if (st.ok()) refresh();
  return st;
}

Status DesignerSession::create_cell(const std::string& name) {
  if (auto st = require_fresh(); !st.ok()) return st;
  auto st = library_->create_cell(name);
  if (st.ok()) refresh();
  return st;
}

Status DesignerSession::create_cellview(const CellViewKey& key) {
  if (auto st = require_fresh(); !st.ok()) return st;
  auto st = library_->create_cellview(key);
  if (st.ok()) refresh();
  return st;
}

Status DesignerSession::create_config(const std::string& name) {
  if (auto st = require_fresh(); !st.ok()) return st;
  auto st = library_->create_config(name);
  if (st.ok()) refresh();
  return st;
}

Status DesignerSession::set_config_member(const std::string& config, const CellViewKey& key,
                                          int version) {
  if (auto st = require_fresh(); !st.ok()) return st;
  auto st = library_->set_config_member(config, key, version);
  if (st.ok()) refresh();
  return st;
}

Result<vfs::Path> DesignerSession::checkout(const CellViewKey& key) {
  if (auto st = require_fresh(); !st.ok()) {
    return Result<vfs::Path>::failure(st.error().code, st.error().message);
  }
  auto path = library_->checkout(key, user_);
  if (path.ok()) {
    ++stats_.checkouts;
    refresh();
  } else if (path.error().code == Errc::locked) {
    ++stats_.lock_rejections;
  }
  return path;
}

Result<vfs::Path> DesignerSession::working_path(const CellViewKey& key) const {
  const CellViewRecord* record = library_->meta().find_cellview(key);
  if (record == nullptr) {
    return Result<vfs::Path>::failure(Errc::not_found, "cellview " + key.str());
  }
  if (!record->checkout) {
    return Result<vfs::Path>::failure(Errc::checkout_required,
                                      key.str() + " is not checked out");
  }
  if (record->checkout->user != user_) {
    return Result<vfs::Path>::failure(Errc::permission_denied,
                                      key.str() + " is checked out by " +
                                          record->checkout->user);
  }
  return library_->cellview_dir(key).child(record->checkout->work_file);
}

Status DesignerSession::write_working(const CellViewKey& key, std::string data) {
  auto path = working_path(key);
  if (!path.ok()) return Status(path.error());
  return library_->fs().write_file(*path, std::move(data));
}

Result<std::string> DesignerSession::read_working(const CellViewKey& key) const {
  auto path = working_path(key);
  if (!path.ok()) return Result<std::string>::failure(path.error().code, path.error().message);
  return library_->fs().read_file(*path);
}

Result<int> DesignerSession::checkin(const CellViewKey& key) {
  if (auto st = require_fresh(); !st.ok()) {
    return Result<int>::failure(st.error().code, st.error().message);
  }
  auto ver = library_->checkin(key, user_);
  if (ver.ok()) {
    ++stats_.checkins;
    refresh();
  }
  return ver;
}

Status DesignerSession::cancel_checkout(const CellViewKey& key) {
  auto st = library_->cancel_checkout(key, user_);
  if (st.ok()) refresh();
  return st;
}

}  // namespace jfm::fmcad
