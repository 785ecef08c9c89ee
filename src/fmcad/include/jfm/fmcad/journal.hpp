#pragma once
// The .meta journal: one self-describing delta record per committed
// metadata change.
//
// A library's .meta file is a checkpoint (the canonical
// LibraryMeta::serialize() text, ending in "end") followed by the
// journal: one newline-terminated record per change committed since
// the checkpoint (docs/file-formats.md has the grammar). The same
// MetaRecord::apply() applies a change to the live metadata once it is
// on disk, and replay() runs it over journal text both when a library
// is opened and when a designer session's snapshot catches up on
// refresh() -- so a commit or a refresh costs O(change), not
// O(library).

#include <cstdint>
#include <string>
#include <string_view>

#include "jfm/fmcad/meta.hpp"
#include "jfm/support/result.hpp"

namespace jfm::fmcad {

/// The op of a journal record, with its line format.
enum class MetaOp {
  define_view,      ///< j <gen> view <name> <viewtype>
  create_cell,      ///< j <gen> cell <name>
  create_cellview,  ///< j <gen> cellview <cell> <view>
  create_config,    ///< j <gen> config <name>
  set_member,       ///< j <gen> member <config> <cell> <view> <version>
  remove_member,    ///< j <gen> unmember <config> <cell> <view>
  checkout,         ///< j <gen> checkout <cell> <view> <user> <base-version> <work-file>
  checkin,          ///< j <gen> checkin <cell> <view> <number> <file> <mtime> <author>
  cancel,           ///< j <gen> cancel <cell> <view> <user>
};

/// One committed change to a library's metadata. Only the fields the
/// op names are meaningful.
struct MetaRecord {
  MetaOp op = MetaOp::create_cell;
  std::uint64_t generation = 0;  ///< the generation this change produces
  std::string name;              ///< view, cell or config name
  std::string viewtype;          ///< define_view
  CellViewKey key;               ///< cellview, member and lock records
  int member_version = 0;        ///< set_member
  CheckOutStatus lock;           ///< checkout; cancel uses lock.user
  VersionInfo version;           ///< checkin (version.author is the user)

  // -- one constructor per op -----------------------------------------
  static MetaRecord define_view(std::string name, std::string viewtype);
  static MetaRecord create_cell(std::string name);
  static MetaRecord create_cellview(CellViewKey key);
  static MetaRecord create_config(std::string name);
  static MetaRecord set_member(std::string config, CellViewKey key, int version);
  static MetaRecord remove_member(std::string config, CellViewKey key);
  static MetaRecord checkout(CellViewKey key, CheckOutStatus lock);
  static MetaRecord checkin(CellViewKey key, VersionInfo version);
  static MetaRecord cancel(CellViewKey key, std::string user);

  /// One journal line, newline included.
  std::string encode() const;
  /// Parse one journal line (without its newline). Never throws:
  /// malformed input is Errc::parse_error.
  static support::Result<MetaRecord> decode(std::string_view line);

  /// Apply the change to `meta`, which must be at generation
  /// `generation - 1`; advances meta.generation. Fails with
  /// Errc::parse_error, leaving `meta` untouched, when the record is out
  /// of sequence or names a cellview or config `meta` does not hold.
  support::Status apply(LibraryMeta& meta) const;
};

/// Decode and apply, in order, every newline-terminated record in
/// `records` (journal text as the .meta holds it). Stops at the first
/// record that fails to decode or apply and returns its error;
/// Errc::parse_error for an unterminated last record.
support::Status replay(std::string_view records, LibraryMeta& meta);

}  // namespace jfm::fmcad
