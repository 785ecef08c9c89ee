#include <cctype>
#include "jfm/oms/dump.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::oms {

using support::Errc;
using support::Result;
using support::Status;

namespace {

std::string value_to_text(const AttrValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&value)) {
    std::ostringstream os;
    os.precision(17);
    os << *d;
    return os.str();
  }
  if (const auto* b = std::get_if<bool>(&value)) return *b ? "true" : "false";
  return support::escape(std::get<std::string>(value));
}

Result<AttrValue> value_from_text(AttrType type, const std::string& text) {
  switch (type) {
    case AttrType::integer: {
      std::int64_t v = 0;
      if (!support::parse_integer(text, v)) {
        return Result<AttrValue>::failure(Errc::parse_error, "bad integer '" + text + "'");
      }
      return AttrValue(v);
    }
    case AttrType::real: {
      double v = 0;
      if (!support::parse_real(text, v)) {
        return Result<AttrValue>::failure(Errc::parse_error, "bad real '" + text + "'");
      }
      return AttrValue(v);
    }
    case AttrType::boolean:
      if (text == "true") return AttrValue(true);
      if (text == "false") return AttrValue(false);
      return Result<AttrValue>::failure(Errc::parse_error, "bad boolean '" + text + "'");
    case AttrType::text:
      return AttrValue(support::unescape(text));
  }
  return Result<AttrValue>::failure(Errc::parse_error, "bad type");
}

}  // namespace

std::string Dump::to_text(const Store& store) {
  // Whole-store walk: hold the store's reader lock for the duration so
  // a concurrent importer cannot mutate mid-serialization.
  std::shared_lock lock(store.mu_);
  std::string out = "omsdump 1\n";
  // Objects in id order for a canonical dump.
  std::vector<ObjectId> ids;
  for (const auto& [id, obj] : store.objects_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ObjectId id : ids) {
    const auto& obj = store.objects_.at(id);
    out += "object " + std::to_string(id.raw()) + ' ' + obj.class_name + ' ' +
           std::to_string(obj.created) + '\n';
    for (const auto& [name, value] : obj.attrs) {
      const AttributeDef* def = store.schema_.find_attribute(obj.class_name, name);
      // Serialization materializes text payloads by design -- the dump
      // is a fresh byte stream either way -- so converting the stored
      // extent back to a plain AttrValue here costs nothing extra.
      out += "attr " + std::to_string(id.raw()) + ' ' + name + ' ' +
             std::string(to_string(def->type)) + ' ' + value_to_text(Store::to_attr(value)) +
             '\n';
    }
  }
  for (const auto& [rel_name, index] : store.relations_) {
    std::vector<ObjectId> froms;
    for (const auto& [from, tos] : index.forward) froms.push_back(from);
    std::sort(froms.begin(), froms.end());
    for (ObjectId from : froms) {
      // Sorted targets make the dump canonical: the same logical state
      // always serializes to the same bytes (abort/restore may permute
      // in-memory link order).
      std::vector<ObjectId> tos = index.forward.at(from);
      std::sort(tos.begin(), tos.end());
      for (ObjectId to : tos) {
        out += "link " + rel_name + ' ' + std::to_string(from.raw()) + ' ' +
               std::to_string(to.raw()) + '\n';
      }
    }
  }
  out += "end\n";
  return out;
}

Status Dump::from_text(Store& store, const std::string& text) {
  // Exclusive for the whole load; internal access below bypasses the
  // public (self-locking) API, so use the members directly.
  std::unique_lock lock(store.mu_);
  if (!store.objects_.empty()) {
    return support::fail(Errc::invalid_argument, "import target store is not empty");
  }
  // The import bypasses the capturing mutators, so per-op WAL records
  // would be incomplete; suppress capture and write a full snapshot of
  // the imported image below instead (docs/persistence.md).
  const bool was_replaying = store.replaying_;
  store.replaying_ = true;
  struct ReplayGuard {
    Store& store;
    bool restore;
    ~ReplayGuard() { store.replaying_ = restore; }
  } guard{store, was_replaying};
  auto lines = support::split(text, '\n');
  if (lines.empty() || support::trim(lines[0]) != "omsdump 1") {
    return support::fail(Errc::parse_error, "not an OMS dump");
  }
  std::uint64_t max_id = 0;
  bool saw_end = false;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    std::string_view line = support::trim(lines[n]);
    if (line.empty()) continue;
    if (saw_end) return support::fail(Errc::parse_error, "content after 'end'");
    if (line == "end") {
      saw_end = true;
      continue;
    }
    auto fields = support::split_ws(line);
    const std::string& kind = fields[0];
    if (kind == "object") {
      std::uint64_t raw = 0;
      support::Timestamp created = 0;
      if (fields.size() != 4 || !support::parse_integer(fields[1], raw) ||
          !support::parse_integer(fields[3], created)) {
        return support::fail(Errc::parse_error, "bad object line");
      }
      if (store.schema_.find_class(fields[2]) == nullptr) {
        return support::fail(Errc::not_found, "dump references unknown class " + fields[2]);
      }
      ObjectId id(raw);
      if (store.objects_.contains(id)) {
        return support::fail(Errc::parse_error, "duplicate object id in dump");
      }
      Store::Object obj;
      obj.class_name = fields[2];
      obj.created = created;
      auto oit = store.objects_.emplace(id, std::move(obj)).first;
      // the import bypasses create(), so it maintains the secondary
      // indexes itself through the same private helpers
      store.index_add_object(id, oit->second);
      max_id = std::max(max_id, raw);
    } else if (kind == "attr") {
      std::uint64_t raw = 0;
      if (fields.size() < 4 || !support::parse_integer(fields[1], raw)) {
        return support::fail(Errc::parse_error, "bad attr line");
      }
      ObjectId id(raw);
      auto oit = store.objects_.find(id);
      if (oit == store.objects_.end()) {
        return support::fail(Errc::parse_error, "attr before object");
      }
      const AttributeDef* def = store.schema_.find_attribute(oit->second.class_name, fields[2]);
      if (def == nullptr) {
        return support::fail(Errc::not_found,
                             "dump references unknown attribute " + fields[2]);
      }
      // The value is everything after the 4th field separator; rebuild it
      // from the raw line so escaped text with spaces survives.
      std::string value_text;
      {
        std::size_t pos = 0;
        for (int skip = 0; skip < 4; ++skip) {
          while (pos < line.size() && !std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
          while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
        }
        value_text = std::string(line.substr(pos));
        if (value_text.empty() && fields.size() >= 4) value_text = "";
      }
      // Non-text values have no spaces; take the single value field.
      if (def->type != AttrType::text) value_text = fields.size() > 4 ? fields[4] : "";
      auto value = value_from_text(def->type, value_text);
      if (!value.ok()) return Status(value.error());
      // One extent per text payload, shared between the attribute map
      // and the value-index key it seeds.
      Store::StoredValue stored = Store::to_stored(std::move(*value));
      auto& attrs = oit->second.attrs;
      if (auto prev = attrs.find(fields[2]); prev != attrs.end()) {
        store.index_remove_attr(id, oit->second.class_name, fields[2], prev->second);
      }
      store.index_add_attr(id, oit->second.class_name, fields[2], stored);
      attrs[fields[2]] = std::move(stored);
    } else if (kind == "link") {
      std::uint64_t from_raw = 0;
      std::uint64_t to_raw = 0;
      if (fields.size() != 4 || !support::parse_integer(fields[2], from_raw) ||
          !support::parse_integer(fields[3], to_raw)) {
        return support::fail(Errc::parse_error, "bad link line");
      }
      const RelationDef* rel = store.schema_.find_relation(fields[1]);
      if (rel == nullptr) {
        return support::fail(Errc::not_found, "dump references unknown relation " + fields[1]);
      }
      ObjectId from(from_raw);
      ObjectId to(to_raw);
      if (!store.objects_.contains(from) || !store.objects_.contains(to)) {
        return support::fail(Errc::parse_error, "link references missing object");
      }
      if (auto st = store.link_nocheck(*rel, from, to); !st.ok()) return st;
    } else {
      return support::fail(Errc::parse_error, "unknown record '" + kind + "'");
    }
  }
  if (!saw_end) return support::fail(Errc::parse_error, "dump truncated (no 'end')");
  // Preserve id continuity: new objects must not collide with imports.
  store.ids_.advance_to(max_id);
  // A durable store snapshots the imported image immediately so the
  // bypassed mutations become recoverable (best-effort: the WAL stays
  // consistent either way, it simply does not cover the import).
  if (store.journal_fs_ != nullptr) (void)store.write_snapshot_locked();
  return {};
}

Status Dump::export_store(const Store& store, vfs::FileSystem& fs, const vfs::Path& file) {
  JFM_SPAN("oms", "dump.export");
  std::string text = to_text(store);
  static auto& dumps = support::telemetry::Registry::global().counter("oms.dump.export.count");
  static auto& bytes = support::telemetry::Registry::global().counter("oms.dump.export.bytes");
  dumps.add(1);
  bytes.add(text.size());
  return fs.write_file(file, std::move(text));
}

Status Dump::import_store(Store& store, const vfs::FileSystem& fs, const vfs::Path& file) {
  JFM_SPAN("oms", "dump.import");
  auto text = fs.read_file(file);
  if (!text.ok()) return Status(text.error());
  static auto& loads = support::telemetry::Registry::global().counter("oms.dump.import.count");
  static auto& bytes = support::telemetry::Registry::global().counter("oms.dump.import.bytes");
  loads.add(1);
  bytes.add(text->size());
  return from_text(store, *text);
}

}  // namespace jfm::oms
