#include "jfm/oms/store.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <optional>
#include <variant>

#include "jfm/support/faultsim.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::oms {

using support::Errc;
using support::Result;
using support::Status;

namespace {
namespace telemetry = support::telemetry;

telemetry::Counter& tx_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("oms.tx.") + which + ".count");
}

// Query-path instrumentation (docs/oms-indexing.md): every public query
// counts once, so the query volume is directly visible in `stats index`.
telemetry::Counter& query_counter() {
  static auto& queries = telemetry::Registry::global().counter("oms.query.indexed.count");
  return queries;
}

// Index maintenance cost and live entry counts. The gauges track
// exact entry counts across every store in the process (insert/erase
// deltas, including transactional undo).
struct IndexMetrics {
  telemetry::Counter& adds =
      telemetry::Registry::global().counter("oms.index.add.count");
  telemetry::Counter& removes =
      telemetry::Registry::global().counter("oms.index.remove.count");
  telemetry::Gauge& class_entries =
      telemetry::Registry::global().gauge("oms.index.class.entries");
  telemetry::Gauge& attr_entries =
      telemetry::Registry::global().gauge("oms.index.attr.entries");
  telemetry::Gauge& edge_entries =
      telemetry::Registry::global().gauge("oms.index.edge.entries");

  static IndexMetrics& get() {
    static IndexMetrics metrics;
    return metrics;
  }
};
}  // namespace

// The two variants share alternative indices, and an extent hashes as
// the string it holds, so ValueHash(StoredValue) == ValueHash(AttrValue)
// whenever the two compare equal -- the contract heterogeneous lookup
// needs.
std::size_t Store::ValueHash::operator()(const StoredValue& value) const noexcept {
  const std::size_t h = std::visit(
      [](const auto& v) -> std::size_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, StoredText>) {
          return std::hash<std::string>{}(*v.text);
        } else {
          return std::hash<std::decay_t<decltype(v)>>{}(v);
        }
      },
      value);
  return h ^ (value.index() * 0x9E3779B97F4A7C15ull);
}

std::size_t Store::ValueHash::operator()(const AttrValue& value) const noexcept {
  const std::size_t h = std::visit(
      [](const auto& v) { return std::hash<std::decay_t<decltype(v)>>{}(v); }, value);
  return h ^ (value.index() * 0x9E3779B97F4A7C15ull);
}

bool Store::ValueEq::operator()(const StoredValue& a, const StoredValue& b) const noexcept {
  if (a.index() != b.index()) return false;
  if (const auto* ea = std::get_if<StoredText>(&a)) {
    return *ea->text == *std::get_if<StoredText>(&b)->text;
  }
  return std::visit(
      [&b](const auto& va) {
        using T = std::decay_t<decltype(va)>;
        if constexpr (std::is_same_v<T, StoredText>) {
          return false;  // unreachable: handled above
        } else {
          return va == *std::get_if<T>(&b);
        }
      },
      a);
}

bool Store::ValueEq::operator()(const StoredValue& a, const AttrValue& b) const noexcept {
  return stored_equals(a, b);
}

bool Store::ValueEq::operator()(const AttrValue& a, const StoredValue& b) const noexcept {
  return stored_equals(b, a);
}

bool Store::stored_equals(const StoredValue& stored, const AttrValue& value) noexcept {
  if (stored.index() != value.index()) return false;
  if (const auto* ext = std::get_if<StoredText>(&stored)) {
    return *ext->text == *std::get_if<std::string>(&value);
  }
  return std::visit(
      [&value](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, StoredText>) {
          return false;  // unreachable: handled above
        } else {
          return s == *std::get_if<T>(&value);
        }
      },
      stored);
}

Store::StoredText Store::make_stored_text(TextExtent text) {
  // Every stored text carries its own (initially empty) hash memo; the
  // memo travels with the extent through journal copies and index keys.
  return StoredText{std::move(text), std::make_shared<TextHashMemo>()};
}

std::uint64_t Store::memoized_hash(const StoredText& stored) {
  auto& memo = *stored.memo;
  if (memo.valid.load(std::memory_order_acquire)) {
    return memo.hash.load(std::memory_order_relaxed);
  }
  // Miss: one pass over the payload, then an atomic publish. Racing
  // fillers compute the identical value (the buffer is immutable).
  const std::uint64_t h = support::fnv1a(*stored.text);
  memo.hash.store(h, std::memory_order_relaxed);
  memo.valid.store(true, std::memory_order_release);
  static auto& hash_count = telemetry::Registry::global().counter("oms.text.hash.count");
  static auto& hash_bytes = telemetry::Registry::global().counter("oms.text.hash.bytes");
  hash_count.add(1);
  hash_bytes.add(stored.text->size());
  return h;
}

Store::StoredValue Store::to_stored(AttrValue value) {
  if (auto* text = std::get_if<std::string>(&value)) {
    return StoredValue(
        make_stored_text(std::make_shared<const std::string>(std::move(*text))));
  }
  return std::visit(
      [](auto&& v) -> StoredValue {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return StoredValue(StoredText{});  // unreachable: handled above
        } else {
          return StoredValue(v);
        }
      },
      value);
}

AttrValue Store::to_attr(const StoredValue& value) {
  return std::visit(
      [](const auto& v) -> AttrValue {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, StoredText>) {
          return AttrValue(*v.text);  // the one place a text payload is materialized
        } else {
          return AttrValue(v);
        }
      },
      value);
}

Store::Store(Schema schema, support::SimClock* clock, StoreOptions options)
    : schema_(std::move(schema)), clock_(clock), options_(options) {
  assert(clock != nullptr);
  // Resolve the subclass closure once; every indexed query fans in
  // through schema_.subclasses_of() instead of walking the class graph.
  schema_.freeze();
  for (const auto& name : schema_.relation_names()) {
    relations_.emplace(name, RelationIndex{});
  }
}

void Store::journal(std::function<void()> undo) {
  // Only called from mutators, which hold mu_ exclusively.
  if (tx_open_.load(std::memory_order_relaxed)) undo_log_.push_back(std::move(undo));
}

// ======================= secondary-index maintenance ======================

void Store::index_add_object(ObjectId id, const Object& obj) {
  auto& metrics = IndexMetrics::get();
  if (class_index_[obj.class_name].insert(id).second) {
    metrics.adds.add(1);
    metrics.class_entries.add(1);
  }
  for (const auto& [attr, value] : obj.attrs) {
    index_add_attr(id, obj.class_name, attr, value);
  }
}

void Store::index_remove_object(ObjectId id, const Object& obj) {
  auto& metrics = IndexMetrics::get();
  if (auto it = class_index_.find(obj.class_name); it != class_index_.end()) {
    if (it->second.erase(id) != 0) {
      metrics.removes.add(1);
      metrics.class_entries.add(-1);
    }
  }
  for (const auto& [attr, value] : obj.attrs) {
    index_remove_attr(id, obj.class_name, attr, value);
  }
}

void Store::index_add_attr(ObjectId id, const std::string& cls, std::string_view attr,
                           const StoredValue& value) {
  auto& metrics = IndexMetrics::get();
  auto& per_attr = attr_index_[cls];
  auto ait = per_attr.find(attr);
  if (ait == per_attr.end()) ait = per_attr.emplace(std::string(attr), ValueBucket{}).first;
  if (ait->second[value].insert(id).second) {
    metrics.adds.add(1);
    metrics.attr_entries.add(1);
  }
}

void Store::index_remove_attr(ObjectId id, const std::string& cls, std::string_view attr,
                              const StoredValue& value) {
  auto cit = attr_index_.find(cls);
  if (cit == attr_index_.end()) return;
  auto ait = cit->second.find(attr);
  if (ait == cit->second.end()) return;
  auto vit = ait->second.find(value);
  if (vit == ait->second.end()) return;
  if (vit->second.erase(id) != 0) {
    auto& metrics = IndexMetrics::get();
    metrics.removes.add(1);
    metrics.attr_entries.add(-1);
  }
  if (vit->second.empty()) ait->second.erase(vit);  // don't leak dead value buckets
}

void Store::edge_insert(RelationIndex& index, ObjectId from, ObjectId to) {
  if (index.edges.insert({from, to}).second) {
    auto& metrics = IndexMetrics::get();
    metrics.adds.add(1);
    metrics.edge_entries.add(1);
  }
}

void Store::edge_erase(RelationIndex& index, ObjectId from, ObjectId to) {
  if (index.edges.erase({from, to}) != 0) {
    auto& metrics = IndexMetrics::get();
    metrics.removes.add(1);
    metrics.edge_entries.add(-1);
  }
}

// ======================= epoch maintenance ================================

void Store::epoch_entry_insert(const std::string& cls, std::uint64_t epoch, ObjectId id) {
  epoch_index_[cls].emplace(epoch, id);
}

void Store::epoch_entry_erase(const std::string& cls, std::uint64_t epoch, ObjectId id) {
  auto cit = epoch_index_.find(cls);
  if (cit == epoch_index_.end()) return;
  auto eit = cit->second.find(epoch);
  if (eit != cit->second.end() && eit->second == id) cit->second.erase(eit);
}

void Store::touch(ObjectId id, Object& obj) {
  const std::uint64_t prev = obj.modified;
  // fetch_add under mu_ exclusive; the atomic exists so epoch() can
  // read without the lock.
  const std::uint64_t now = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (prev != 0) epoch_entry_erase(obj.class_name, prev, id);
  obj.modified = now;
  epoch_entry_insert(obj.class_name, now, id);
  journal([this, id, prev] {
    auto it = objects_.find(id);
    if (it == objects_.end()) return;
    epoch_entry_erase(it->second.class_name, it->second.modified, id);
    it->second.modified = prev;
    if (prev != 0) epoch_entry_insert(it->second.class_name, prev, id);
  });
}

// ======================= objects ==========================================

Result<ObjectId> Store::create(std::string_view class_name) {
  std::unique_lock lock(mu_);
  const ClassDef* def = schema_.find_class(class_name);
  if (def == nullptr) {
    return Result<ObjectId>::failure(Errc::not_found, "class " + std::string(class_name));
  }
  const std::uint64_t e0 = epoch_.load(std::memory_order_relaxed);
  ObjectId id = ids_.next();
  Object obj;
  obj.class_name = def->name;
  obj.created = clock_->tick();
  auto it = objects_.emplace(id, std::move(obj)).first;
  index_add_object(id, it->second);
  // The erase closure runs AFTER touch()'s undo (reverse replay), which
  // has already removed the epoch entry and zeroed the stamp.
  journal([this, id] {
    if (auto oit = objects_.find(id); oit != objects_.end()) {
      index_remove_object(id, oit->second);
      objects_.erase(oit);
    }
  });
  touch(id, it->second);
  if (wal_active()) {
    wal_note_op(e0);
    wal::emit_create(wal_pending_, id.raw(), def->name,
                     static_cast<std::uint64_t>(it->second.created));
    wal_op_done();
  }
  return id;
}

Status Store::destroy(ObjectId id) {
  std::unique_lock lock(mu_);
  const std::uint64_t e0 = epoch_.load(std::memory_order_relaxed);
  auto st = destroy_locked(id);
  if (st.ok() && wal_active()) {
    wal_note_op(e0);
    wal::emit_destroy(wal_pending_, id.raw());
    wal_op_done();
  }
  return st;
}

Status Store::destroy_locked(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return support::fail(Errc::not_found, "no such object");
  erase_object_links(id);
  Object saved = std::move(it->second);
  index_remove_object(id, saved);
  if (saved.modified != 0) epoch_entry_erase(saved.class_name, saved.modified, id);
  objects_.erase(it);
  // A destroyed object leaves the change feed (live objects only) but
  // the store epoch still advances, so feed consumers see "something
  // changed" even for a destroy with no surviving neighbors.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  journal([this, id, saved = std::move(saved)]() mutable {
    index_add_object(id, saved);
    if (saved.modified != 0) epoch_entry_insert(saved.class_name, saved.modified, id);
    objects_.emplace(id, std::move(saved));
  });
  return {};
}

void Store::erase_object_links(ObjectId id) {
  for (auto& [rel_name, index] : relations_) {
    // outgoing links
    if (auto fit = index.forward.find(id); fit != index.forward.end()) {
      std::vector<ObjectId> tos = fit->second;
      for (ObjectId to : tos) {
        auto& back = index.backward[to];
        back.erase(std::remove(back.begin(), back.end(), id), back.end());
        edge_erase(index, id, to);
        journal([this, rel = rel_name, id, to] {
          RelationIndex& idx = relations_[rel];
          idx.backward[to].push_back(id);
          edge_insert(idx, id, to);
        });
        // the surviving endpoint's relationship set changed
        if (auto oit = objects_.find(to); oit != objects_.end()) touch(to, oit->second);
      }
      index.forward.erase(fit);
      journal([this, rel = rel_name, id, tos = std::move(tos)]() mutable {
        relations_[rel].forward[id] = std::move(tos);
      });
    }
    // incoming links
    if (auto bit = index.backward.find(id); bit != index.backward.end()) {
      std::vector<ObjectId> froms = bit->second;
      for (ObjectId from : froms) {
        auto& fwd = index.forward[from];
        fwd.erase(std::remove(fwd.begin(), fwd.end(), id), fwd.end());
        edge_erase(index, from, id);
        journal([this, rel = rel_name, from, id] {
          RelationIndex& idx = relations_[rel];
          idx.forward[from].push_back(id);
          edge_insert(idx, from, id);
        });
        if (auto oit = objects_.find(from); oit != objects_.end()) touch(from, oit->second);
      }
      index.backward.erase(bit);
      journal([this, rel = rel_name, id, froms = std::move(froms)]() mutable {
        relations_[rel].backward[id] = std::move(froms);
      });
    }
  }
}

bool Store::exists(ObjectId id) const noexcept {
  std::shared_lock lock(mu_);
  return objects_.contains(id);
}

Result<std::string> Store::class_of(ObjectId id) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return Result<std::string>::failure(Errc::not_found, "no such object");
  return it->second.class_name;
}

std::size_t Store::object_count() const noexcept {
  std::shared_lock lock(mu_);
  return objects_.size();
}

// ======================= attributes =======================================

Status Store::set(ObjectId id, std::string_view attr, AttrValue value) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return support::fail(Errc::not_found, "no such object");
  const AttributeDef* def = schema_.find_attribute(it->second.class_name, attr);
  if (def == nullptr) {
    return support::fail(Errc::not_found, "attribute " + std::string(attr) + " on class " +
                                              it->second.class_name);
  }
  if (!value_matches(def->type, value)) {
    return support::fail(Errc::invalid_argument,
                         "attribute " + std::string(attr) + " expects " +
                             std::string(to_string(def->type)));
  }
  // Convert at the boundary: a text payload becomes an extent once,
  // here, and every internal structure (attr map, index key, journal)
  // shares that one buffer from now on.
  return set_stored(id, it->second, attr, to_stored(std::move(value)));
}

Status Store::set_text(ObjectId id, std::string_view attr, TextExtent value) {
  if (value == nullptr) {
    return support::fail(Errc::invalid_argument, "set_text: null extent");
  }
  std::unique_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return support::fail(Errc::not_found, "no such object");
  const AttributeDef* def = schema_.find_attribute(it->second.class_name, attr);
  if (def == nullptr) {
    return support::fail(Errc::not_found, "attribute " + std::string(attr) + " on class " +
                                              it->second.class_name);
  }
  if (def->type != AttrType::text) {
    return support::fail(Errc::invalid_argument,
                         "attribute " + std::string(attr) + " expects " +
                             std::string(to_string(def->type)));
  }
  return set_stored(id, it->second, attr, StoredValue(make_stored_text(std::move(value))));
}

Status Store::set_stored(ObjectId id, Object& obj, std::string_view attr, StoredValue value) {
  const std::uint64_t e0 = epoch_.load(std::memory_order_relaxed);
  // Emit the WAL op up front (the value is moved into the slot below);
  // nothing past this point can fail, so the buffered bytes always
  // describe a mutation that happened. The text alternative records an
  // already-memoized hash (0 = unmemoized; capture never hashes
  // eagerly) so replay can seed the recovered attribute's memo.
  const bool captured = wal_active();
  if (captured) {
    wal_note_op(e0);
    wal::ValueView wv = std::visit(
        [](const auto& v) -> wal::ValueView {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, StoredText>) {
            const auto& memo = *v.memo;
            const std::uint64_t hash = memo.valid.load(std::memory_order_acquire)
                                           ? memo.hash.load(std::memory_order_relaxed)
                                           : 0;
            return wal::TextView{hash, *v.text};
          } else {
            return wal::ValueView(v);
          }
        },
        value);
    wal::emit_set(wal_pending_, id.raw(), attr, wv);
  }
  auto& attrs = obj.attrs;
  auto ait = attrs.find(attr);
  if (ait == attrs.end()) {
    index_add_attr(id, obj.class_name, attr, value);
    attrs.emplace(std::string(attr), std::move(value));
    journal([this, id, name = std::string(attr)] {
      auto oit = objects_.find(id);
      if (oit == objects_.end()) return;
      auto cur = oit->second.attrs.find(name);
      if (cur == oit->second.attrs.end()) return;
      index_remove_attr(id, oit->second.class_name, name, cur->second);
      oit->second.attrs.erase(cur);
    });
  } else {
    StoredValue old = ait->second;  // refcount bump, not a payload copy
    index_remove_attr(id, obj.class_name, attr, old);
    index_add_attr(id, obj.class_name, attr, value);
    ait->second = std::move(value);
    journal([this, id, name = std::string(attr), old = std::move(old)]() mutable {
      auto oit = objects_.find(id);
      if (oit == objects_.end()) return;
      if (auto cur = oit->second.attrs.find(name); cur != oit->second.attrs.end()) {
        index_remove_attr(id, oit->second.class_name, name, cur->second);
      }
      index_add_attr(id, oit->second.class_name, name, old);
      oit->second.attrs[name] = std::move(old);
    });
  }
  touch(id, obj);
  if (captured) wal_op_done();
  return {};
}

Result<AttrValue> Store::get(ObjectId id, std::string_view attr) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return Result<AttrValue>::failure(Errc::not_found, "no such object");
  auto ait = it->second.attrs.find(attr);
  if (ait == it->second.attrs.end()) {
    return Result<AttrValue>::failure(Errc::not_found,
                                      "attribute " + std::string(attr) + " unset");
  }
  return to_attr(ait->second);
}

template <typename T>
static Result<T> typed_get(const Store& store, ObjectId id, std::string_view attr) {
  auto value = store.get(id, attr);
  if (!value.ok()) return Result<T>::failure(value.error().code, value.error().message);
  if (!std::holds_alternative<T>(*value)) {
    return Result<T>::failure(Errc::invalid_argument,
                              "attribute " + std::string(attr) + " has a different type");
  }
  return std::get<T>(*value);
}

Result<std::int64_t> Store::get_int(ObjectId id, std::string_view attr) const {
  return typed_get<std::int64_t>(*this, id, attr);
}
Result<std::string> Store::get_text(ObjectId id, std::string_view attr) const {
  // Via the extent so the payload is materialized exactly once (going
  // through get() would copy extent -> AttrValue -> result).
  auto ext = get_text_extent(id, attr);
  if (!ext.ok()) return Result<std::string>::failure(ext.error().code, ext.error().message);
  return **ext;
}
Result<TextExtent> Store::get_text_extent(ObjectId id, std::string_view attr) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Result<TextExtent>::failure(Errc::not_found, "no such object");
  }
  auto ait = it->second.attrs.find(attr);
  if (ait == it->second.attrs.end()) {
    return Result<TextExtent>::failure(Errc::not_found,
                                       "attribute " + std::string(attr) + " unset");
  }
  const auto* ext = std::get_if<StoredText>(&ait->second);
  if (ext == nullptr) {
    return Result<TextExtent>::failure(Errc::invalid_argument,
                                       "attribute " + std::string(attr) +
                                           " has a different type");
  }
  return ext->text;
}

Result<TextFingerprint> Store::text_fingerprint(ObjectId id, std::string_view attr) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Result<TextFingerprint>::failure(Errc::not_found, "no such object");
  }
  auto ait = it->second.attrs.find(attr);
  if (ait == it->second.attrs.end()) {
    return Result<TextFingerprint>::failure(Errc::not_found,
                                            "attribute " + std::string(attr) + " unset");
  }
  const auto* ext = std::get_if<StoredText>(&ait->second);
  if (ext == nullptr) {
    return Result<TextFingerprint>::failure(Errc::invalid_argument,
                                            "attribute " + std::string(attr) +
                                                " has a different type");
  }
  return TextFingerprint{memoized_hash(*ext), ext->text->size()};
}
Result<bool> Store::get_bool(ObjectId id, std::string_view attr) const {
  return typed_get<bool>(*this, id, attr);
}
Result<double> Store::get_real(ObjectId id, std::string_view attr) const {
  return typed_get<double>(*this, id, attr);
}

// ======================= relationships ====================================

Status Store::link(std::string_view relation, ObjectId from, ObjectId to) {
  std::unique_lock lock(mu_);
  const RelationDef* rel = schema_.find_relation(relation);
  if (rel == nullptr) return support::fail(Errc::not_found, "relation " + std::string(relation));
  auto fit = objects_.find(from);
  auto tit = objects_.find(to);
  if (fit == objects_.end() || tit == objects_.end()) {
    return support::fail(Errc::not_found, "link endpoint does not exist");
  }
  if (!schema_.is_a(fit->second.class_name, rel->from_class)) {
    return support::fail(Errc::invalid_argument,
                         "source is " + fit->second.class_name + ", relation " + rel->name +
                             " expects " + rel->from_class);
  }
  if (!schema_.is_a(tit->second.class_name, rel->to_class)) {
    return support::fail(Errc::invalid_argument,
                         "target is " + tit->second.class_name + ", relation " + rel->name +
                             " expects " + rel->to_class);
  }
  return link_nocheck(*rel, from, to);
}

Status Store::link_nocheck(const RelationDef& rel, ObjectId from, ObjectId to) {
  const std::uint64_t e0 = epoch_.load(std::memory_order_relaxed);
  RelationIndex& index = relations_[rel.name];
  auto& fwd = index.forward[from];
  if (index.edges.contains({from, to})) {
    return support::fail(Errc::already_exists, "link already present");
  }
  if (rel.cardinality == Cardinality::one_to_one && !fwd.empty()) {
    return support::fail(Errc::invalid_argument,
                         "relation " + rel.name + " is one_to_one and source already linked");
  }
  if (rel.cardinality != Cardinality::many_to_many) {
    const auto& back = index.backward[to];
    if (!back.empty()) {
      return support::fail(Errc::invalid_argument,
                           "relation " + rel.name + " target already has a source");
    }
  }
  fwd.push_back(to);
  index.backward[to].push_back(from);
  edge_insert(index, from, to);
  journal([this, rel = rel.name, from, to] {
    RelationIndex& idx = relations_[rel];
    auto& f = idx.forward[from];
    f.erase(std::remove(f.begin(), f.end(), to), f.end());
    auto& b = idx.backward[to];
    b.erase(std::remove(b.begin(), b.end(), from), b.end());
    edge_erase(idx, from, to);
  });
  // A new edge is a mutation of BOTH endpoints: a DOV gains its
  // dov_precedes successor exactly this way, and the change feed must
  // surface the superseded side too.
  if (auto oit = objects_.find(from); oit != objects_.end()) touch(from, oit->second);
  if (auto oit = objects_.find(to); oit != objects_.end()) touch(to, oit->second);
  if (wal_active()) {
    wal_note_op(e0);
    wal::emit_link(wal_pending_, rel.name, from.raw(), to.raw());
    wal_op_done();
  }
  return {};
}

Status Store::unlink(std::string_view relation, ObjectId from, ObjectId to) {
  std::unique_lock lock(mu_);
  const std::uint64_t e0 = epoch_.load(std::memory_order_relaxed);
  auto st = unlink_locked(relation, from, to);
  if (st.ok() && wal_active()) {
    wal_note_op(e0);
    wal::emit_unlink(wal_pending_, relation, from.raw(), to.raw());
    wal_op_done();
  }
  return st;
}

Status Store::unlink_locked(std::string_view relation, ObjectId from, ObjectId to) {
  const RelationDef* rel = schema_.find_relation(relation);
  if (rel == nullptr) return support::fail(Errc::not_found, "relation " + std::string(relation));
  RelationIndex& index = relations_[rel->name];
  auto& fwd = index.forward[from];
  auto it = std::find(fwd.begin(), fwd.end(), to);
  if (it == fwd.end()) return support::fail(Errc::not_found, "link not present");
  fwd.erase(it);
  auto& back = index.backward[to];
  back.erase(std::remove(back.begin(), back.end(), from), back.end());
  edge_erase(index, from, to);
  journal([this, rel = rel->name, from, to] {
    RelationIndex& idx = relations_[rel];
    idx.forward[from].push_back(to);
    idx.backward[to].push_back(from);
    edge_insert(idx, from, to);
  });
  if (auto oit = objects_.find(from); oit != objects_.end()) touch(from, oit->second);
  if (auto oit = objects_.find(to); oit != objects_.end()) touch(to, oit->second);
  return {};
}

bool Store::linked(std::string_view relation, ObjectId from, ObjectId to) const {
  std::shared_lock lock(mu_);
  auto rit = relations_.find(relation);
  if (rit == relations_.end()) return false;
  query_counter().add(1);
  return rit->second.edges.contains({from, to});
}

Result<std::vector<ObjectId>> Store::targets(std::string_view relation, ObjectId from) const {
  std::shared_lock lock(mu_);
  auto rit = relations_.find(relation);
  if (rit == relations_.end()) {
    return Result<std::vector<ObjectId>>::failure(Errc::not_found,
                                                  "relation " + std::string(relation));
  }
  auto fit = rit->second.forward.find(from);
  if (fit == rit->second.forward.end()) return std::vector<ObjectId>{};
  return fit->second;
}

Result<std::vector<ObjectId>> Store::sources(std::string_view relation, ObjectId to) const {
  std::shared_lock lock(mu_);
  auto rit = relations_.find(relation);
  if (rit == relations_.end()) {
    return Result<std::vector<ObjectId>>::failure(Errc::not_found,
                                                  "relation " + std::string(relation));
  }
  auto bit = rit->second.backward.find(to);
  if (bit == rit->second.backward.end()) return std::vector<ObjectId>{};
  return bit->second;
}

// ======================= queries ==========================================

std::vector<ObjectId> Store::objects_of(std::string_view class_name) const {
  std::shared_lock lock(mu_);
  query_counter().add(1);
  std::vector<ObjectId> out;
  for (const auto& cls : schema_.subclasses_of(class_name)) {
    auto it = class_index_.find(cls);
    if (it == class_index_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  // each per-class run is already sorted; the union across classes
  // is not, and the contract is global id order
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> Store::find(std::string_view class_name, std::string_view attr,
                                  const AttrValue& value) const {
  std::shared_lock lock(mu_);
  query_counter().add(1);
  std::vector<ObjectId> out;
  for (const auto& cls : schema_.subclasses_of(class_name)) {
    auto cit = attr_index_.find(cls);
    if (cit == attr_index_.end()) continue;
    auto ait = cit->second.find(attr);
    if (ait == cit->second.end()) continue;
    auto vit = ait->second.find(value);
    if (vit == ait->second.end()) continue;
    out.insert(out.end(), vit->second.begin(), vit->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ChangedObject> Store::objects_changed_since(std::string_view class_name,
                                                        std::uint64_t epoch) const {
  std::shared_lock lock(mu_);
  query_counter().add(1);
  std::vector<ChangedObject> out;
  for (const auto& cls : schema_.subclasses_of(class_name)) {
    auto cit = epoch_index_.find(cls);
    if (cit == epoch_index_.end()) continue;
    for (auto eit = cit->second.upper_bound(epoch); eit != cit->second.end(); ++eit) {
      out.push_back({eit->second, eit->first});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChangedObject& a, const ChangedObject& b) { return a.id < b.id; });
  return out;
}

std::optional<ObjectId> Store::find_one(std::string_view class_name, std::string_view attr,
                                        const AttrValue& value) const {
  std::shared_lock lock(mu_);
  static auto& hits = telemetry::Registry::global().counter("oms.query.find_one.hit.count");
  static auto& misses = telemetry::Registry::global().counter("oms.query.find_one.miss.count");
  query_counter().add(1);
  std::optional<ObjectId> best;
  // the contract is find().front(), i.e. the smallest matching id;
  // each value bucket is an ordered set, so per class that is begin()
  for (const auto& cls : schema_.subclasses_of(class_name)) {
    auto cit = attr_index_.find(cls);
    if (cit == attr_index_.end()) continue;
    auto ait = cit->second.find(attr);
    if (ait == cit->second.end()) continue;
    auto vit = ait->second.find(value);
    if (vit == ait->second.end() || vit->second.empty()) continue;
    ObjectId front = *vit->second.begin();
    if (!best.has_value() || front < *best) best = front;
  }
  (best.has_value() ? hits : misses).add(1);
  return best;
}

// ======================= transactions =====================================

Status Store::begin() {
  std::unique_lock lock(mu_);
  if (tx_open_.load(std::memory_order_relaxed)) {
    return support::fail(Errc::invalid_argument, "transaction already open");
  }
  static auto& begins = tx_counter("begin");
  begins.add(1);
  tx_open_.store(true, std::memory_order_relaxed);
  undo_log_.clear();
  tx_wal_op_count_ = 0;  // the first captured op opens the WAL frame
  return {};
}

Status Store::commit() {
  std::unique_lock lock(mu_);
  if (!tx_open_.load(std::memory_order_relaxed)) {
    return support::fail(Errc::invalid_argument, "no open transaction");
  }
  // Fault hook: an injected commit failure leaves the transaction OPEN
  // with its undo journal intact, so the caller can abort() and roll
  // back exactly as it would after a real storage failure.
  if (auto f = support::faultsim::trip("oms.commit"); !f.ok()) return f;
  JFM_SPAN("oms", "tx.commit");
  static auto& commits = tx_counter("commit");
  commits.add(1);
  tx_open_.store(false, std::memory_order_relaxed);
  undo_log_.clear();
  // Seal the transaction's redo record AFTER the commit itself is
  // final: a WAL flush failure never un-commits (the record stays
  // buffered for retry -- committed-prefix semantics on crash).
  if (wal_active() && tx_wal_op_count_ > 0) {
    wal_package();
  } else {
    tx_wal_op_count_ = 0;
  }
  return {};
}

Status Store::abort() {
  std::unique_lock lock(mu_);
  if (!tx_open_.load(std::memory_order_relaxed)) {
    return support::fail(Errc::invalid_argument, "no open transaction");
  }
  JFM_SPAN("oms", "tx.abort");
  static auto& aborts = tx_counter("abort");
  aborts.add(1);
  static auto& undone = telemetry::Registry::global().counter("oms.tx.undo.count");
  undone.add(undo_log_.size());
  // Undo closures may journal again if they call mutators; close the
  // transaction first so replay is not re-journaled. The closures
  // restore the secondary indexes in the same step as the primary
  // structures, so abort() leaves index == primary exactly.
  tx_open_.store(false, std::memory_order_relaxed);
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) (*it)();
  undo_log_.clear();
  // An aborted transaction leaves no WAL trace: abandon its open frame
  // by shrinking the pending buffer back to the sealed records.
  if (tx_wal_op_count_ > 0) wal_pending_.resize(tx_frame_base_);
  tx_wal_op_count_ = 0;
  return {};
}

support::Timestamp Store::created_at(ObjectId id) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  return it == objects_.end() ? 0 : it->second.created;
}

}  // namespace jfm::oms
