#include "jfm/fmcad/journal.hpp"

#include <array>
#include <utility>

#include "jfm/support/strings.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;
using support::Status;

namespace {

struct OpSpec {
  MetaOp op;
  const char* word;
  std::size_t fields;  ///< fields after "j <gen> <word>"
};

constexpr std::array<OpSpec, 9> kOps{{
    {MetaOp::define_view, "view", 2},
    {MetaOp::create_cell, "cell", 1},
    {MetaOp::create_cellview, "cellview", 2},
    {MetaOp::create_config, "config", 1},
    {MetaOp::set_member, "member", 4},
    {MetaOp::remove_member, "unmember", 3},
    {MetaOp::checkout, "checkout", 5},
    {MetaOp::checkin, "checkin", 6},
    {MetaOp::cancel, "cancel", 3},
}};

const OpSpec& spec_of(MetaOp op) {
  for (const auto& spec : kOps) {
    if (spec.op == op) return spec;
  }
  return kOps.front();
}

Status journal_fail(const std::string& why) {
  return support::fail(Errc::parse_error, ".meta journal: " + why);
}

}  // namespace

MetaRecord MetaRecord::define_view(std::string name, std::string viewtype) {
  MetaRecord rec;
  rec.op = MetaOp::define_view;
  rec.name = std::move(name);
  rec.viewtype = std::move(viewtype);
  return rec;
}

MetaRecord MetaRecord::create_cell(std::string name) {
  MetaRecord rec;
  rec.op = MetaOp::create_cell;
  rec.name = std::move(name);
  return rec;
}

MetaRecord MetaRecord::create_cellview(CellViewKey key) {
  MetaRecord rec;
  rec.op = MetaOp::create_cellview;
  rec.key = std::move(key);
  return rec;
}

MetaRecord MetaRecord::create_config(std::string name) {
  MetaRecord rec;
  rec.op = MetaOp::create_config;
  rec.name = std::move(name);
  return rec;
}

MetaRecord MetaRecord::set_member(std::string config, CellViewKey key, int version) {
  MetaRecord rec;
  rec.op = MetaOp::set_member;
  rec.name = std::move(config);
  rec.key = std::move(key);
  rec.member_version = version;
  return rec;
}

MetaRecord MetaRecord::remove_member(std::string config, CellViewKey key) {
  MetaRecord rec;
  rec.op = MetaOp::remove_member;
  rec.name = std::move(config);
  rec.key = std::move(key);
  return rec;
}

MetaRecord MetaRecord::checkout(CellViewKey key, CheckOutStatus lock) {
  MetaRecord rec;
  rec.op = MetaOp::checkout;
  rec.key = std::move(key);
  rec.lock = std::move(lock);
  return rec;
}

MetaRecord MetaRecord::checkin(CellViewKey key, VersionInfo version) {
  MetaRecord rec;
  rec.op = MetaOp::checkin;
  rec.key = std::move(key);
  rec.version = std::move(version);
  return rec;
}

MetaRecord MetaRecord::cancel(CellViewKey key, std::string user) {
  MetaRecord rec;
  rec.op = MetaOp::cancel;
  rec.key = std::move(key);
  rec.lock.user = std::move(user);
  return rec;
}

std::string MetaRecord::encode() const {
  std::string out = "j " + std::to_string(generation) + " " + spec_of(op).word;
  auto field = [&out](const std::string& text) {
    out += ' ';
    out += text;
  };
  switch (op) {
    case MetaOp::define_view:
      field(name);
      field(viewtype);
      break;
    case MetaOp::create_cell:
    case MetaOp::create_config:
      field(name);
      break;
    case MetaOp::create_cellview:
      field(key.cell);
      field(key.view);
      break;
    case MetaOp::set_member:
      field(name);
      field(key.cell);
      field(key.view);
      field(std::to_string(member_version));
      break;
    case MetaOp::remove_member:
      field(name);
      field(key.cell);
      field(key.view);
      break;
    case MetaOp::checkout:
      field(key.cell);
      field(key.view);
      field(lock.user);
      field(std::to_string(lock.base_version));
      field(lock.work_file);
      break;
    case MetaOp::checkin:
      field(key.cell);
      field(key.view);
      field(std::to_string(version.number));
      field(version.file);
      field(std::to_string(version.mtime));
      field(version.author);
      break;
    case MetaOp::cancel:
      field(key.cell);
      field(key.view);
      field(lock.user);
      break;
  }
  out += '\n';
  return out;
}

Result<MetaRecord> MetaRecord::decode(std::string_view line) {
  auto fail = [&line](const char* why) {
    return Result<MetaRecord>::failure(
        Errc::parse_error, std::string(".meta journal: ") + why + " in '" + std::string(line) + "'");
  };
  const auto f = support::split_ws(line);
  if (f.size() < 3 || f[0] != "j") return fail("not a record");
  MetaRecord rec;
  if (!support::parse_integer(f[1], rec.generation)) return fail("bad generation");
  const OpSpec* spec = nullptr;
  for (const auto& s : kOps) {
    if (f[2] == s.word) spec = &s;
  }
  if (spec == nullptr) return fail("unknown op");
  if (f.size() != 3 + spec->fields) return fail("wrong field count");
  rec.op = spec->op;
  bool numbers_ok = true;
  switch (rec.op) {
    case MetaOp::define_view:
      rec.name = f[3];
      rec.viewtype = f[4];
      break;
    case MetaOp::create_cell:
    case MetaOp::create_config:
      rec.name = f[3];
      break;
    case MetaOp::create_cellview:
      rec.key = {f[3], f[4]};
      break;
    case MetaOp::set_member:
      rec.name = f[3];
      rec.key = {f[4], f[5]};
      numbers_ok = support::parse_integer(f[6], rec.member_version);
      break;
    case MetaOp::remove_member:
      rec.name = f[3];
      rec.key = {f[4], f[5]};
      break;
    case MetaOp::checkout:
      rec.key = {f[3], f[4]};
      rec.lock.user = f[5];
      numbers_ok = support::parse_integer(f[6], rec.lock.base_version);
      rec.lock.work_file = f[7];
      break;
    case MetaOp::checkin:
      rec.key = {f[3], f[4]};
      numbers_ok = support::parse_integer(f[5], rec.version.number) &&
                   support::parse_integer(f[7], rec.version.mtime);
      rec.version.file = f[6];
      rec.version.author = f[8];
      break;
    case MetaOp::cancel:
      rec.key = {f[3], f[4]};
      rec.lock.user = f[5];
      break;
  }
  if (!numbers_ok) return fail("bad number");
  return rec;
}

Status MetaRecord::apply(LibraryMeta& meta) const {
  if (generation != meta.generation + 1) {
    return journal_fail("record for generation " + std::to_string(generation) +
                        " follows generation " + std::to_string(meta.generation));
  }
  // Validate every reference before touching `meta`, so a rejected
  // record leaves it exactly as it was.
  CellViewRecord* record = nullptr;
  ConfigRecord* config = nullptr;
  switch (op) {
    case MetaOp::set_member:
    case MetaOp::remove_member: {
      auto it = meta.configs.find(name);
      if (it == meta.configs.end()) return journal_fail("no config " + name);
      config = &it->second;
      break;
    }
    case MetaOp::checkout:
    case MetaOp::checkin:
    case MetaOp::cancel:
      record = meta.find_cellview(key);
      if (record == nullptr) return journal_fail("no cellview " + key.str());
      break;
    default:
      break;
  }
  switch (op) {
    case MetaOp::define_view:
      meta.views.push_back({name, viewtype});
      break;
    case MetaOp::create_cell:
      meta.cells.push_back(name);
      break;
    case MetaOp::create_cellview:
      meta.cellviews[key].key = key;
      break;
    case MetaOp::create_config:
      meta.configs[name].name = name;
      break;
    case MetaOp::set_member:
      config->members[key] = member_version;
      break;
    case MetaOp::remove_member:
      config->members.erase(key);
      break;
    case MetaOp::checkout:
      record->checkout = lock;
      break;
    case MetaOp::checkin:
      record->versions.push_back(version);
      record->checkout.reset();
      break;
    case MetaOp::cancel:
      record->checkout.reset();
      break;
  }
  meta.generation = generation;
  return {};
}

Status replay(std::string_view records, LibraryMeta& meta) {
  while (!records.empty()) {
    const std::size_t newline = records.find('\n');
    if (newline == std::string_view::npos) return journal_fail("unterminated record");
    auto record = MetaRecord::decode(records.substr(0, newline));
    if (!record.ok()) return Status(record.error());
    if (auto st = record->apply(meta); !st.ok()) return st;
    records.remove_prefix(newline + 1);
  }
  return {};
}

}  // namespace jfm::fmcad
