#include "jfm/fmcad/meta.hpp"

#include <algorithm>

#include "jfm/support/strings.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;

bool LibraryMeta::has_cell(std::string_view name) const {
  return std::find(cells.begin(), cells.end(), name) != cells.end();
}

const ViewDef* LibraryMeta::find_view(std::string_view name) const {
  for (const auto& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const CellViewRecord* LibraryMeta::find_cellview(const CellViewKey& key) const {
  auto it = cellviews.find(key);
  return it == cellviews.end() ? nullptr : &it->second;
}

CellViewRecord* LibraryMeta::find_cellview(const CellViewKey& key) {
  auto it = cellviews.find(key);
  return it == cellviews.end() ? nullptr : &it->second;
}

const ConfigRecord* LibraryMeta::find_config(std::string_view name) const {
  auto it = configs.find(std::string(name));
  return it == configs.end() ? nullptr : &it->second;
}

std::string LibraryMeta::serialize() const {
  std::string out = "fmcadmeta 1\n";
  out += "library " + library + "\n";
  out += "generation " + std::to_string(generation) + "\n";
  for (const auto& v : views) out += "view " + v.name + " " + v.viewtype + "\n";
  for (const auto& c : cells) out += "cell " + c + "\n";
  for (const auto& [key, record] : cellviews) {
    out += "cellview " + key.cell + " " + key.view + "\n";
    for (const auto& ver : record.versions) {
      out += "version " + key.cell + " " + key.view + " " + std::to_string(ver.number) + " " +
             ver.file + " " + std::to_string(ver.mtime) + " " + ver.author + "\n";
    }
    if (record.checkout) {
      out += "checkout " + key.cell + " " + key.view + " " + record.checkout->user + " " +
             std::to_string(record.checkout->base_version) + " " + record.checkout->work_file +
             "\n";
    }
  }
  for (const auto& [name, config] : configs) {
    out += "config " + name + "\n";
    for (const auto& [key, version] : config.members) {
      out += "member " + name + " " + key.cell + " " + key.view + " " +
             std::to_string(version) + "\n";
    }
  }
  out += "end\n";
  return out;
}

Result<LibraryMeta> Library_meta_parse_fail(const std::string& why) {
  return Result<LibraryMeta>::failure(Errc::parse_error, ".meta: " + why);
}

Result<LibraryMeta> LibraryMeta::parse(const std::string& text) {
  auto lines = support::split(text, '\n');
  if (lines.empty() || support::trim(lines[0]) != "fmcadmeta 1") {
    return Library_meta_parse_fail("bad header");
  }
  LibraryMeta meta;
  bool saw_end = false;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    std::string_view line = support::trim(lines[n]);
    if (line.empty()) continue;
    if (saw_end) return Library_meta_parse_fail("content after end");
    auto f = support::split_ws(line);
    const std::string& kind = f[0];
    bool numbers_ok = true;
    if (kind == "end") {
      saw_end = true;
    } else if (kind == "library" && f.size() == 2) {
      meta.library = f[1];
    } else if (kind == "generation" && f.size() == 2) {
      numbers_ok = support::parse_integer(f[1], meta.generation);
    } else if (kind == "view" && f.size() == 3) {
      meta.views.push_back({f[1], f[2]});
    } else if (kind == "cell" && f.size() == 2) {
      meta.cells.push_back(f[1]);
    } else if (kind == "cellview" && f.size() == 3) {
      CellViewKey key{f[1], f[2]};
      meta.cellviews[key].key = key;
    } else if (kind == "version" && f.size() == 7) {
      auto* record = meta.find_cellview(CellViewKey{f[1], f[2]});
      if (record == nullptr) return Library_meta_parse_fail("version before cellview");
      VersionInfo ver;
      numbers_ok = support::parse_integer(f[3], ver.number) &&
                   support::parse_integer(f[5], ver.mtime);
      ver.file = f[4];
      ver.author = f[6];
      record->versions.push_back(ver);
    } else if (kind == "checkout" && f.size() == 6) {
      auto* record = meta.find_cellview(CellViewKey{f[1], f[2]});
      if (record == nullptr) return Library_meta_parse_fail("checkout before cellview");
      CheckOutStatus lock{f[3], 0, f[5]};
      numbers_ok = support::parse_integer(f[4], lock.base_version);
      record->checkout = lock;
    } else if (kind == "config" && f.size() == 2) {
      meta.configs[f[1]].name = f[1];
    } else if (kind == "member" && f.size() == 5) {
      auto it = meta.configs.find(f[1]);
      if (it == meta.configs.end()) return Library_meta_parse_fail("member before config");
      numbers_ok = support::parse_integer(f[4], it->second.members[CellViewKey{f[2], f[3]}]);
    } else {
      return Library_meta_parse_fail("bad record '" + std::string(line) + "'");
    }
    if (!numbers_ok) return Library_meta_parse_fail("bad number in '" + std::string(line) + "'");
  }
  if (!saw_end) return Library_meta_parse_fail("truncated (no end)");
  return meta;
}

}  // namespace jfm::fmcad
