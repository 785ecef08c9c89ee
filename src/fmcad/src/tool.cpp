#include "jfm/fmcad/tool.hpp"

#include <algorithm>
#include <set>

#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::fmcad {

using support::Errc;
using support::Result;
using support::Status;

namespace telemetry = support::telemetry;

Status ToolDocument::edit(const std::string& command, const std::vector<std::string>& args) {
  for (const auto& arg : args) {
    // The payload parsers split fields on exactly these characters.
    const bool token =
        !arg.empty() && std::none_of(arg.begin(), arg.end(), support::is_ascii_space);
    if (!token) {
      return support::fail(Errc::invalid_argument,
                           command + ": argument '" + arg + "' is not a single token");
    }
  }
  if (auto st = apply(command, args); !st.ok()) return st;
  edited_ = true;
  return {};
}

bool ToolDocument::uses_match(const std::vector<CellViewKey>& masters) const {
  const auto advertised = uses();
  const std::set<CellViewKey> listed(advertised.begin(), advertised.end());
  return std::equal(listed.begin(), listed.end(), masters.begin(), masters.end());
}

std::string ToolDocument::payload() const {
  static auto& serializations =
      telemetry::Registry::global().counter("tools.document.serialize.count");
  serializations.add(1);
  return serialize();
}

Result<std::unique_ptr<ToolDocument>> ToolInterface::open(const DesignFile& file) const {
  static auto& parses = telemetry::Registry::global().counter("tools.document.parse.count");
  parses.add(1);
  return parse(file);
}

Status ToolInterface::validate(const DesignFile& doc) const {
  auto opened = open(doc);
  if (!opened.ok()) return Status(opened.error());
  return (*opened)->validate();
}

Result<DesignFile> ToolInterface::apply(const DesignFile& doc, const std::string& command,
                                        const std::vector<std::string>& args) const {
  auto opened = open(doc);
  if (!opened.ok()) return opened.error();
  ToolDocument& model = **opened;
  if (auto st = model.edit(command, args); !st.ok()) return st.error();
  DesignFile updated = doc;
  updated.payload = model.payload();
  updated.uses = model.uses();
  return updated;
}

Status ToolRegistry::add(std::shared_ptr<ToolInterface> tool) {
  if (by_name(tool->name()) != nullptr) {
    return support::fail(Errc::already_exists, "tool " + tool->name());
  }
  if (by_viewtype(tool->viewtype()) != nullptr) {
    return support::fail(Errc::already_exists,
                         "viewtype " + tool->viewtype() + " already has a tool");
  }
  tools_.push_back(std::move(tool));
  return {};
}

ToolInterface* ToolRegistry::by_viewtype(std::string_view viewtype) const {
  for (const auto& t : tools_) {
    if (t->viewtype() == viewtype) return t.get();
  }
  return nullptr;
}

ToolInterface* ToolRegistry::by_name(std::string_view name) const {
  for (const auto& t : tools_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

std::vector<std::string> ToolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(tools_.size());
  for (const auto& t : tools_) out.push_back(t->name());
  return out;
}

ToolSession::ToolSession(DesignerSession* designer, ToolInterface* tool, ItcBus* bus,
                         extlang::Interpreter* interp)
    : designer_(designer), tool_(tool), bus_(bus), interp_(interp) {
  install_default_menus();
}

ToolSession::~ToolSession() {
  if (probe_subscription_) bus_->unsubscribe(*probe_subscription_);
  if (is_open() && !read_only_) {
    (void)designer_->cancel_checkout(key_);  // abandoning an edit releases the lock
  }
}

void ToolSession::close() {
  file_.reset();
  doc_.reset();
  unflushed_ = false;
  if (probe_subscription_) {
    bus_->unsubscribe(*probe_subscription_);
    probe_subscription_.reset();
  }
}

void ToolSession::install_default_menus() {
  menus_["File"] = {
      {"Save", "save", true},
      {"Check In", "checkin", true},
      {"Discard", "discard", true},
  };
  std::vector<MenuItem> edit_items;
  for (const auto& cmd : tool_->commands()) edit_items.push_back({cmd, cmd, true});
  menus_["Edit"] = std::move(edit_items);
  // The hierarchy menu is what the JCF wrapper locks: free hierarchy
  // manipulation would bypass the metadata JCF controls (s2.4, s3.3).
  menus_["Hierarchy"] = {
      {"Add Instance", "add-instance", true},
      {"Remove Instance", "remove-instance", true},
  };
  menus_["Probe"] = {{"Cross Probe", "probe", true}};
}

Status ToolSession::open(const CellViewKey& key, bool read_only) {
  JFM_SPAN("tools", "open");
  if (is_open()) return support::fail(Errc::invalid_argument, "session already has a document");
  const ViewDef* view = designer_->view().find_view(key.view);
  if (view == nullptr) {
    // The designer's snapshot may simply be stale; a refresh would fix it.
    return support::fail(Errc::not_found, "view " + key.view + " (refresh?)");
  }
  if (view->viewtype != tool_->viewtype()) {
    return support::fail(Errc::invalid_argument,
                         "view " + key.view + " has viewtype " + view->viewtype + ", tool " +
                             tool_->name() + " edits " + tool_->viewtype());
  }
  std::string text;
  if (read_only) {
    auto content = designer_->read_default(key);
    if (!content.ok()) return Status(content.error());
    text = std::move(*content);
  } else {
    auto work = designer_->checkout(key);
    if (!work.ok()) return Status(work.error());
    auto content = designer_->library().fs().read_file(*work);
    if (!content.ok()) {
      // A failed open leaves no session that would release the lock.
      (void)designer_->cancel_checkout(key);
      return Status(content.error());
    }
    text = std::move(*content);
  }
  if (text.empty()) {
    DesignFile file;
    file.cell = key.cell;
    file.view = key.view;
    file.viewtype = tool_->viewtype();
    file.payload = tool_->empty_payload();
    file_ = std::move(file);
  } else {
    auto file = DesignFile::parse(text);
    if (!file.ok()) {
      if (!read_only) (void)designer_->cancel_checkout(key);
      return Status(file.error());
    }
    file_ = std::move(*file);
  }
  key_ = key;
  read_only_ = read_only;
  highlights_.clear();
  probe_subscription_ = bus_->subscribe(probe_topic(key.cell), [this](const ItcMessage& msg) {
    // Ignore our own probes; record everyone else's as highlights.
    if (msg.sender == tool_->name() + "/" + designer_->user()) return;
    auto it = msg.fields.find("object");
    if (it != msg.fields.end()) highlights_.push_back(it->second);
  });
  (void)interp_->fire("post-open", {extlang::Value(key.cell), extlang::Value(key.view),
                                    extlang::Value(read_only)});
  return {};
}

const DesignFile& ToolSession::document() {
  if (unflushed_) {
    file_->payload = doc_->payload();
    file_->uses = doc_->uses();
    unflushed_ = false;
  }
  return *file_;
}

Status ToolSession::save() {
  JFM_SPAN("tools", "save");
  if (!is_open()) return support::fail(Errc::invalid_argument, "no open document");
  if (read_only_) return support::fail(Errc::permission_denied, "document opened read-only");
  const DesignFile& file = document();
  if (auto st = doc_ ? doc_->validate() : tool_->validate(file); !st.ok()) return st;
  if (auto st = interp_->fire("pre-save", {extlang::Value(key_.cell), extlang::Value(key_.view)},
                              /*veto_on_false=*/true);
      !st.ok()) {
    return st;
  }
  if (auto st = designer_->write_working(key_, file.serialize()); !st.ok()) return st;
  (void)interp_->fire("post-save", {extlang::Value(key_.cell), extlang::Value(key_.view)});
  return {};
}

Result<int> ToolSession::checkin() {
  if (auto st = save(); !st.ok()) return Result<int>::failure(st.error().code, st.error().message);
  auto version = designer_->checkin(key_);
  if (!version.ok()) return version;
  close();
  return version;
}

Status ToolSession::discard() {
  if (!is_open()) return support::fail(Errc::invalid_argument, "no open document");
  if (!read_only_) {
    if (auto st = designer_->cancel_checkout(key_); !st.ok()) return st;
  }
  close();
  return {};
}

Status ToolSession::edit(const std::string& command, const std::vector<std::string>& args) {
  JFM_SPAN("tools", "edit");
  if (!is_open()) return support::fail(Errc::invalid_argument, "no open document");
  if (read_only_) return support::fail(Errc::permission_denied, "document opened read-only");
  if (!doc_) {
    auto opened = tool_->open(*file_);
    if (!opened.ok()) return Status(opened.error());
    doc_ = std::move(*opened);
  }
  if (auto st = doc_->edit(command, args); !st.ok()) return st;
  unflushed_ = true;
  return {};
}

Status ToolSession::add_menu_item(const std::string& menu, MenuItem item) {
  for (const auto& existing : menus_[menu]) {
    if (existing.name == item.name) {
      return support::fail(Errc::already_exists, menu + "/" + item.name);
    }
  }
  menus_[menu].push_back(std::move(item));
  return {};
}

Status ToolSession::set_menu_enabled(const std::string& menu, const std::string& item,
                                     bool enabled) {
  auto mit = menus_.find(menu);
  if (mit == menus_.end()) return support::fail(Errc::not_found, "menu " + menu);
  for (auto& entry : mit->second) {
    if (entry.name == item) {
      entry.enabled = enabled;
      return {};
    }
  }
  return support::fail(Errc::not_found, menu + "/" + item);
}

std::size_t ToolSession::menu_item_count(bool enabled_only) const {
  std::size_t n = 0;
  for (const auto& [menu, items] : menus_) {
    for (const auto& item : items) {
      if (!enabled_only || item.enabled) ++n;
    }
  }
  return n;
}

Status ToolSession::invoke_menu(const std::string& menu, const std::string& item,
                                const std::vector<std::string>& args) {
  auto mit = menus_.find(menu);
  if (mit == menus_.end()) return support::fail(Errc::not_found, "menu " + menu);
  const MenuItem* found = nullptr;
  for (const auto& entry : mit->second) {
    if (entry.name == item) {
      found = &entry;
      break;
    }
  }
  if (found == nullptr) return support::fail(Errc::not_found, menu + "/" + item);
  if (!found->enabled) {
    return support::fail(Errc::permission_denied,
                         "menu point " + menu + "/" + item + " is locked");
  }
  extlang::ValueList trigger_args{extlang::Value(menu), extlang::Value(found->command)};
  for (const auto& a : args) trigger_args.push_back(extlang::Value(a));
  if (auto st = interp_->fire("menu", trigger_args, /*veto_on_false=*/true); !st.ok()) {
    return st;
  }
  if (found->command == "save") return save();
  if (found->command == "checkin") {
    auto v = checkin();
    return v.ok() ? Status{} : Status(v.error());
  }
  if (found->command == "discard") return discard();
  if (found->command == "probe") {
    if (args.empty()) return support::fail(Errc::invalid_argument, "probe needs an object");
    probe(args[0]);
    return {};
  }
  return edit(found->command, args);
}

std::size_t ToolSession::probe(const std::string& object) {
  ItcMessage msg;
  msg.topic = probe_topic(key_.cell);
  msg.sender = tool_->name() + "/" + designer_->user();
  msg.fields["object"] = object;
  msg.fields["view"] = key_.view;
  return bus_->publish(msg);
}

}  // namespace jfm::fmcad
