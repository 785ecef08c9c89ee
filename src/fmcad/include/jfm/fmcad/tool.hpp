#pragma once
// FMCAD tool integration: the tool interface, the registry that binds
// viewtypes to applications, and ToolSession -- a running tool instance
// with menus, extension-language triggers and ITC.
//
// Paper s2.2: "The FMCAD tools run on top of the framework and each
// part of the system can be modified by an extension language. ...
// The viewtype concept is very flexible and it allows viewtypes to be
// easily switched with the same tool."
// Paper s2.4: the encapsulation uses "extension language procedures to
// trigger functions and lock menu points in order to prevent data
// inconsistency" -- ToolSession provides exactly those hooks.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "jfm/extlang/interpreter.hpp"
#include "jfm/fmcad/hierarchy.hpp"
#include "jfm/fmcad/itc.hpp"
#include "jfm/fmcad/session.hpp"

namespace jfm::fmcad {

/// A document open in an FMCAD tool: the typed, in-memory model of one
/// DesignFile's payload, which the tool edits in place until the
/// session saves it. ToolInterface::open() builds it from the file.
class ToolDocument {
 public:
  virtual ~ToolDocument() = default;
  ToolDocument(const ToolDocument&) = delete;
  ToolDocument& operator=(const ToolDocument&) = delete;

  /// Execute one editing command ("add-net", "draw-rect", ...).
  /// All-or-nothing: a rejected command leaves the document exactly as
  /// it was. Every argument must be one non-empty, whitespace-free
  /// token -- the payload formats store them as single fields.
  support::Status edit(const std::string& command, const std::vector<std::string>& args);

  /// Structural check run before save; the framework refuses to save a
  /// document its tool considers corrupt. Includes the envelope check:
  /// uses() must name the masters the model instantiates.
  virtual support::Status validate() const = 0;

  /// Serialize the model (counted in tools.document.serialize.count).
  std::string payload() const;

  /// The envelope uses-list of the current state: as opened until the
  /// first successful edit, from then on the masters the model uses.
  std::vector<CellViewKey> uses() const { return edited_ ? masters() : opened_uses_; }

 protected:
  explicit ToolDocument(const DesignFile& file)
      : cell_(file.cell), viewtype_(file.viewtype), opened_uses_(file.uses) {}

  const std::string& cell() const noexcept { return cell_; }
  const std::string& viewtype() const noexcept { return viewtype_; }
  /// Does uses() name exactly `masters` (sorted, unique)? Order and
  /// repeats in the envelope do not matter.
  bool uses_match(const std::vector<CellViewKey>& masters) const;

  /// The command itself; must check everything before it mutates.
  virtual support::Status apply(const std::string& command,
                                const std::vector<std::string>& args) = 0;
  virtual std::string serialize() const = 0;
  /// Master cellviews the model instantiates, sorted and unique.
  virtual std::vector<CellViewKey> masters() const = 0;

 private:
  std::string cell_;
  std::string viewtype_;
  std::vector<CellViewKey> opened_uses_;
  bool edited_ = false;
};

/// Implemented by each FMCAD application (schematic entry, layout
/// editor, digital simulator -- see src/tools). A tool opens the
/// DesignFile of a cellview whose view has the tool's viewtype as a
/// ToolDocument and edits that.
class ToolInterface {
 public:
  virtual ~ToolInterface() = default;
  virtual std::string name() const = 0;
  virtual std::string viewtype() const = 0;

  /// Payload of a brand-new document.
  virtual std::string empty_payload() const = 0;

  /// Parse `file`'s payload into an open document (counted in
  /// tools.document.parse.count). Fails with parse_error on a payload
  /// the tool cannot read.
  support::Result<std::unique_ptr<ToolDocument>> open(const DesignFile& file) const;

  /// Stateless forms over open(), for callers that hold a DesignFile
  /// rather than a session: validate = open + validate; apply = open +
  /// edit, returning the file with the new payload and uses-list.
  support::Status validate(const DesignFile& doc) const;
  support::Result<DesignFile> apply(const DesignFile& doc, const std::string& command,
                                    const std::vector<std::string>& args) const;

  /// Editing commands this tool offers; used to build the default menu.
  virtual std::vector<std::string> commands() const = 0;

 protected:
  virtual support::Result<std::unique_ptr<ToolDocument>> parse(const DesignFile& file) const = 0;
};

class ToolRegistry {
 public:
  support::Status add(std::shared_ptr<ToolInterface> tool);
  ToolInterface* by_viewtype(std::string_view viewtype) const;
  ToolInterface* by_name(std::string_view name) const;
  std::vector<std::string> names() const;

 private:
  std::vector<std::shared_ptr<ToolInterface>> tools_;
};

struct MenuItem {
  std::string name;
  std::string command;
  bool enabled = true;  ///< false = "locked menu point"
};

/// One invocation of an FMCAD tool on one cellview, as a designer sees
/// it: a window with menus. The hybrid framework drives this class from
/// its activity wrappers.
class ToolSession {
 public:
  /// `interp` is the designer's FMCAD customization interpreter; the
  /// session fires triggers on it:
  ///   "menu"      (menu item command args...) -- veto_on_false
  ///   "pre-save"  (cell view)                 -- veto_on_false
  ///   "post-save" (cell view)
  ///   "post-open" (cell view readonly?)
  ToolSession(DesignerSession* designer, ToolInterface* tool, ItcBus* bus,
              extlang::Interpreter* interp);
  ~ToolSession();

  ToolSession(const ToolSession&) = delete;
  ToolSession& operator=(const ToolSession&) = delete;

  // -- document lifecycle --------------------------------------------------
  /// Open a cellview. read_only opens the snapshot's default version
  /// without a checkout (native FMCAD browsing); otherwise the cellview
  /// is checked out and the working copy loaded. The payload is not
  /// parsed here: the first edit opens the tool's document.
  support::Status open(const CellViewKey& key, bool read_only);
  bool is_open() const noexcept { return file_.has_value(); }
  bool read_only() const noexcept { return read_only_; }
  /// The open design file, with any edits since the last call
  /// serialized into it. save() reuses that serialization.
  const DesignFile& document();
  const CellViewKey& key() const noexcept { return key_; }

  /// Validate + write the working copy (keeps the checkout). Without a
  /// successful edit, the payload is written as it was opened.
  support::Status save();
  /// Save, check in as a new version and close; returns version number.
  support::Result<int> checkin();
  /// Close without keeping changes (cancels any checkout).
  support::Status discard();

  // -- editing ---------------------------------------------------------------
  /// Run a tool command directly (scripting path, no menu checks) on
  /// the open document; the first edit parses the payload.
  support::Status edit(const std::string& command, const std::vector<std::string>& args);

  // -- menus -------------------------------------------------------------------
  const std::map<std::string, std::vector<MenuItem>>& menus() const noexcept { return menus_; }
  support::Status add_menu_item(const std::string& menu, MenuItem item);
  /// Lock or unlock a menu point (encapsulation consistency guard).
  support::Status set_menu_enabled(const std::string& menu, const std::string& item,
                                   bool enabled);
  /// Count of interaction points currently offered (s3.4 UI burden).
  std::size_t menu_item_count(bool enabled_only) const;
  /// Invoke a menu item as a designer would: enabled check, "menu"
  /// trigger (vetoable), then dispatch. Built-in commands: "save",
  /// "checkin", "discard"; anything else goes to the tool.
  support::Status invoke_menu(const std::string& menu, const std::string& item,
                              const std::vector<std::string>& args);

  // -- cross-probing (ITC) -----------------------------------------------------
  /// Publish a cross-probe for a named object (net, instance).
  std::size_t probe(const std::string& object);
  /// Objects highlighted in this session by other tools' probes.
  const std::vector<std::string>& highlights() const noexcept { return highlights_; }

 private:
  static std::string probe_topic(const std::string& cell) { return "crossprobe:" + cell; }
  void install_default_menus();
  void close();

  DesignerSession* designer_;
  ToolInterface* tool_;
  ItcBus* bus_;
  extlang::Interpreter* interp_;

  CellViewKey key_;
  std::optional<DesignFile> file_;
  std::unique_ptr<ToolDocument> doc_;  ///< built by the first edit
  bool unflushed_ = false;             ///< doc_ holds edits file_ lacks
  bool read_only_ = false;
  std::map<std::string, std::vector<MenuItem>> menus_;
  std::optional<ItcBus::SubscriptionId> probe_subscription_;
  std::vector<std::string> highlights_;
};

}  // namespace jfm::fmcad
