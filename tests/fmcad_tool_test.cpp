// ITC bus, tool registry, ToolSession menus / triggers / cross-probing
// (paper s2.2: inter-tool communication; s2.4: trigger functions and
// locked menu points).

#include <gtest/gtest.h>

#include "jfm/fmcad/tool.hpp"
#include "jfm/support/telemetry.hpp"
#include "jfm/tools/schematic_tool.hpp"

namespace jfm::fmcad {
namespace {

using support::Errc;

TEST(ItcBus, DeliversToTopicSubscribersInOrder) {
  ItcBus bus;
  std::vector<std::string> seen;
  bus.subscribe("t", [&](const ItcMessage& m) { seen.push_back("a:" + m.fields.at("x")); });
  bus.subscribe("t", [&](const ItcMessage& m) { seen.push_back("b:" + m.fields.at("x")); });
  bus.subscribe("other", [&](const ItcMessage&) { seen.push_back("other"); });
  ItcMessage msg;
  msg.topic = "t";
  msg.sender = "test";
  msg.fields["x"] = "1";
  EXPECT_EQ(bus.publish(msg), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a:1");
  EXPECT_EQ(seen[1], "b:1");
  EXPECT_EQ(bus.history().size(), 1u);
}

TEST(ItcBus, UnsubscribeStopsDelivery) {
  ItcBus bus;
  int hits = 0;
  auto id = bus.subscribe("t", [&](const ItcMessage&) { ++hits; });
  ItcMessage msg;
  msg.topic = "t";
  bus.publish(msg);
  bus.unsubscribe(id);
  bus.publish(msg);
  EXPECT_EQ(hits, 1);
}

TEST(ToolRegistry, OneToolPerViewtype) {
  ToolRegistry registry;
  ASSERT_TRUE(registry.add(std::make_shared<tools::SchematicTool>()).ok());
  EXPECT_EQ(registry.add(std::make_shared<tools::SchematicTool>()).code(),
            Errc::already_exists);
  EXPECT_NE(registry.by_viewtype("schematic"), nullptr);
  EXPECT_NE(registry.by_name("schematic_entry"), nullptr);
  EXPECT_EQ(registry.by_viewtype("nope"), nullptr);
  EXPECT_EQ(registry.names().size(), 1u);
}

class ToolSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(vfs::Path().child("libs")).ok());
    auto lib = Library::create(&fs, &clock, vfs::Path().child("libs"), "work");
    ASSERT_TRUE(lib.ok());
    library = *lib;
    alice = std::make_unique<DesignerSession>(library, "alice");
    ASSERT_TRUE(alice->define_view("schematic", "schematic").ok());
    ASSERT_TRUE(alice->create_cell("alu").ok());
    ASSERT_TRUE(alice->create_cellview({"alu", "schematic"}).ok());
  }

  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  std::shared_ptr<Library> library;
  std::unique_ptr<DesignerSession> alice;
  tools::SchematicTool tool;
  ItcBus bus;
  extlang::Interpreter interp;
};

TEST_F(ToolSessionTest, OpenEditSaveCheckin) {
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
  EXPECT_TRUE(session.is_open());
  ASSERT_TRUE(session.edit("add-port", {"a", "in"}).ok());
  ASSERT_TRUE(session.edit("add-port", {"y", "out"}).ok());
  ASSERT_TRUE(session.edit("add-prim", {"g0", "BUF"}).ok());
  ASSERT_TRUE(session.edit("connect", {"a", "g0", "a"}).ok());
  ASSERT_TRUE(session.edit("connect", {"y", "g0", "y"}).ok());
  auto version = session.checkin();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1);
  EXPECT_FALSE(session.is_open());
  // the stored file parses back
  auto text = alice->read_default({"alu", "schematic"});
  ASSERT_TRUE(text.ok());
  auto file = DesignFile::parse(*text);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->viewtype, "schematic");
}

TEST_F(ToolSessionTest, SaveVetoedWhenToolRejectsDocument) {
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
  // a port without its net is structurally impossible through the tool;
  // simulate a raw pre-save trigger veto instead
  interp.define_builtin("deny", [](extlang::Interpreter&,
                                   extlang::ValueList&) -> support::Result<extlang::Value> {
    return extlang::Value(false);
  });
  interp.add_trigger("pre-save", *interp.global("deny"));
  auto st = session.save();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::permission_denied);
  ASSERT_TRUE(session.discard().ok());
}

TEST_F(ToolSessionTest, ReadOnlyOpenCannotEditOrSave) {
  {
    ToolSession writer(alice.get(), &tool, &bus, &interp);
    ASSERT_TRUE(writer.open({"alu", "schematic"}, false).ok());
    ASSERT_TRUE(writer.checkin().ok());
  }
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, true).ok());
  EXPECT_EQ(session.edit("add-net", {"n"}).code(), Errc::permission_denied);
  EXPECT_EQ(session.save().code(), Errc::permission_denied);
  ASSERT_TRUE(session.discard().ok());
  // read-only open holds no checkout
  EXPECT_FALSE(library->meta().find_cellview({"alu", "schematic"})->checkout.has_value());
}

// The session parses the payload at the first edit, not at open, and
// writes it back unchanged when no edit succeeded.
TEST_F(ToolSessionTest, PayloadParsedOnFirstEditAndKeptVerbatimWithoutOne) {
  const CellViewKey key{"alu", "schematic"};
  const std::string text =
      "cvfile 1\ncellview alu schematic schematic\npayload\n# hand-made\nnet  n1\n";
  ASSERT_TRUE(alice->checkout(key).ok());
  ASSERT_TRUE(alice->write_working(key, text).ok());
  ASSERT_TRUE(alice->checkin(key).ok());
  auto& parses = support::telemetry::Registry::global().counter("tools.document.parse.count");
  {
    const std::uint64_t before = parses.value();
    ToolSession viewer(alice.get(), &tool, &bus, &interp);
    ASSERT_TRUE(viewer.open(key, /*read_only=*/true).ok());
    EXPECT_EQ(viewer.document().payload, "# hand-made\nnet  n1\n");
    EXPECT_EQ(parses.value(), before);  // browsing never builds a document
  }
  {
    ToolSession session(alice.get(), &tool, &bus, &interp);
    ASSERT_TRUE(session.open(key, false).ok());
    EXPECT_EQ(session.edit("add-net", {"n1"}).code(), Errc::already_exists);
    ASSERT_TRUE(session.checkin().ok());
    EXPECT_EQ(*alice->read_default(key), text);
  }
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open(key, false).ok());
  ASSERT_TRUE(session.edit("add-net", {"n2"}).ok());
  EXPECT_EQ(session.document().payload, "net n1\nnet n2\n");
  ASSERT_TRUE(session.checkin().ok());
  EXPECT_EQ(*alice->read_default(key),
            "cvfile 1\ncellview alu schematic schematic\npayload\nnet n1\nnet n2\n");
}

// Payload formats store each argument as one field, so an argument the
// format cannot hold is refused before it reaches the document.
TEST_F(ToolSessionTest, ArgumentsMustBeSingleTokens) {
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
  for (const char* bad : {"a b", "", "n\t1", "x\n"}) {
    EXPECT_EQ(session.edit("add-net", {bad}).code(), Errc::invalid_argument) << bad;
  }
  ASSERT_TRUE(session.edit("add-net", {"ok"}).ok());
  EXPECT_EQ(session.document().payload, "net ok\n");
  ASSERT_TRUE(session.discard().ok());
}

TEST_F(ToolSessionTest, MenuLockingBlocksInvocation) {
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
  ASSERT_TRUE(session.set_menu_enabled("Hierarchy", "Add Instance", false).ok());
  auto st = session.invoke_menu("Hierarchy", "Add Instance", {"u0", "rom", "schematic"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::permission_denied);
  EXPECT_NE(st.error().message.find("locked"), std::string::npos);
  EXPECT_EQ(session.menu_item_count(false) - session.menu_item_count(true), 1u);
  // unknown menu points
  EXPECT_EQ(session.invoke_menu("Nope", "X", {}).code(), Errc::not_found);
  EXPECT_EQ(session.invoke_menu("Hierarchy", "Nope", {}).code(), Errc::not_found);
  EXPECT_EQ(session.set_menu_enabled("Hierarchy", "Nope", true).code(), Errc::not_found);
}

TEST_F(ToolSessionTest, MenuTriggerCanVeto) {
  ToolSession session(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
  ASSERT_TRUE(interp
                  .eval_text("(define (guard menu cmd) (if (= cmd \"add-net\") #f #t))")
                  .ok());
  // arity: menu trigger receives (menu command args...) -- use a builtin
  interp.define_builtin("g2", [](extlang::Interpreter&,
                                 extlang::ValueList& args) -> support::Result<extlang::Value> {
    return extlang::Value(!(args.size() >= 2 && args[1].is_string() &&
                            args[1].as_string() == "add-net"));
  });
  interp.add_trigger("menu", *interp.global("g2"));
  EXPECT_EQ(session.invoke_menu("Edit", "add-net", {"n1"}).code(), Errc::permission_denied);
  EXPECT_TRUE(session.invoke_menu("Edit", "add-prim", {"g0", "BUF"}).ok());
}

TEST_F(ToolSessionTest, CrossProbeHighlightsOtherSessions) {
  // prepare content so both sessions can open (one writer, one reader)
  {
    ToolSession writer(alice.get(), &tool, &bus, &interp);
    ASSERT_TRUE(writer.open({"alu", "schematic"}, false).ok());
    ASSERT_TRUE(writer.edit("add-net", {"n1"}).ok());
    ASSERT_TRUE(writer.checkin().ok());
  }
  DesignerSession bob_session(library, "bob");
  ToolSession editor(alice.get(), &tool, &bus, &interp);
  ASSERT_TRUE(editor.open({"alu", "schematic"}, false).ok());
  ToolSession viewer(&bob_session, &tool, &bus, &interp);
  ASSERT_TRUE(viewer.open({"alu", "schematic"}, true).ok());

  EXPECT_EQ(editor.probe("n1"), 2u);  // both sessions subscribe to the cell topic
  ASSERT_EQ(viewer.highlights().size(), 1u);
  EXPECT_EQ(viewer.highlights()[0], "n1");
  EXPECT_TRUE(editor.highlights().empty());  // own probes are not echoed
}

TEST_F(ToolSessionTest, ViewtypeSwitchedToolEditsOtherViews) {
  // s2.2: "viewtypes ... easily switched with the same tool" -- the
  // schematic engine doubles as a symbol editor under viewtype "symbol"
  ToolRegistry registry;
  ASSERT_TRUE(registry.add(std::make_shared<tools::SchematicTool>()).ok());
  ASSERT_TRUE(
      registry.add(std::make_shared<tools::SchematicTool>("symbol", "symbol_editor")).ok());
  ASSERT_TRUE(alice->define_view("symbol", "symbol").ok());
  ASSERT_TRUE(alice->create_cellview({"alu", "symbol"}).ok());
  ToolInterface* symbol_tool = registry.by_viewtype("symbol");
  ASSERT_NE(symbol_tool, nullptr);
  EXPECT_EQ(symbol_tool->name(), "symbol_editor");
  ToolSession session(alice.get(), symbol_tool, &bus, &interp);
  ASSERT_TRUE(session.open({"alu", "symbol"}, false).ok());
  ASSERT_TRUE(session.edit("add-net", {"pinstub"}).ok());
  auto version = session.checkin();
  ASSERT_TRUE(version.ok());
  auto text = alice->read_default({"alu", "symbol"});
  ASSERT_TRUE(text.ok());
  auto file = DesignFile::parse(*text);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->viewtype, "symbol");
}

TEST_F(ToolSessionTest, DestructorReleasesCheckout) {
  {
    ToolSession session(alice.get(), &tool, &bus, &interp);
    ASSERT_TRUE(session.open({"alu", "schematic"}, false).ok());
    EXPECT_TRUE(library->meta().find_cellview({"alu", "schematic"})->checkout.has_value());
  }
  EXPECT_FALSE(library->meta().find_cellview({"alu", "schematic"})->checkout.has_value());
}

// A working copy that fails to load leaves no checkout behind: the
// failed open has no session that could release it later.
TEST_F(ToolSessionTest, FailedOpenReleasesItsCheckout) {
  const CellViewKey key{"alu", "schematic"};
  ASSERT_TRUE(alice->checkout(key).ok());
  ASSERT_TRUE(alice->write_working(key, "not a design file").ok());
  ASSERT_TRUE(alice->checkin(key).ok());
  {
    ToolSession session(alice.get(), &tool, &bus, &interp);
    EXPECT_EQ(session.open(key, false).code(), Errc::parse_error);
  }
  EXPECT_FALSE(library->meta().find_cellview(key)->checkout.has_value());
}

TEST_F(ToolSessionTest, ViewtypeMismatchRefused) {
  ASSERT_TRUE(alice->define_view("layout", "layout").ok());
  ASSERT_TRUE(alice->create_cellview({"alu", "layout"}).ok());
  ToolSession session(alice.get(), &tool, &bus, &interp);
  auto st = session.open({"alu", "layout"}, false);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::invalid_argument);
}

}  // namespace
}  // namespace jfm::fmcad
