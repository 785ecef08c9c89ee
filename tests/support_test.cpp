#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <iostream>

#include "jfm/support/clock.hpp"
#include "jfm/support/ids.hpp"
#include "jfm/support/result.hpp"
#include "jfm/support/rng.hpp"
#include "jfm/support/log.hpp"
#include "jfm/support/strings.hpp"

namespace jfm::support {
namespace {

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), Errc::ok);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  auto r = Result<int>::failure(Errc::locked, "busy");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::locked);
  EXPECT_EQ(r.error().message, "busy");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, WrongAccessThrows) {
  Result<int> ok(1);
  auto bad = Result<int>::failure(Errc::not_found, "x");
  EXPECT_THROW((void)ok.error(), std::logic_error);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(Result, VoidSpecialization) {
  Status good;
  EXPECT_TRUE(good.ok());
  Status bad = fail(Errc::io_error, "disk");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::io_error);
}

TEST(Result, ErrorOrOnSuccessAndFailure) {
  Result<int> good(7);
  EXPECT_EQ(good.error_or().code, Errc::ok);  // benign default fallback
  EXPECT_EQ(good.error_or(Error(Errc::internal, "fb")).code, Errc::internal);
  Result<int> bad = Result<int>::failure(Errc::locked, "busy");
  EXPECT_EQ(bad.error_or().code, Errc::locked);
  EXPECT_EQ(bad.error_or(Error(Errc::internal, "fb")).message, "busy");
  EXPECT_EQ(*good, 7);  // accessor leaves the value untouched
}

TEST(Result, ErrorOrVoidSpecialization) {
  Status good;
  EXPECT_EQ(good.error_or().code, Errc::ok);
  EXPECT_EQ(good.error_or(Error(Errc::timeout, "slow")).code, Errc::timeout);
  Status bad = fail(Errc::io_error, "disk");
  EXPECT_EQ(bad.error_or().code, Errc::io_error);
  EXPECT_EQ(bad.error_or().message, "disk");
}

TEST(Result, MapErrTransformsOnlyFailures) {
  auto annotate = [](const Error& e) {
    return Error(e.code, "retry 3: " + e.message);
  };
  Result<int> good(7);
  auto still_good = good.map_err(annotate);
  ASSERT_TRUE(still_good.ok());
  EXPECT_EQ(*still_good, 7);
  Result<int> bad = Result<int>::failure(Errc::io_error, "disk");
  auto annotated = bad.map_err(annotate);
  ASSERT_FALSE(annotated.ok());
  EXPECT_EQ(annotated.error().code, Errc::io_error);
  EXPECT_EQ(annotated.error().message, "retry 3: disk");
  EXPECT_EQ(bad.error().message, "disk");  // original untouched
}

TEST(Result, MapErrVoidSpecialization) {
  auto upgrade = [](const Error& e) { return Error(Errc::timeout, e.message); };
  Status good;
  EXPECT_TRUE(good.map_err(upgrade).ok());
  Status bad = fail(Errc::io_error, "slow disk");
  auto mapped = bad.map_err(upgrade);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.error().code, Errc::timeout);
  EXPECT_EQ(mapped.error().message, "slow disk");
}

TEST(Result, ErrorToText) {
  Error e(Errc::stale_metadata, "refresh needed");
  EXPECT_EQ(e.to_text(), "stale_metadata: refresh needed");
  EXPECT_EQ(to_string(Errc::flow_violation), "flow_violation");
}

struct TestTag {
  static constexpr const char* prefix() { return "t#"; }
};

TEST(Ids, InvalidByDefaultAndAllocatorMonotonic) {
  Id<TestTag> none;
  EXPECT_FALSE(none.valid());
  IdAllocator<TestTag> alloc;
  auto a = alloc.next();
  auto b = alloc.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.issued(), 2u);
}

TEST(Ids, Hashable) {
  IdAllocator<TestTag> alloc;
  std::set<Id<TestTag>> seen;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(seen.insert(alloc.next()).second);
}

TEST(Clock, AdvancesDeterministically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.tick(), 1u);
  EXPECT_EQ(clock.advance(10), 11u);
  clock.reset(5);
  EXPECT_EQ(clock.now(), 5u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
    auto v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, IdentifierShape) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    std::string id = rng.identifier(8);
    EXPECT_EQ(id.size(), 8u);
    EXPECT_TRUE(is_identifier(id)) << id;
  }
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

// The tokenizer yields the lines and fields split + trim + split_ws
// give, minus the empty line split reports after a final '\n'.
TEST(Strings, LineTokenizerMatchesSplitTrimSplitWs) {
  for (const std::string text :
       {"", "\n", "a b\n", "a b", "  port\tp  in \r\n\n# c\n  \nnet x", "x\n\ny\n",
        "r a 1 2 3 4 5 6 7 8 9 10"}) {
    auto lines = split(text, '\n');
    if (!text.empty() && text.back() == '\n') lines.pop_back();
    if (text.empty()) lines.clear();
    LineTokenizer t(text);
    for (const auto& raw : lines) {
      ASSERT_TRUE(t.next()) << text;
      EXPECT_EQ(t.line(), trim(raw));
      const auto fields = split_ws(raw);
      ASSERT_EQ(t.size(), fields.size()) << raw;
      for (std::size_t i = 0; i < std::min(fields.size(), LineTokenizer::kMaxFields); ++i) {
        EXPECT_EQ(t[i], fields[i]);
      }
    }
    EXPECT_FALSE(t.next()) << text;
  }
  LineTokenizer t("head\npayload\nrest of\n text");
  ASSERT_TRUE(t.next());
  ASSERT_TRUE(t.next());
  EXPECT_EQ(t.line(), "payload");
  EXPECT_EQ(t.rest(), "rest of\n text");
}

TEST(Strings, ParseNumbersLeaveTargetUntouchedOnFailure) {
  std::int64_t n = 7;
  for (const char* bad : {"", "12abc", "x", "1 ", "99999999999999999999"}) {
    EXPECT_FALSE(parse_integer(bad, n)) << bad;
    EXPECT_EQ(n, 7) << bad;
  }
  EXPECT_TRUE(parse_integer("-42", n));
  EXPECT_EQ(n, -42);
  double d = 1.5;
  EXPECT_FALSE(parse_real("2.5x", d));
  EXPECT_EQ(d, 1.5);
}

TEST(Strings, JoinAndTrim) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, Identifier) {
  EXPECT_TRUE(is_identifier("abc_1.2-x"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a b"));
  EXPECT_FALSE(is_identifier("a/b"));
}

TEST(Strings, EscapeRoundTrip) {
  const std::string original = "line1\nline2\tx\\y";
  EXPECT_EQ(unescape(escape(original)), original);
  EXPECT_EQ(escape("\n"), "\\n");
}

TEST(Log, LevelGatesOutput) {
  // capture clog
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  Log::set_level(LogLevel::warn);
  Log::write(LogLevel::error, "jcf", "bad");
  Log::write(LogLevel::warn, "jcf", "meh");
  Log::write(LogLevel::info, "jcf", "fyi");   // below threshold
  Log::write(LogLevel::debug, "jcf", "noise");
  JFM_LOG(error, "fmcad") << "streamed " << 42;
  Log::set_level(LogLevel::off);
  Log::write(LogLevel::error, "jcf", "silent");
  std::clog.rdbuf(old);
  const std::string text = captured.str();
  EXPECT_NE(text.find("[error] jcf: bad"), std::string::npos);
  EXPECT_NE(text.find("[warn] jcf: meh"), std::string::npos);
  EXPECT_EQ(text.find("fyi"), std::string::npos);
  EXPECT_EQ(text.find("noise"), std::string::npos);
  EXPECT_NE(text.find("[error] fmcad: streamed 42"), std::string::npos);
  EXPECT_EQ(text.find("silent"), std::string::npos);
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("fmcadmeta 1", "fmcad"));
  EXPECT_FALSE(starts_with("fm", "fmcad"));
  EXPECT_TRUE(ends_with("file.cv", ".cv"));
  EXPECT_FALSE(ends_with("cv", ".cv"));
}

}  // namespace
}  // namespace jfm::support
