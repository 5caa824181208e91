#include "util/strings.h"

#include <gtest/gtest.h>

namespace staq::util {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFieldsPreserved) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("nochange"), "nochange");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");  // interior spaces kept
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("weekday-am-peak", "weekday"));
  EXPECT_FALSE(StartsWith("am", "am-peak"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(FormatTest, PrintfSemantics) {
  EXPECT_EQ(Format("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(Format("%.2f", 1.005), "1.00");
  EXPECT_EQ(Format("plain"), "plain");
}

TEST(FormatTest, LongOutput) {
  std::string long_arg(500, 'x');
  std::string out = Format("%s!", long_arg.c_str());
  EXPECT_EQ(out.size(), 501u);
  EXPECT_EQ(out.back(), '!');
}

TEST(ParseDoubleTest, AcceptsPaddedNumbersAndNamesTheContext) {
  auto value = ParseDouble(" 2.5e1\t", "stop_lat");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value.value(), 25.0);
  for (const char* bad : {"", "  ", "1.5x", "x1", "1 2"}) {
    auto parsed = ParseDouble(bad, "stop_lat");
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().message(),
              std::string("bad number '") + bad + "' in stop_lat");
  }
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("school"), "school");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("l1\nl2\r\t"), "l1\\nl2\\r\\t");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \x7f"), "caf\xc3\xa9 \x7f");
}

}  // namespace
}  // namespace staq::util
