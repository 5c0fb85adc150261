//===- tests/support/JsonTest.cpp - JSON document parser tests ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using greenweb::json::Value;
namespace json = greenweb::json;

namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->isNull());
  EXPECT_TRUE(json::parse("true")->B);
  EXPECT_FALSE(json::parse("false")->B);
  EXPECT_DOUBLE_EQ(json::parse("42")->Num, 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5e2")->Num, -350.0);
  EXPECT_EQ(json::parse("\"hi\"")->Str, "hi");
}

TEST(JsonTest, ParsesStringEscapes) {
  auto V = json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Str, "a\"b\\c\n\tA");
}

TEST(JsonTest, ParsesNestedDocument) {
  const char *Doc = R"({
    "harness": "bench_x",
    "count": 3,
    "ok": true,
    "items": [1, 2.5, "s", null, {"k": "v"}],
    "nested": {"inner": {"deep": -1}}
  })";
  auto V = json::parse(Doc);
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->stringOr("harness", ""), "bench_x");
  EXPECT_DOUBLE_EQ(V->numberOr("count", 0), 3.0);
  EXPECT_EQ(V->stringOr("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(V->numberOr("missing", -7), -7.0);

  const Value *Items = V->get("items");
  ASSERT_NE(Items, nullptr);
  ASSERT_TRUE(Items->isArray());
  ASSERT_EQ(Items->Arr.size(), 5u);
  EXPECT_DOUBLE_EQ(Items->Arr[1].Num, 2.5);
  EXPECT_TRUE(Items->Arr[3].isNull());
  EXPECT_EQ(Items->Arr[4].stringOr("k", ""), "v");

  const Value *Nested = V->get("nested");
  ASSERT_NE(Nested, nullptr);
  const Value *Inner = Nested->get("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_DOUBLE_EQ(Inner->numberOr("deep", 0), -1.0);
}

TEST(JsonTest, PreservesMemberOrder) {
  auto V = json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->Obj.size(), 3u);
  EXPECT_EQ(V->Obj[0].first, "z");
  EXPECT_EQ(V->Obj[1].first, "a");
  EXPECT_EQ(V->Obj[2].first, "m");
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(json::parse("", &Error).has_value());
  EXPECT_FALSE(json::parse("{", &Error).has_value());
  EXPECT_FALSE(json::parse("[1, 2,", &Error).has_value());
  EXPECT_FALSE(json::parse("{\"a\" 1}", &Error).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &Error).has_value());
  EXPECT_FALSE(json::parse("nul", &Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(JsonTest, RejectsTrailingContent) {
  // Exactly one value: a second document on the same input must fail,
  // which is what routes JSONL logs to the line-by-line ingest path.
  EXPECT_FALSE(json::parse("{\"a\":1}\n{\"b\":2}").has_value());
  EXPECT_TRUE(json::parse("  {\"a\":1}  \n").has_value());
}

TEST(JsonTest, BoundsNestingDepth) {
  // The parser recurses per level: hostile nesting must be refused with
  // the bound named, not crash on stack exhaustion.
  std::string Error;
  std::string Deep(200000, '[');
  EXPECT_FALSE(json::parse(Deep, &Error).has_value());
  EXPECT_NE(Error.find("nesting deeper than 256 levels"), std::string::npos)
      << Error;
  std::string DeepObject;
  for (int I = 0; I < 300; ++I)
    DeepObject += "{\"a\":";
  EXPECT_FALSE(json::parse(DeepObject, &Error).has_value());
  EXPECT_NE(Error.find("nesting deeper"), std::string::npos) << Error;

  // Exactly at the bound still parses, and the depth count unwinds on
  // close, so siblings do not accumulate.
  size_t N = json::MaxNestingDepth;
  std::string AtBound = std::string(N, '[') + std::string(N, ']');
  EXPECT_TRUE(json::parse(AtBound).has_value());
  EXPECT_FALSE(json::parse("[" + AtBound + "]").has_value());
  std::string Siblings = "[" + std::string(N - 1, '[') +
                         std::string(N - 1, ']') + "," +
                         std::string(N - 1, '[') + std::string(N - 1, ']') +
                         "]";
  EXPECT_TRUE(json::parse(Siblings).has_value());
}

TEST(JsonTest, AccessorsAreTypeSafe) {
  auto V = json::parse("{\"s\": \"x\", \"n\": 5}");
  ASSERT_TRUE(V.has_value());
  // Wrong-typed members fall back to the default.
  EXPECT_DOUBLE_EQ(V->numberOr("s", 9), 9.0);
  EXPECT_EQ(V->stringOr("n", "d"), "d");
  // get() on a non-object is null.
  auto Arr = json::parse("[1]");
  EXPECT_EQ(Arr->get("k"), nullptr);
}

} // namespace
