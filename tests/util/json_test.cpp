#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ls::util {
namespace {

// A file under TempDir() named after the running test: ctest -j runs every
// case as its own process, so a shared name would let cases clobber it.
std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->name() + ".json";
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, EscapesQuotesBackslashAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("x");
  w.key("b").value(true);
  w.key("i").value(-3);
  w.key("u").value(7u);
  w.key("n").null();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(w.str(), "{\"s\":\"x\",\"b\":true,\"i\":-3,\"u\":7,\"n\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object();
  w.key("rows").begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("id").value(i);
    w.key("vals").begin_array();
    w.value(1.5);
    w.value(2.5);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"rows\":[{\"id\":0,\"vals\":[1.5,2.5]},"
            "{\"id\":1,\"vals\":[1.5,2.5]}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(0.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,0.5]");
}

TEST(JsonWriter, EscapesKeysAndStringValues) {
  JsonWriter w;
  w.begin_object();
  w.key("a\"b").value("line\nbreak");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"b\":\"line\\nbreak\"}");
}

TEST(JsonWriter, RawInsertsVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("args").raw("{\"flits\":12}");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"args\":{\"flits\":12}}");
}

TEST(JsonWriter, ThrowsOnValueWithoutKeyInObject) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);
}

TEST(JsonWriter, ThrowsOnKeyInArray) {
  JsonWriter w;
  w.begin_array();
  EXPECT_THROW(w.key("k"), std::logic_error);
}

TEST(JsonWriter, ThrowsOnMismatchedEnd) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.end_array(), std::logic_error);
  JsonWriter w2;
  EXPECT_THROW(w2.end_object(), std::logic_error);
}

TEST(JsonWriter, WriteFileRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("ok").value(true);
  w.end_object();
  const std::string path = temp_path("json_writer");
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), w.str() + "\n");  // write_file appends a newline
}

}  // namespace
}  // namespace ls::util
