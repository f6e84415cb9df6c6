// Tests of ParseCount (tools/count_flag.h), the parser every count flag of
// bigindex_cli and bigindex_serverd goes through.

#include <gtest/gtest.h>

#include <limits>

#include "count_flag.h"

namespace bigindex {
namespace {

TEST(ParseCountTest, AcceptsPlainDigitsUpToMax) {
  size_t value = 7;
  EXPECT_TRUE(ParseCount("--threads", "0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseCount("--threads", "0042", &value));
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(ParseCount("--port", "65535", &value, kMaxPort));
  EXPECT_EQ(value, 65535u);
  EXPECT_TRUE(ParseCount("--queue", "18446744073709551615", &value));
  EXPECT_EQ(value, std::numeric_limits<size_t>::max());
}

TEST(ParseCountTest, RejectsHostileValuesAndKeepsTheOldValue) {
  for (const char* text : {"", "-2", "-0", "+1", " 1", "1 ", "12abc", "abc",
                           "0x10", "1.5", "18446744073709551616",
                           "99999999999999999999999"}) {
    size_t value = 7;
    EXPECT_FALSE(ParseCount("--threads", text, &value)) << "'" << text << "'";
    EXPECT_EQ(value, 7u) << "'" << text << "'";
  }
  size_t port = 7;
  EXPECT_FALSE(ParseCount("--port", "65536", &port, kMaxPort));
  EXPECT_FALSE(ParseCount("--port", "70000", &port, kMaxPort));
  EXPECT_EQ(port, 7u);
}

}  // namespace
}  // namespace bigindex
