#include "src/data/csv_loader.h"

#include <gtest/gtest.h>

#include <sstream>

namespace unimatch::data {
namespace {

TEST(IdMapTest, AssignsDenseIdsInOrder) {
  IdMap map;
  EXPECT_EQ(map.GetOrAdd("alice"), 0);
  EXPECT_EQ(map.GetOrAdd("bob"), 1);
  EXPECT_EQ(map.GetOrAdd("alice"), 0);
  EXPECT_EQ(map.size(), 2);
  EXPECT_EQ(map.Name(1), "bob");
  EXPECT_TRUE(map.Contains("alice"));
  EXPECT_FALSE(map.Contains("carol"));
}

TEST(IdMapTest, GetUnknownIsNotFound) {
  IdMap map;
  map.GetOrAdd("x");
  EXPECT_EQ(*map.Get("x"), 0);
  EXPECT_TRUE(map.Get("y").status().IsNotFound());
}

TEST(CsvLoaderTest, BasicDayIndex) {
  std::istringstream in(
      "user,item,day\n"
      "u1,sku_a,3\n"
      "u2,sku_b,10\n"
      "u1,sku_b,5\n");
  auto loaded = ParseCsvLog(in, CsvFormat{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->log.size(), 3);
  EXPECT_EQ(loaded->users.size(), 2);
  EXPECT_EQ(loaded->items.size(), 2);
  // Days re-based to min = 3.
  EXPECT_EQ(loaded->log.max_day(), 7);
  EXPECT_EQ(loaded->skipped_rows, 0);
}

TEST(CsvLoaderTest, RecordsSortedAndMapped) {
  std::istringstream in(
      "u2,b,9\n"
      "u1,a,1\n"
      "u1,b,4\n");
  CsvFormat fmt;
  fmt.has_header = false;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  const auto& r = loaded->log.records();
  // Dense ids assigned in first-seen order (u2 -> 0, u1 -> 1), so the
  // (user, day) sort places u2's event first; days re-based to min = 1.
  EXPECT_EQ(loaded->users.Name(r[0].user), "u2");
  EXPECT_EQ(loaded->items.Name(r[0].item), "b");
  EXPECT_EQ(r[0].day, 8);
  EXPECT_EQ(loaded->users.Name(r[1].user), "u1");
  EXPECT_EQ(r[1].day, 0);
  EXPECT_EQ(r[2].day, 3);
}

TEST(CsvLoaderTest, UnixSecondsConvertedToDays) {
  std::istringstream in(
      "u,i,t\n"
      "u1,a,86400\n"    // day 1
      "u1,b,259200\n");  // day 3
  CsvFormat fmt;
  fmt.time_unit = CsvFormat::TimeUnit::kUnixSeconds;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->log.max_day(), 2);  // re-based
}

TEST(CsvLoaderTest, IsoDatesParsed) {
  std::istringstream in(
      "u,i,date\n"
      "u1,a,2023-01-01\n"
      "u1,b,2023-02-01\n"
      "u2,a,2023-01-15\n");
  CsvFormat fmt;
  fmt.time_unit = CsvFormat::TimeUnit::kIsoDate;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->log.max_day(), 31);
  EXPECT_EQ(loaded->log.NumMonths(), 2);
}

TEST(CsvLoaderTest, CustomColumnsAndDelimiter) {
  std::istringstream in("5|sku|ignored|u9\n");
  CsvFormat fmt;
  fmt.delimiter = '|';
  fmt.has_header = false;
  fmt.time_column = 0;
  fmt.item_column = 1;
  fmt.user_column = 3;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->users.Name(0), "u9");
  EXPECT_EQ(loaded->items.Name(0), "sku");
}

TEST(CsvLoaderTest, BadRowFailsByDefault) {
  std::istringstream in(
      "u,i,t\n"
      "u1,a,notanumber\n");
  auto st = ParseCsvLog(in, CsvFormat{});
  EXPECT_TRUE(st.status().IsInvalidArgument());
}

TEST(CsvLoaderTest, SkipBadRowsCountsThem) {
  std::istringstream in(
      "u,i,t\n"
      "u1,a,1\n"
      "u1,a\n"           // too few columns
      "u2,,2\n"          // empty item
      "u3,c,xyz\n"       // bad time
      "u4,d,9\n");
  CsvFormat fmt;
  fmt.skip_bad_rows = true;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->log.size(), 2);
  EXPECT_EQ(loaded->skipped_rows, 3);
}

TEST(CsvLoaderTest, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "# export from shop\n"
      "\n"
      "u1,a,1\n");
  CsvFormat fmt;
  fmt.has_header = false;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->log.size(), 1);
}

TEST(CsvLoaderTest, DaySpanOverflowingInt64IsOutOfRange) {
  std::istringstream in(
      "u,i,t\n"
      "u1,a,-9223372036854775808\n"
      "u2,b,9223372036854775807\n");
  EXPECT_TRUE(ParseCsvLog(in, CsvFormat{}).status().IsOutOfRange());
}

TEST(CsvLoaderTest, DayBeyondInt64IsInvalidArgument) {
  std::istringstream in(
      "u,i,t\n"
      "u1,a,99999999999999999999\n");
  EXPECT_TRUE(ParseCsvLog(in, CsvFormat{}).status().IsInvalidArgument());
}

TEST(CsvLoaderTest, EmptyInputRejected) {
  std::istringstream in("u,i,t\n");
  EXPECT_TRUE(ParseCsvLog(in, CsvFormat{}).status().IsInvalidArgument());
}

TEST(CsvLoaderTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      LoadCsvLog("/no/such/file.csv", CsvFormat{}).status().IsIOError());
}

TEST(CsvLoaderTest, WhitespaceTrimmed) {
  std::istringstream in("  u1 , a ,  4 \n");
  CsvFormat fmt;
  fmt.has_header = false;
  auto loaded = ParseCsvLog(in, fmt);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->users.Name(0), "u1");
  EXPECT_EQ(loaded->items.Name(0), "a");
}

}  // namespace
}  // namespace unimatch::data
