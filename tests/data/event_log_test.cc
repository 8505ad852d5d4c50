#include "src/data/event_log.h"

#include <gtest/gtest.h>

namespace unimatch::data {
namespace {

InteractionLog SmallLog() {
  InteractionLog log(3, 4);
  log.Add(1, 2, 10);
  log.Add(0, 1, 5);
  log.Add(0, 3, 40);
  log.Add(2, 0, 65);
  log.Add(0, 1, 6);
  return log;
}

TEST(InteractionLogTest, AddAndSize) {
  InteractionLog log = SmallLog();
  EXPECT_EQ(log.size(), 5);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.num_users(), 3);
  EXPECT_EQ(log.num_items(), 4);
}

TEST(InteractionLogTest, SortByUserDay) {
  InteractionLog log = SmallLog();
  log.SortByUserDay();
  const auto& r = log.records();
  for (size_t i = 1; i < r.size(); ++i) {
    EXPECT_TRUE(r[i - 1].user < r[i].user ||
                (r[i - 1].user == r[i].user && r[i - 1].day <= r[i].day));
  }
  EXPECT_EQ(r[0].user, 0);
  EXPECT_EQ(r[0].day, 5);
}

TEST(InteractionLogTest, MaxDayAndMonths) {
  InteractionLog log = SmallLog();
  EXPECT_EQ(log.max_day(), 65);
  EXPECT_EQ(log.NumMonths(), 3);  // days 0..65 => months 0,1,2
  InteractionLog empty(1, 1);
  EXPECT_EQ(empty.max_day(), -1);
  EXPECT_EQ(empty.NumMonths(), 0);
}

TEST(InteractionLogTest, StatsCountDistinct) {
  InteractionLog log = SmallLog();
  const LogStats s = log.ComputeStats();
  EXPECT_EQ(s.num_users, 3);
  EXPECT_EQ(s.num_items, 4);
  EXPECT_EQ(s.num_interactions, 5);
  EXPECT_EQ(s.span_months, 3);
  EXPECT_DOUBLE_EQ(s.avg_actions_per_user, 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.avg_actions_per_item, 5.0 / 4.0);
}

TEST(InteractionLogTest, SliceDaysHalfOpen) {
  InteractionLog log = SmallLog();
  InteractionLog s = log.SliceDays(5, 40);
  EXPECT_EQ(s.size(), 3);  // days 5, 6, 10; excludes 40 and 65
  for (const auto& r : s.records()) {
    EXPECT_GE(r.day, 5);
    EXPECT_LT(r.day, 40);
  }
}

TEST(InteractionLogDeathTest, OutOfRangeIdsCheck) {
  InteractionLog log(2, 2);
  EXPECT_DEATH(log.Add(2, 0, 0), "Check failed");
  EXPECT_DEATH(log.Add(0, 2, 0), "Check failed");
  EXPECT_DEATH(log.Add(0, 0, -1), "Check failed");
}

TEST(MonthOfDayTest, ThirtyDayMonths) {
  EXPECT_EQ(MonthOfDay(0), 0);
  EXPECT_EQ(MonthOfDay(29), 0);
  EXPECT_EQ(MonthOfDay(30), 1);
  EXPECT_EQ(MonthOfDay(89), 2);
}

}  // namespace
}  // namespace unimatch::data
