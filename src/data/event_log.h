// The interaction log: the system-of-record the whole pipeline consumes.

#ifndef UNIMATCH_DATA_EVENT_LOG_H_
#define UNIMATCH_DATA_EVENT_LOG_H_

#include <vector>

#include "src/data/types.h"

namespace unimatch::data {

/// Aggregate statistics in the shape of the paper's Table III.
struct LogStats {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_interactions = 0;
  int32_t span_months = 0;
  double avg_actions_per_user = 0.0;
  double avg_actions_per_item = 0.0;
};

/// An append-only list of (u, i, t) records with dense user/item id spaces.
class InteractionLog {
 public:
  InteractionLog() = default;

  /// `num_users` / `num_items` fix the id spaces; records must stay in
  /// range.
  InteractionLog(int64_t num_users, int64_t num_items)
      : num_users_(num_users), num_items_(num_items) {}

  /// Appends a record; ids must be within the declared ranges.
  void Add(UserId user, ItemId item, Day day);

  /// Sorts records by (user, day, item). Required before windowing.
  void SortByUserDay();

  const std::vector<Interaction>& records() const { return records_; }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  bool empty() const { return records_.empty(); }

  /// Last day present in the log (-1 when empty).
  Day max_day() const;

  /// Number of (whole or partial) months covered.
  int32_t NumMonths() const { return empty() ? 0 : MonthOfDay(max_day()) + 1; }

  /// Table III statistics (counts only users/items that actually occur).
  LogStats ComputeStats() const;

  /// Returns a copy containing only records with day in [from, to).
  InteractionLog SliceDays(Day from, Day to) const;

 private:
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  std::vector<Interaction> records_;
};

}  // namespace unimatch::data

#endif  // UNIMATCH_DATA_EVENT_LOG_H_
