#include "src/data/event_log.h"

#include <algorithm>
#include <unordered_set>

#include "src/util/logging.h"

namespace unimatch::data {

void InteractionLog::Add(UserId user, ItemId item, Day day) {
  UM_CHECK_GE(user, 0);
  UM_CHECK_LT(user, num_users_);
  UM_CHECK_GE(item, 0);
  UM_CHECK_LT(item, num_items_);
  UM_CHECK_GE(day, 0);
  records_.push_back({user, item, day});
}

void InteractionLog::SortByUserDay() {
  std::sort(records_.begin(), records_.end(),
            [](const Interaction& a, const Interaction& b) {
              if (a.user != b.user) return a.user < b.user;
              if (a.day != b.day) return a.day < b.day;
              return a.item < b.item;
            });
}

Day InteractionLog::max_day() const {
  Day mx = -1;
  for (const auto& r : records_) mx = std::max(mx, r.day);
  return mx;
}

LogStats InteractionLog::ComputeStats() const {
  LogStats s;
  std::unordered_set<UserId> users;
  std::unordered_set<ItemId> items;
  for (const auto& r : records_) {
    users.insert(r.user);
    items.insert(r.item);
  }
  s.num_users = static_cast<int64_t>(users.size());
  s.num_items = static_cast<int64_t>(items.size());
  s.num_interactions = size();
  s.span_months = NumMonths();
  if (s.num_users > 0) {
    s.avg_actions_per_user =
        static_cast<double>(s.num_interactions) / s.num_users;
  }
  if (s.num_items > 0) {
    s.avg_actions_per_item =
        static_cast<double>(s.num_interactions) / s.num_items;
  }
  return s;
}

InteractionLog InteractionLog::SliceDays(Day from, Day to) const {
  InteractionLog out(num_users_, num_items_);
  for (const auto& r : records_) {
    if (r.day >= from && r.day < to) out.records_.push_back(r);
  }
  return out;
}

}  // namespace unimatch::data
