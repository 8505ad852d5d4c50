#include "src/serving/campaign.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

#include "src/obs/obs.h"
#include "src/util/file_util.h"
#include "src/util/threadpool.h"

namespace unimatch::serving {

namespace {

using Answers = std::vector<Result<std::vector<core::Scored>>>;
using MultiQueryFn = void (EngineSnapshot::*)(const int64_t*, int64_t, int,
                                              Answers*) const;

// Ids per pool task. Each task answers its chunk with one batched snapshot
// call; one call for a whole campaign would leave the other threads idle.
constexpr int64_t kChunkIds = 256;

// Answers `ids` with `query` (MultiTargetUsers or MultiRecommendItems) in
// chunks on the global pool, and returns one answer per id in input order.
Answers AnswerInChunks(const EngineSnapshot& snapshot, MultiQueryFn query,
                       const std::vector<int64_t>& ids, int n) {
  const int64_t num_ids = static_cast<int64_t>(ids.size());
  const int64_t num_chunks = (num_ids + kChunkIds - 1) / kChunkIds;
  std::vector<Answers> chunks(static_cast<size_t>(num_chunks));
  ThreadPool::Global()->ParallelFor(
      0, num_chunks,
      [&](int64_t c) {
        const int64_t lo = c * kChunkIds;
        (snapshot.*query)(ids.data() + lo, std::min(kChunkIds, num_ids - lo),
                          n, &chunks[static_cast<size_t>(c)]);
      },
      /*min_shard=*/1);
  Answers out;
  out.reserve(ids.size());
  for (Answers& chunk : chunks) {
    for (auto& answer : chunk) out.push_back(std::move(answer));
  }
  return out;
}

}  // namespace

Result<std::vector<AudienceEntry>> BuildAudience(
    const EngineSnapshot& snapshot, const AudienceRequest& request) {
  if (request.audience_size <= 0) {
    return Status::InvalidArgument("audience_size must be positive");
  }
  UM_SCOPED_TIMER("serving.audience.build.ms");
  UM_COUNTER_INC("serving.audience.requests");
  UM_COUNTER_ADD("serving.audience.item_lookups",
                 static_cast<int64_t>(request.items.size()));
  // Over-fetch when exclusive so dedup can still fill each audience.
  const int fetch =
      request.exclusive ? request.audience_size * 2 : request.audience_size;
  const Answers fetched = AnswerInChunks(
      snapshot, &EngineSnapshot::MultiTargetUsers, request.items, fetch);
  std::vector<AudienceEntry> all;
  for (size_t k = 0; k < fetched.size(); ++k) {
    if (!fetched[k].ok()) return fetched[k].status();
    for (const auto& s : *fetched[k]) {
      all.push_back({request.items[k], s.id, s.score});
    }
  }
  if (!request.exclusive) {
    // Trim each item to size (they were fetched exactly sized).
    UM_COUNTER_ADD("serving.audience.entries",
                   static_cast<int64_t>(all.size()));
    return all;
  }
  // Exclusive assignment: order all candidate pairs by score and greedily
  // assign each user to their best item until audiences fill up.
  std::sort(all.begin(), all.end(),
            [](const AudienceEntry& a, const AudienceEntry& b) {
              return a.score > b.score;
            });
  std::unordered_map<data::UserId, bool> taken;
  std::unordered_map<data::ItemId, int> filled;
  std::vector<AudienceEntry> out;
  for (const auto& e : all) {
    if (taken[e.user]) continue;
    if (filled[e.item] >= request.audience_size) continue;
    taken[e.user] = true;
    ++filled[e.item];
    out.push_back(e);
  }
  UM_COUNTER_ADD("serving.audience.entries", static_cast<int64_t>(out.size()));
  return out;
}

namespace {
std::string ItemName(const data::IdMap* map, data::ItemId id) {
  return map ? map->Name(id) : std::to_string(id);
}
std::string UserName(const data::IdMap* map, data::UserId id) {
  return map ? map->Name(id) : std::to_string(id);
}
}  // namespace

Status WriteAudienceCsv(const std::vector<AudienceEntry>& audience,
                        const std::string& path, const data::IdMap* items,
                        const data::IdMap* users) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  std::fprintf(f.get(), "item_id,user_id,score\n");
  for (const auto& e : audience) {
    std::fprintf(f.get(), "%s,%s,%.6f\n", ItemName(items, e.item).c_str(),
                 UserName(users, e.user).c_str(), e.score);
  }
  return CloseWritten(std::move(f), path);
}

Result<std::vector<NewsletterEntry>> BuildNewsletter(
    const EngineSnapshot& snapshot, const NewsletterRequest& request) {
  if (request.items_per_user <= 0) {
    return Status::InvalidArgument("items_per_user must be positive");
  }
  UM_SCOPED_TIMER("serving.newsletter.build.ms");
  UM_COUNTER_INC("serving.newsletter.requests");
  UM_COUNTER_ADD("serving.newsletter.user_lookups",
                 static_cast<int64_t>(request.users.size()));
  Answers fetched =
      AnswerInChunks(snapshot, &EngineSnapshot::MultiRecommendItems,
                     request.users, request.items_per_user);
  // Recipients whose lookup failed (no history / unknown) are skipped.
  std::vector<NewsletterEntry> out;
  for (size_t k = 0; k < fetched.size(); ++k) {
    if (!fetched[k].ok()) {
      UM_COUNTER_INC("serving.newsletter.skipped_users");
      continue;
    }
    out.push_back({request.users[k], std::move(fetched[k]).value()});
  }
  return out;
}

Status WriteNewsletterCsv(const std::vector<NewsletterEntry>& newsletter,
                          const std::string& path, const data::IdMap* items,
                          const data::IdMap* users) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  std::fprintf(f.get(), "user_id,rank,item_id,score\n");
  for (const auto& e : newsletter) {
    for (size_t r = 0; r < e.items.size(); ++r) {
      std::fprintf(f.get(), "%s,%zu,%s,%.6f\n",
                   UserName(users, e.user).c_str(), r + 1,
                   ItemName(items, e.items[r].id).c_str(), e.items[r].score);
    }
  }
  return CloseWritten(std::move(f), path);
}

}  // namespace unimatch::serving
