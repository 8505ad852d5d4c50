// Campaign exporting: turning ranked matches into the artifacts merchants
// actually ship — audience lists for promotions (UT) and per-user item
// shortlists for newsletters (IR), written as CSV with external ids.
// Campaigns sit above EngineSnapshot and answer through its batched
// queries, so a campaign built during a refresh stays on one generation.

#ifndef UNIMATCH_SERVING_CAMPAIGN_H_
#define UNIMATCH_SERVING_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/data/id_map.h"
#include "src/serving/snapshot.h"

namespace unimatch::serving {

struct AudienceRequest {
  /// Items being promoted (dense ids).
  std::vector<data::ItemId> items;
  /// Audience size per item.
  int audience_size = 100;
  /// Deduplicate: a user appears only under their best-scoring item.
  bool exclusive = true;
};

struct AudienceEntry {
  data::ItemId item = 0;
  data::UserId user = 0;
  float score = 0.0f;
};

/// Builds per-item audiences in request order. The first unknown item's
/// error wins.
Result<std::vector<AudienceEntry>> BuildAudience(
    const EngineSnapshot& snapshot, const AudienceRequest& request);

/// Writes an audience as CSV (item_id,user_id,score). Ids are mapped
/// through the optional IdMaps when given, else written as integers.
/// IOError when any write, the flush or the close fails.
Status WriteAudienceCsv(const std::vector<AudienceEntry>& audience,
                        const std::string& path,
                        const data::IdMap* items = nullptr,
                        const data::IdMap* users = nullptr);

struct NewsletterRequest {
  /// Recipients (dense user ids); users without history are skipped.
  std::vector<data::UserId> users;
  int items_per_user = 10;
};

struct NewsletterEntry {
  data::UserId user = 0;
  std::vector<core::Scored> items;
};

/// Builds per-user shortlists in request order.
Result<std::vector<NewsletterEntry>> BuildNewsletter(
    const EngineSnapshot& snapshot, const NewsletterRequest& request);

/// Writes shortlists as CSV (user_id,rank,item_id,score). IOError as for
/// WriteAudienceCsv.
Status WriteNewsletterCsv(const std::vector<NewsletterEntry>& newsletter,
                          const std::string& path,
                          const data::IdMap* items = nullptr,
                          const data::IdMap* users = nullptr);

}  // namespace unimatch::serving

#endif  // UNIMATCH_SERVING_CAMPAIGN_H_
