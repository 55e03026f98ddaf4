#include "query/engine.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "base/strutil.h"
#include "geom/predicates.h"
#include "query/parser.h"

namespace agis::query {

QueryEngine::QueryEngine(geodb::Database* db, QueryEngineOptions options)
    : db_(db),
      options_(options),
      cache_(options.cache_bytes, options.validate_stamps),
      sketch_(db, options.sketch_sample_rows, options.sketch_rebuild_delta),
      feedback_(options.feedback_options) {}

QueryEngine::~QueryEngine() { DetachChangefeed(); }

void QueryEngine::AttachChangefeed(storage::Changefeed* feed) {
  std::lock_guard<std::mutex> lock(feed_mutex_);
  if (feed_ != nullptr) feed_->Unsubscribe(subscriber_);
  feed_ = feed;
  subscriber_ = feed_ != nullptr ? feed_->Subscribe() : 0;
}

void QueryEngine::DetachChangefeed() {
  std::lock_guard<std::mutex> lock(feed_mutex_);
  if (feed_ != nullptr) feed_->Unsubscribe(subscriber_);
  feed_ = nullptr;
  subscriber_ = 0;
}

void QueryEngine::PumpInvalidations() {
  std::lock_guard<std::mutex> lock(feed_mutex_);
  if (feed_ == nullptr) return;
  const storage::ChangefeedPoll poll = feed_->Poll(subscriber_);
  if (poll.resync) {
    // Deltas were dropped before we consumed them: anything could
    // have changed underneath the cache.
    cache_.Clear();
    (void)feed_->Ack(subscriber_, poll.next_seq);
    return;
  }
  for (const storage::ChangeRecord& record : poll.records) {
    if (record.kind == storage::ChangeKind::kSchema) {
      cache_.Clear();
    } else {
      cache_.InvalidateClass(record.class_name);
    }
  }
  if (poll.next_seq != 0) (void)feed_->Ack(subscriber_, poll.next_seq);
}

QueryCache::Stamps QueryEngine::CollectStamps(const Query& normalized) const {
  QueryCache::Stamps stamps;
  stamps.emplace_back(normalized.class_name,
                      db_->ClassWriteStamp(normalized.class_name));
  if (normalized.include_subclasses) {
    std::vector<std::string> pending =
        db_->schema().SubclassesOf(normalized.class_name);
    for (size_t i = 0; i < pending.size(); ++i) {
      stamps.emplace_back(pending[i], db_->ClassWriteStamp(pending[i]));
      auto subs = db_->schema().SubclassesOf(pending[i]);
      pending.insert(pending.end(), subs.begin(), subs.end());
    }
  }
  return stamps;
}

agis::Result<QueryResult> QueryEngine::Execute(const Query& query) {
  PumpInvalidations();
  const Query normalized = Normalized(query);
  AGIS_RETURN_IF_ERROR(CheckQuery(normalized, db_->schema()));
  const std::string key = normalized.ToString();
  // Stamps are read *before* evaluation: a write racing the query can
  // only make the stored entry revalidate as stale later (extra
  // miss), never serve results older than this execution's.
  QueryCache::Stamps stamps = CollectStamps(normalized);
  if (auto entry = cache_.Get(key, stamps)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    ++stats_.cache_hits;
    QueryResult result;
    result.class_name = std::move(entry->class_name);
    result.ids = std::move(entry->ids);
    result.total_matched = entry->total_matched;
    result.from_cache = true;
    return result;
  }

  const Plan plan =
      PlanQuery(*db_, &sketch_, options_.feedback ? &feedback_ : nullptr,
                normalized, options_.planner);
  AGIS_ASSIGN_OR_RETURN(QueryResult result,
                        ExecuteUncached(normalized, plan, stamps));

  QueryCache::Entry entry;
  entry.class_name = result.class_name;
  entry.ids = result.ids;
  entry.total_matched = result.total_matched;
  cache_.Put(key, std::move(stamps), std::move(entry));

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.queries;
  if (plan.fallback) ++stats_.plans_fallback;
  stats_.disjuncts_executed += plan.conjuncts.size();
  return result;
}

agis::Result<QueryResult> QueryEngine::ExecuteUncached(
    const Query& normalized, const Plan& plan,
    const QueryCache::Stamps& stamps) {
  const geodb::Snapshot snapshot = db_->OpenSnapshot();

  // Geometry attribute per concrete class, resolved lazily (subclass
  // instances may inherit or lack the base's geometry attribute).
  std::map<std::string, std::string> geometry_attrs;
  const auto geometry_attr_of =
      [&](const std::string& class_name) -> const std::string& {
    auto it = geometry_attrs.find(class_name);
    if (it == geometry_attrs.end()) {
      it = geometry_attrs
               .emplace(class_name, db_->GeometryAttributeOf(class_name))
               .first;
    }
    return it->second;
  };

  uint64_t residual_rows = 0;
  uint64_t replans = 0;
  uint64_t ordered_scans = 0;
  uint64_t ordered_declines = 0;
  /// True once an ordered-emit conjunct returned in final order: both
  /// engine-side sorts are skipped (the whole point of the pushdown).
  bool ordered_emitted = false;
  /// Mutable copy: a mid-execution replan replaces the not-yet-run
  /// suffix with freshly planned conjuncts.
  std::vector<PlannedConjunct> conjuncts = plan.conjuncts;
  std::vector<geodb::ObjectId> ids;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const PlannedConjunct& conjunct = conjuncts[ci];
    // A conjunct whose Get_Class carries no limit and no ordered-emit
    // hint returns its exact full id set — reusable across queries
    // (partial cache) and an exact cardinality observation (feedback).
    const bool exact_count = conjunct.options.limit == 0 &&
                             !conjunct.options.ordered_emit.has_value();
    geodb::ClassResult part;
    bool from_partial = false;
    std::string partial_key;
    if (options_.partial_cache && exact_count) {
      // Key on the conjunct's *shape*, not its plan: index_predicates
      // change the access path, never the result, so differently
      // planned overlapping queries share one entry.
      geodb::GetClassOptions shape = conjunct.options;
      shape.index_predicates.reset();
      partial_key = agis::StrCat("partial/", normalized.class_name, "/",
                                 shape.CacheKeySuffix());
      if (auto entry = cache_.GetPartial(partial_key, stamps)) {
        part.class_name = normalized.class_name;
        part.ids = std::move(entry->ids);
        from_partial = true;
      }
    }
    if (!from_partial) {
      AGIS_ASSIGN_OR_RETURN(
          part, db_->GetClass(normalized.class_name, conjunct.options));
      if (conjunct.options.ordered_emit.has_value()) {
        ++(part.ordered ? ordered_scans : ordered_declines);
      }
      if (options_.partial_cache && exact_count) {
        QueryCache::Entry entry;
        entry.class_name = part.class_name;
        entry.ids = part.ids;
        entry.total_matched = part.ids.size();
        cache_.PutPartial(partial_key, stamps, std::move(entry));
      }
    }
    if (options_.feedback && exact_count && !conjunct.feedback_key.empty()) {
      // Record the observed cardinality against the pre-execution
      // stamp (stamps.front() is the queried class itself), so a
      // write racing this query ages the entry rather than tagging
      // it fresher than what we actually measured.
      const double extent =
          static_cast<double>(std::max<size_t>(conjunct.extent_size, 1));
      feedback_.Record(conjunct.feedback_key,
                       static_cast<double>(part.ids.size()) / extent,
                       stamps.front().second);
      // Adaptive replan: when the observation blows past the estimate
      // and disjuncts remain, re-plan and swap in the fresh suffix
      // (the DNF order is deterministic, so positions correspond).
      // One replan per execution — the second plan already saw the
      // recorded actuals.
      if (replans == 0 && ci + 1 < conjuncts.size() &&
          static_cast<double>(part.ids.size()) >
              options_.replan_factor * std::max(1.0, conjunct.est_rows)) {
        const Plan fresh = PlanQuery(*db_, &sketch_, &feedback_, normalized,
                                     options_.planner);
        if (!fresh.fallback && fresh.conjuncts.size() == conjuncts.size()) {
          for (size_t j = ci + 1; j < conjuncts.size(); ++j) {
            conjuncts[j] = fresh.conjuncts[j];
          }
          ++replans;
        }
      }
    }
    if (conjunct.residual.empty()) {
      if (part.ordered) {
        ids = std::move(part.ids);
        ordered_emitted = true;
        continue;
      }
      ids.insert(ids.end(), part.ids.begin(), part.ids.end());
      continue;
    }
    for (const geodb::ObjectId id : part.ids) {
      const geodb::ObjectInstance* obj = db_->FindObjectAt(snapshot, id);
      if (obj == nullptr) continue;  // Raced a concurrent write.
      ++residual_rows;
      bool keep = true;
      for (const BoolPtr& leaf : conjunct.residual) {
        if (!leaf->Evaluate(*obj, geometry_attr_of(obj->class_name()))) {
          keep = false;
          break;
        }
      }
      if (keep) ids.push_back(id);
    }
  }
  // Without an explicit ORDER BY, results are ascending ids: backends
  // disagree on scan order (a router merge-sorts shards, a single
  // database concatenates per-class blocks), and cached results must
  // be byte-identical regardless of which produced them. An honored
  // ordered emit is already in final order.
  if (!ordered_emitted &&
      (conjuncts.size() > 1 || plan.order_by.empty())) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }

  QueryResult result;
  result.class_name = normalized.class_name;
  // An honored ordered emit stopped scanning at offset+limit, so
  // ids.size() undercounts the matches. With no filters at all the
  // match count is the whole extent — known exactly because the honor
  // contract requires the index to cover it. Filtered pushdowns
  // report the truncated count, as documented on QueryResult.
  const bool unfiltered_pushdown =
      ordered_emitted && conjuncts.size() == 1 &&
      conjuncts[0].options.predicates.empty() &&
      !conjuncts[0].options.window.has_value() &&
      !conjuncts[0].options.spatial.has_value();
  result.total_matched = unfiltered_pushdown
                             ? db_->ExtentSize(normalized.class_name)
                             : ids.size();
  result.replans = replans;

  if (!ordered_emitted && !plan.order_by.empty()) {
    struct Row {
      geodb::ObjectId id;
      const geodb::ObjectInstance* obj;
    };
    std::vector<Row> rows;
    rows.reserve(ids.size());
    for (const geodb::ObjectId id : ids) {
      rows.push_back(Row{id, db_->FindObjectAt(snapshot, id)});
    }
    // Three-way compare per key, direction applied: nulls and missing
    // objects sort last in both directions; values of different kinds
    // that CompareValues cannot order rank by kind; same-kind values it
    // cannot order (tuples, geometries) tie. The final tiebreak is the
    // ascending id.
    const auto key_compare = [&](const OrderKey& k, const Row& a,
                                 const Row& b) -> int {
      const auto directed = [&](int c) { return k.descending ? -c : c; };
      if (k.kind == OrderKey::Kind::kDistance) {
        const auto distance_of = [&](const Row& r) {
          if (r.obj == nullptr) return std::numeric_limits<double>::infinity();
          const std::string& attr = geometry_attr_of(r.obj->class_name());
          if (attr.empty()) return std::numeric_limits<double>::infinity();
          const geodb::Value& gv = r.obj->Get(attr);
          if (gv.kind() != geodb::ValueKind::kGeometry) {
            return std::numeric_limits<double>::infinity();
          }
          return geom::Distance(gv.geometry_value(), k.target);
        };
        const double da = distance_of(a);
        const double db_dist = distance_of(b);
        if (da < db_dist) return directed(-1);
        if (da > db_dist) return directed(1);
        return 0;
      }
      const geodb::Value va =
          a.obj != nullptr ? a.obj->Get(k.attribute) : geodb::Value();
      const geodb::Value vb =
          b.obj != nullptr ? b.obj->Get(k.attribute) : geodb::Value();
      if (va.is_null() || vb.is_null()) {
        if (va.is_null() && vb.is_null()) return 0;
        return va.is_null() ? 1 : -1;  // Nulls last regardless of direction.
      }
      const auto cmp = geodb::CompareValues(va, vb);
      if (cmp.ok()) return directed(cmp.value());
      // Incomparable: rank by kind so the order is total.
      const int ka = static_cast<int>(va.kind());
      const int kb = static_cast<int>(vb.kind());
      if (ka == kb) return 0;
      return directed(ka < kb ? -1 : 1);
    };
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      for (const OrderKey& k : plan.order_by) {
        const int c = key_compare(k, a, b);
        if (c != 0) return c < 0;
      }
      return a.id < b.id;
    });
    ids.clear();
    for (const Row& row : rows) ids.push_back(row.id);
  }

  if (plan.offset > 0) {
    if (plan.offset >= ids.size()) {
      ids.clear();
    } else {
      ids.erase(ids.begin(),
                ids.begin() + static_cast<ptrdiff_t>(plan.offset));
    }
  }
  if (plan.limit > 0 && ids.size() > plan.limit) ids.resize(plan.limit);
  result.ids = std::move(ids);

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.residual_rows += residual_rows;
    stats_.replans += replans;
    stats_.ordered_scans += ordered_scans;
    stats_.ordered_declines += ordered_declines;
  }
  return result;
}

agis::Result<QueryResult> QueryEngine::ExecuteText(std::string_view text) {
  AGIS_ASSIGN_OR_RETURN(Query query, Parse(text, db_->schema()));
  return Execute(query);
}

agis::Result<std::string> QueryEngine::Explain(const Query& query) {
  const Query normalized = Normalized(query);
  AGIS_RETURN_IF_ERROR(CheckQuery(normalized, db_->schema()));
  // Feedback-aware, like Execute: after a run, Explain shows the
  // estimates blended with the observed actual rows.
  const Plan plan =
      PlanQuery(*db_, &sketch_, options_.feedback ? &feedback_ : nullptr,
                normalized, options_.planner);
  return agis::StrCat("query: ", normalized.ToString(), "\n", plan.Explain());
}

agis::Result<std::string> QueryEngine::ExplainText(std::string_view text) {
  AGIS_ASSIGN_OR_RETURN(Query query, Parse(text, db_->schema()));
  return Explain(query);
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  out.cache = cache_.stats();
  out.sketch = sketch_.stats();
  out.feedback = feedback_.stats();
  return out;
}

}  // namespace agis::query
