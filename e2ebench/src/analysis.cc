// analysis: kAnalysisClients connections send POST /query over
// loopback to a kAnalysisShards-shard system holding ~10^5 poles.
// Clients run in rounds: every client sends kPerRound queries, then
// the benchmark writes one update while all clients wait, so every
// answer has one well-defined database state to be checked against.
#include <barrier>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "base/strutil.h"
#include "model.h"
#include "reference.h"
#include "server/client.h"
#include "workload.h"

namespace e2e {

namespace {

using agis::core::ActiveInterfaceSystem;
namespace geodb = agis::geodb;

/// Every round, client c runs slots [c * kPerRound, (c + 1) * kPerRound)
/// of this schedule, so each round sends exactly these op kinds (the
/// shares are listed in the README); only parameters are drawn.
enum Kind {
  kRepeat,    // Verbatim repeat of a hot query (semantic cache).
  kReshape,   // A pooled filter with other ORDER BY/paging (partial cache).
  kConj,      // Selective conjunction.
  kDisj,      // Disjunction.
  kArith,     // Arithmetic residual.
  kWindow,    // Viewport window.
  kWithin,    // Spatial within.
  kSubclass,  // With subclasses, viewport-bounded.
  kOrdered,   // Filtered ORDER BY ... LIMIT/OFFSET.
  kNearest,   // ORDER BY nearest.
  kTopK,      // Filtered ORDER BY on the null-free key: pushed down.
  kKinds
};
const char* const kKindNames[kKinds] = {
    "repeat", "reshape", "conjunction", "disjunction", "arithmetic",
    "window", "within", "subclasses", "ordered", "nearest", "top-k"};
constexpr Kind kSchedule[] = {
    kRepeat, kConj,    kWindow, kReshape, kArith,   kRepeat, kDisj,   kOrdered,
    kWithin, kNearest, kRepeat, kTopK,    kSubclass, kReshape, kWindow, kRepeat,
    kConj,   kOrdered, kWithin, kDisj,    kRepeat,  kReshape, kArith, kSubclass,
    kConj,   kWindow,  kRepeat, kNearest, kOrdered, kReshape,  kConj,  kOrdered};
constexpr size_t kPerRound = sizeof(kSchedule) / sizeof(kSchedule[0]) / kAnalysisClients;
constexpr size_t kPoolPerKind = 300;  // Distinct queries per kind.
constexpr size_t kHotSet = 24;        // Queries that repeat verbatim.
constexpr size_t kVerifyThreads = 4;  // Reference evaluation after the run.

using SpecPtr = std::shared_ptr<const QuerySpec>;

struct OpRecord {
  uint32_t round = 0;
  SpecPtr spec;
  bool ok = false;
  uint64_t hash = 0;
  size_t count = 0;
  size_t total = 0;
  const char* path = "wire";
  Kind kind = kRepeat;
  bool cache_hit = false;
  double us = 0;
};

struct UpdateRecord {
  uint32_t round = 0;
  Id id = 0;
  std::string attr;
  int64_t ival = 0;
  std::string sval;
};

Atom Cmp(const std::string& attr, CmpOp op, int64_t v) {
  Atom a;
  a.attr = attr;
  a.op = op;
  a.ival = v;
  return a;
}

Atom CmpS(const std::string& attr, CmpOp op, const std::string& v) {
  Atom a;
  a.attr = attr;
  a.op = op;
  a.is_string = true;
  a.sval = v;
  return a;
}

Rect IntRect(Rng& rng, double lo_size, double hi_size) {
  const double w = std::floor(rng.Real(lo_size, hi_size));
  const double x = std::floor(rng.Real(0, kWorldSize - w));
  const double y = std::floor(rng.Real(0, kWorldSize - w));
  return Rect{x, y, x + w, y + w};
}

/// One query of `kind` (not kRepeat/kReshape) with drawn parameters.
QuerySpec MakeQuery(Kind kind, Rng& rng) {
  QuerySpec q;
  const int64_t type = rng.Int(0, 7);
  const int64_t year = rng.Int(1960, 2019);
  switch (kind) {
    case kConj:
      q.where = {{Cmp("pole_type", CmpOp::kEq, type), Cmp("install_year", CmpOp::kEq, year)}};
      break;
    case kDisj:
      q.where = {{Cmp("pole_type", CmpOp::kEq, type), Cmp("install_year", CmpOp::kEq, year)},
                 {CmpS("status", CmpOp::kEq, "retired"),
                  Cmp("install_year", CmpOp::kGe, rng.Int(2012, 2019))}};
      break;
    case kArith: {
      Atom arith = Cmp("install_year", CmpOp::kLt, rng.Int(1975, 2000));
      arith.kind = Atom::Kind::kArith;
      arith.add = 5 * rng.Int(1, 4);
      q.where = {{arith, CmpS("status", CmpOp::kEq, "planned"),
                  Cmp("pole_type", CmpOp::kEq, type)}};
      break;
    }
    case kWindow:
      q.where = {{Cmp("pole_type", CmpOp::kEq, type)}};
      q.window = IntRect(rng, 600, 1200);
      break;
    case kWithin: {
      Atom within;
      within.kind = Atom::Kind::kWithin;
      within.rect = IntRect(rng, 400, 900);
      q.where = {{within, CmpS("status", CmpOp::kNe, "active")}};
      break;
    }
    case kSubclass:
      q.cls = "NetworkElement";
      q.subclasses = true;
      q.where = {{CmpS("status", CmpOp::kNe, "active")}};
      q.window = IntRect(rng, 600, 1200);
      break;
    case kOrdered:
      q.where = {{CmpS("status", CmpOp::kEq, "repair"), Cmp("pole_type", CmpOp::kEq, type)}};
      q.order = QuerySpec::Order::kAttr;
      q.order_attr = "install_year";
      q.limit = 20;
      q.offset = 20 * rng.Uniform(4);
      break;
    case kTopK:
      q.where = {{Cmp("pole_type", CmpOp::kEq, type)}};
      q.order = QuerySpec::Order::kAttr;
      q.order_attr = "status";
      q.desc = rng.Chance(0.5);
      q.limit = 10 * (1 + rng.Uniform(3));
      q.offset = 10 * rng.Uniform(4);
      break;
    default:  // kNearest.
      q.where = {{Cmp("pole_type", CmpOp::kEq, type), Cmp("install_year", CmpOp::kEq, year)}};
      q.order = QuerySpec::Order::kNearest;
      q.nx = std::floor(rng.Real(0, kWorldSize));
      q.ny = std::floor(rng.Real(0, kWorldSize));
      q.limit = 10;
      break;
  }
  return q;
}

/// Same filter, other ORDER BY and paging. Ascending only: see the
/// README for the descending-order fault this mix leaves out.
QuerySpec Reshape(QuerySpec q, Rng& rng) {
  static const char* kKeys[] = {"install_year", "pole_type"};
  q.order = QuerySpec::Order::kAttr;
  q.order_attr = kKeys[rng.Uniform(2)];
  q.desc = false;
  q.limit = 10 * (1 + rng.Uniform(3));
  q.offset = 10 * rng.Uniform(4);
  return q;
}

/// Parses the POST /query body: "class C\ncount N\ntotal T\ncache X\nids a,b\n".
bool ParseAnswer(const std::string& body, OpRecord* rec) {
  const size_t count_at = body.find("\ncount ");
  const size_t total_at = body.find("\ntotal ");
  const size_t ids_at = body.find("\nids ");
  if (count_at == std::string::npos || total_at == std::string::npos ||
      ids_at == std::string::npos) {
    return false;
  }
  rec->count = std::strtoull(body.c_str() + count_at + 7, nullptr, 10);
  rec->total = std::strtoull(body.c_str() + total_at + 7, nullptr, 10);
  std::vector<uint64_t> ids;
  const char* p = body.c_str() + ids_at + 5;
  while (*p >= '0' && *p <= '9') {
    char* end = nullptr;
    ids.push_back(std::strtoull(p, &end, 10));
    p = end;
    if (*p == ',') ++p;
  }
  rec->hash = HashIds(ids);
  return ids.size() == rec->count;
}

class Analysis : public Workload {
 public:
  Analysis(uint64_t seed, RunResult* r) : Workload(seed), result_(r) {}
  size_t shards() const override { return kAnalysisShards; }

  agis::Status Setup() override {
    sys_ = std::make_unique<ActiveInterfaceSystem>(
        "phone_net", BaseOptions(kAnalysisShards, true));
    geodb::Database* db = &sys_->database();
    AGIS_RETURN_IF_ERROR(RegisterSchema(db));
    Rng rng(seed_);
    DataSpec spec;
    spec.poles = 100000;
    spec.cables = 20000;
    spec.ducts = 5000;
    AGIS_RETURN_IF_ERROR(LoadWorld(db, spec, rng, &world_));
    AGIS_RETURN_IF_ERROR(CreatePoleIndexes(db));
    for (const auto& [id, e] : world_.elements) ids_by_class_[e.cls].push_back(id);
    Rng qrng(seed_ ^ 0x9e3779b97f4a7c15ULL);
    for (int k = kConj; k < kKinds; ++k) {
      for (size_t i = 0; i < kPoolPerKind; ++i) {
        pool_[k].push_back(std::make_shared<const QuerySpec>(
            MakeQuery(static_cast<Kind>(k), qrng)));
      }
    }
    // Hot queries: the first few of each cheap filter kind.
    for (size_t i = 0; hot_.size() < kHotSet; ++i) {
      for (Kind k : {kConj, kDisj, kWindow, kWithin}) hot_.push_back(pool_[k][i]);
    }
    hot_pick_ = std::make_unique<SkewedPick>(hot_.size(), 0.8);
    shadow_ = std::make_unique<agis::query::QueryEngine>(
        db, agis::query::QueryEngineOptions{});
    shadow_->AttachChangefeed(sys_->changefeed());
    const int port = sys_->server()->port();
    for (size_t c = 0; c < kAnalysisClients; ++c) {
      auto client = std::make_unique<agis::server::Client>();
      AGIS_RETURN_IF_ERROR(client->Connect(port));
      auto ctx = client->Request(
          "POST", agis::StrCat("/context?user=analyst", c, "&application=analysis"));
      AGIS_RETURN_IF_ERROR(ctx.status());
      if (ctx.value().status != 200) return agis::Status::Internal("context refused");
      clients_.push_back(std::move(client));
    }
    return agis::Status::OK();
  }

  std::vector<std::string> HomeLayers() const override {
    return {"geodb.full_scans_per_op", "geodb.index_queries_per_op",
            "geodb.router_shards_per_get_class", "query.plan_us",
            "query.execute_us", "query.cache_hit_ratio", "query.partial_hit_ratio",
            "query.residual_rows_per_query", "query.ordered_scans_per_query",
            "query.replans_per_query", "server.request_overhead_us",
            "base.tasks_per_op", "base.steals_per_op"};
  }

  PhaseStats Phase(double seconds, bool traced) override {
    PhaseStats ps;
    const auto q0 = sys_->query_engine_stats();
    const auto d0 = sys_->database().stats();
    const auto r0 = sys_->router_stats();
    const auto s0 = sys_->scheduler().stats();
    std::atomic<bool> stop{false};
    std::vector<PhaseStats> per_client(kAnalysisClients);
    std::vector<std::vector<OpRecord>> records(kAnalysisClients);
    Rng update_rng(seed_ * 131 + phase_);
    const Clock::time_point start = ps.start = Clock::now();
    for (PhaseStats& pc : per_client) pc.start = start;
    Clock::time_point end = start;
    auto on_round = [&]() noexcept {
      ApplyUpdate(update_rng);
      ++round_;
      if (SecondsSince(start) >= seconds) {
        end = Clock::now();
        stop.store(true);
      }
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(kAnalysisClients), on_round);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kAnalysisClients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(seed_ * 1009 + c * 7919 + phase_ * 104729);
        while (!stop.load()) {
          for (size_t i = 0; i < kPerRound; ++i) {
            Op(c, kSchedule[c * kPerRound + i], rng, traced, &per_client[c],
               &records[c]);
          }
          sync.arrive_and_wait();
        }
      });
    }
    for (auto& t : threads) t.join();
    ++phase_;
    ps.seconds = std::chrono::duration<double>(end - start).count();
    for (size_t c = 0; c < kAnalysisClients; ++c) {
      PhaseStats& pc = per_client[c];
      ps.op_us.Append(pc.op_us);
      ps.timeline.insert(ps.timeline.end(), pc.timeline.begin(), pc.timeline.end());
      ps.stage_us.Append(pc.stage_us);
      ps.ops += pc.ops;
      ps.failed += pc.failed;
      for (auto& [k, v] : pc.layers) ps.layers[k].Append(v);
      for (OpRecord& rec : records[c]) records_.push_back(std::move(rec));
    }
    if (traced) {
      ps.counters["server.request_overhead_us"] =
          ps.layers["wire_us"].Median() - ps.layers["query.execute_us"].Median();
      ps.layers.erase("wire_us");
    }
    const auto q1 = sys_->query_engine_stats();
    const auto d1 = sys_->database().stats();
    const auto r1 = sys_->router_stats();
    const auto s1 = sys_->scheduler().stats();
    const double ops = std::max<double>(1, static_cast<double>(ps.ops));
    const double queries = std::max<double>(1, static_cast<double>(q1.queries - q0.queries));
    const auto per = [](uint64_t a, uint64_t b, double n) {
      return static_cast<double>(b - a) / n;
    };
    ps.counters["query.cache_hit_ratio"] = per(q0.cache_hits, q1.cache_hits, queries);
    const double ph = static_cast<double>(q1.cache.partial_hits - q0.cache.partial_hits);
    const double pm = static_cast<double>(q1.cache.partial_misses - q0.cache.partial_misses);
    ps.counters["query.partial_hit_ratio"] = ph / std::max(1.0, ph + pm);
    ps.counters["query.residual_rows_per_query"] = per(q0.residual_rows, q1.residual_rows, queries);
    ps.counters["query.ordered_scans_per_query"] = per(q0.ordered_scans, q1.ordered_scans, queries);
    ps.counters["query.replans_per_query"] = per(q0.replans, q1.replans, queries);
    ps.counters["geodb.full_scans_per_op"] = per(d0.full_extent_scans, d1.full_extent_scans, ops);
    ps.counters["geodb.index_queries_per_op"] = per(d0.attr_index_queries, d1.attr_index_queries, ops);
    ps.counters["geodb.router_shards_per_get_class"] =
        per(d0.get_class_calls, d1.get_class_calls,
            std::max<double>(1, static_cast<double>(r1.scatter_queries - r0.scatter_queries)));
    ps.counters["base.tasks_per_op"] = per(s0.tasks_executed, s1.tasks_executed, ops);
    ps.counters["base.steals_per_op"] = per(s0.steals, s1.steals, ops);
    return ps;
  }

  std::map<std::string, double> Finish() override {
    Verify();
    return {};
  }

 private:
  SpecPtr NextSpec(Kind kind, Rng& rng) {
    if (kind == kRepeat) return hot_[hot_pick_->Draw(rng)];
    if (kind == kReshape) {
      const Kind base = rng.Chance(0.5) ? kConj : kDisj;
      return std::make_shared<const QuerySpec>(
          Reshape(*pool_[base][rng.Uniform(kPoolPerKind)], rng));
    }
    return pool_[kind][rng.Uniform(kPoolPerKind)];
  }

  void Op(size_t c, Kind kind, Rng& rng, bool traced, PhaseStats* ps,
          std::vector<OpRecord>* records) {
    OpRecord rec;
    rec.round = round_;
    rec.kind = kind;
    rec.spec = NextSpec(kind, rng);
    const std::string text = rec.spec->Text();
    const Clock::time_point t0 = Clock::now();
    auto response = clients_[c]->Request("POST", "/query", 10000, text);
    const double wire_us = MicrosBetween(t0, Clock::now());
    ++ps->ops;
    rec.ok = response.ok() && response.value().status == 200 &&
             ParseAnswer(response.value().body, &rec);
    if (!rec.ok) {
      ++ps->failed;
      std::lock_guard lock(check_mutex_);
      result_->Check(false, agis::StrCat("analysis: '", text, "' failed: ",
                                         response.ok() ? response.value().body
                                                       : response.status().ToString()));
    }
    ps->AddOp(wire_us);
    rec.us = wire_us;
    rec.cache_hit = rec.ok && response.value().body.find("\ncache hit") != std::string::npos;
    records->push_back(rec);
    if (!traced) return;
    // Same stream, in process, on an engine configured like the
    // server's: what the query layer costs without the wire.
    ps->layers["wire_us"].Add(wire_us);
    Clock::time_point t1 = Clock::now();
    auto plan = shadow_->ExplainText(text);
    ps->layers["query.plan_us"].Add(MicrosBetween(t1, Clock::now()));
    t1 = Clock::now();
    auto local = shadow_->ExecuteText(text);
    const double exec_us = MicrosBetween(t1, Clock::now());
    ps->layers["query.execute_us"].Add(exec_us);
    ps->stage_us.Add(exec_us);
    OpRecord shadow = rec;
    shadow.path = "in-process";
    shadow.ok = plan.ok() && local.ok();
    if (shadow.ok) {
      shadow.hash = HashIds(local.value().ids);
      shadow.count = local.value().ids.size();
      shadow.total = local.value().total_matched;
    }
    records->push_back(shadow);
  }

  /// One trickle write between rounds; the reference copy replays it
  /// at verification time.
  void ApplyUpdate(Rng& rng) {
    static const char* kClasses[] = {"Pole", "Cable", "Pole", "Duct"};
    const std::vector<Id>& ids = ids_by_class_[kClasses[round_ % 4]];
    UpdateRecord u;
    u.round = round_;
    u.id = ids[rng.Uniform(ids.size())];
    geodb::Value value;
    if (rng.Chance(0.5)) {
      u.attr = "install_year";
      u.ival = rng.Int(1960, 2019);
      value = geodb::Value::Int(u.ival);
    } else {
      u.attr = "status";
      u.sval = DrawStatus(rng);
      value = geodb::Value::String(u.sval);
    }
    const agis::Status st = sys_->database().Update(u.id, u.attr, value);
    result_->Check(st.ok(), "analysis: update failed: " + st.ToString());
    updates_.push_back(u);
  }

  /// Replays rounds against the reference copy: every answer (wire and
  /// in-process) must equal the brute-force one for its round.
  void Verify() {
    // Latency by op kind (wire path), for reading where p50/p95 fall.
    Samples by_kind[kKinds];
    size_t hits[kKinds] = {};
    for (const OpRecord& rec : records_) {
      if (std::string(rec.path) != "wire") continue;
      by_kind[rec.kind].Add(rec.us);
      hits[rec.kind] += rec.cache_hit;
    }
    for (int k = 0; k < kKinds; ++k) {
      std::fprintf(stderr, "analysis kind %-12s n=%-6zu hit=%.2f p50=%.0fus p95=%.0fus\n",
                   kKindNames[k], by_kind[k].size(),
                   static_cast<double>(hits[k]) / std::max<size_t>(1, by_kind[k].size()),
                   by_kind[k].Median(), by_kind[k].Quantile(0.95));
    }
    const Clock::time_point verify_start = Clock::now();
    std::vector<Element> flat;
    std::unordered_map<Id, size_t> at;
    for (const auto& [id, e] : world_.elements) {
      at[id] = flat.size();
      flat.push_back(e);
    }
    std::stable_sort(records_.begin(), records_.end(),
                     [](const OpRecord& a, const OpRecord& b) { return a.round < b.round; });
    struct Memo {
      SpecPtr spec;
      uint64_t hash;
      Answer answer;
    };
    std::unordered_map<std::string, Memo> memo;
    size_t next_update = 0, checked = 0;
    for (size_t i = 0; i < records_.size();) {
      const uint32_t round = records_[i].round;
      size_t end = i;
      while (end < records_.size() && records_[end].round == round) ++end;
      // The round's new answers, brute-forced in parallel: the
      // reference state is fixed until the round's update.
      std::vector<SpecPtr> pending;
      std::set<std::string> seen;
      for (size_t j = i; j < end; ++j) {
        const std::string text = records_[j].spec->Text();
        if (records_[j].ok && memo.count(text) == 0 && seen.insert(text).second) {
          pending.push_back(records_[j].spec);
        }
      }
      std::vector<Answer> answers(pending.size());
      std::vector<std::thread> workers;
      for (size_t t = 0; t < std::min(kVerifyThreads, pending.size()); ++t) {
        workers.emplace_back([&, t] {
          for (size_t k = t; k < pending.size(); k += kVerifyThreads) {
            answers[k] = Evaluate(*pending[k], flat);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      for (size_t k = 0; k < pending.size(); ++k) {
        const uint64_t h = HashIds(answers[k].ids);
        memo.emplace(pending[k]->Text(), Memo{pending[k], h, std::move(answers[k])});
      }
      for (; i < end; ++i) {
        const OpRecord& rec = records_[i];
        if (!rec.ok) continue;
        const std::string text = rec.spec->Text();
        const auto it = memo.find(text);
        const Memo& m = it->second;
        ++checked;
        const bool same = rec.hash == m.hash && rec.count == m.answer.ids.size() &&
                          (rec.spec->TotalMayBeTruncated() || rec.total == m.answer.total);
        result_->Check(same, agis::StrCat("analysis (", rec.path, ", round ", round,
                                          "): '", text, "' returned ", rec.count,
                                          " ids (total ", rec.total, "), reference ",
                                          m.answer.ids.size(), " (total ",
                                          m.answer.total, ")",
                                          rec.hash == m.hash ? "" : ", ids differ"));
      }
      for (; next_update < updates_.size() && updates_[next_update].round <= round;
           ++next_update) {
        const UpdateRecord& u = updates_[next_update];
        Element& e = flat[at[u.id]];
        const Element before = e;
        if (u.attr == "install_year") {
          e.install_year = u.ival;
        } else {
          e.status = u.sval;
        }
        // Only answers the changed element can enter or leave (or
        // reorder within) need recomputing.
        for (auto m = memo.begin(); m != memo.end();) {
          if (Selects(*m->second.spec, before) || Selects(*m->second.spec, e)) {
            m = memo.erase(m);
          } else {
            ++m;
          }
        }
      }
    }
    result_->Check(checked > 0, "analysis: no answer was checked");
    std::fprintf(stderr, "analysis: %zu answers checked in %.2fs\n", checked,
                 SecondsSince(verify_start));
  }

  RunResult* result_;
  std::unique_ptr<ActiveInterfaceSystem> sys_;
  std::unique_ptr<agis::query::QueryEngine> shadow_;
  std::mutex check_mutex_;  // Client threads report failures through it.
  std::vector<std::unique_ptr<agis::server::Client>> clients_;
  World world_;
  std::map<std::string, std::vector<Id>> ids_by_class_;
  std::vector<SpecPtr> pool_[kKinds];
  std::vector<SpecPtr> hot_;
  std::unique_ptr<SkewedPick> hot_pick_;
  std::vector<OpRecord> records_;
  std::vector<UpdateRecord> updates_;
  uint32_t round_ = 0;
  uint64_t phase_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalysis(uint64_t seed, RunResult* r) {
  return std::make_unique<Analysis>(seed, r);
}

}  // namespace e2e
