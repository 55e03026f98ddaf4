// edit_push: one writer commits inserts, updates and deletes to Pole
// and Cable on an unsharded database with durable storage open.
// kSubscribers SSE sessions, each with Pole and Cable windows open
// under its own context, are drained from the writer's thread. One op
// runs from the start of a commit until every subscriber has received
// the frame covering it.
#include <poll.h>

#include <filesystem>
#include <limits>
#include <thread>
#include <unordered_map>

#include "base/strutil.h"
#include "directives.h"
#include "model.h"
#include "server/client.h"
#include "ui/view_refresher.h"
#include "uilib/widget_props.h"
#include "workload.h"

namespace e2e {

namespace {

using agis::core::ActiveInterfaceSystem;
namespace geodb = agis::geodb;

constexpr size_t kSyncEvery = 32;      // Writes per WAL sync.
constexpr size_t kRebuildCheckEvery = 256;
constexpr int kFrameTimeoutMs = 5000;
const char* const kClasses[] = {"Pole", "Cable"};

struct AreaState {
  std::string ids, feature_count, content, svg;
  bool operator==(const AreaState&) const = default;
};

AreaState CaptureArea(const agis::uilib::InterfaceObject* window) {
  AreaState s;
  const auto* area = window == nullptr ? nullptr : window->FindDescendant("presentation");
  if (area == nullptr) return s;
  s.ids = area->GetProperty("ids");
  s.feature_count = area->GetProperty(agis::uilib::kPropFeatureCount);
  s.content = area->GetProperty(agis::uilib::kPropContent);
  s.svg = area->GetProperty(agis::uilib::kPropSvg);
  return s;
}

struct Subscriber {
  agis::server::Client client;
  std::map<std::string, size_t> features;  // Last count seen per class.
};

class EditPush : public Workload {
 public:
  EditPush(uint64_t seed, RunResult* r, std::string dir)
      : Workload(seed), result_(r), dir_(std::move(dir)) {}
  ~EditPush() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  agis::Status Setup() override {
    std::filesystem::remove_all(dir_);
    const agis::core::SystemOptions options = BaseOptions(1, true);
    pump_poll_ms_ = options.server_options.poll_interval_ms;
    sys_ = std::make_unique<ActiveInterfaceSystem>("phone_net", options);
    AGIS_RETURN_IF_ERROR(sys_->OpenStorage(dir_));
    geodb::Database* db = &sys_->database();
    AGIS_RETURN_IF_ERROR(RegisterSchema(db));
    Rng rng(seed_);
    DataSpec spec;
    spec.poles = 2000;
    spec.cables = 2000;  // As many as poles: a write to either costs the same.
    spec.corner_anchors = true;
    AGIS_RETURN_IF_ERROR(LoadWorld(db, spec, rng, &world_));
    AGIS_RETURN_IF_ERROR(CreatePoleIndexes(db));
    for (const auto& [id, e] : world_.elements) {
      if (std::find(world_.anchors.begin(), world_.anchors.end(), id) ==
          world_.anchors.end()) {
        AddLive(e.cls, id);
      }
    }
    const Population pop = MakePopulation();
    for (const DirectiveSpec& d : pop.directives) {
      AGIS_RETURN_IF_ERROR(sys_->InstallCustomization(d.source).status());
    }
    // Subscribers: Figure 6's context first, then contexts spread over
    // the population.
    const int port = sys_->server()->port();
    for (size_t s = 0; s < kSubscribers; ++s) {
      const agis::UserContext& ctx =
          pop.contexts[(s * pop.contexts.size()) / kSubscribers];
      if (s == 0) shadow_ctx_ = ctx;
      auto sub = std::make_unique<Subscriber>();
      AGIS_RETURN_IF_ERROR(sub->client.Connect(port));
      AGIS_RETURN_IF_ERROR(Expect200(sub->client, agis::StrCat(
          "/context?user=", ctx.user, "&category=", ctx.category,
          "&application=", ctx.application), nullptr));
      for (const char* cls : kClasses) {
        std::string body;
        AGIS_RETURN_IF_ERROR(
            Expect200(sub->client, agis::StrCat("/open?class=", cls), &body));
        const size_t at = body.find("\nfeatures ");
        sub->features[cls] =
            at == std::string::npos ? 0 : std::stoul(body.substr(at + 10));
        result_->Check(sub->features[cls] == CountOf(cls),
                       agis::StrCat("edit_push: subscriber ", s, " opened ", cls,
                                    " with ", sub->features[cls], " features"));
      }
      AGIS_RETURN_IF_ERROR(sub->client.StartEvents());
      subs_.push_back(std::move(sub));
    }
    // The in-process shadow session: same windows, patched by its own
    // refresher after every op (the per-session refresh the server
    // runs, timed from outside). Like the server's sessions it installs
    // no write rules: staleness comes from its changefeed cursor.
    shadow_ = std::make_unique<agis::ui::Dispatcher>(db, &sys_->engine(), &sys_->builder());
    shadow_->set_context(shadow_ctx_);
    refresher_ = std::make_unique<agis::ui::ViewRefresher>(
        shadow_.get(), &sys_->engine(), agis::ui::ViewRefresher::Mode::kMarkStale);
    refresher_->AttachChangefeed(sys_->changefeed(), &sys_->styles());
    for (const char* cls : kClasses) {
      AGIS_RETURN_IF_ERROR(shadow_->OpenClassWindow(cls).status());
    }
    return agis::Status::OK();
  }

  std::vector<std::string> HomeLayers() const override {
    return {"geodb.commit_us", "ui.refresh_us", "ui.patched_ratio",
            "storage.wal_bytes_per_write", "storage.sync_us", "storage.recover_s",
            "server.push_wait_us"};
  }

  PhaseStats Phase(double seconds, bool traced) override {
    PhaseStats ps;
    Rng rng(seed_ * 37 + 11 + phase_++);
    const auto st0 = sys_->storage_stats();
    const uint64_t patched0 = refresher_->windows_patched();
    const uint64_t refreshed0 = refresher_->windows_refreshed();
    const Clock::time_point start = ps.start = Clock::now();
    // Whole rounds of kSyncEvery writes; each round ends with a sync.
    while (SecondsSince(start) - ps.paused < seconds) {
      for (size_t i = 0; i < kSyncEvery; ++i) Op(rng, traced, &ps);
      const Clock::time_point s0 = Clock::now();
      const agis::Status synced = sys_->SyncStorage();
      ps.layers["storage.sync_us"].Add(MicrosBetween(s0, Clock::now()));
      result_->Check(synced.ok(), "edit_push: sync failed: " + synced.ToString());
      if (++rounds_ % (kRebuildCheckEvery / kSyncEvery) == 0) {
        const Clock::time_point p0 = Clock::now();
        CheckPatchedAgainstRebuild();
        ps.paused += SecondsSince(p0);
      }
    }
    ps.seconds = SecondsSince(start) - ps.paused;
    const auto st1 = sys_->storage_stats();
    const double writes = static_cast<double>(st1.wal_records_appended - st0.wal_records_appended);
    ps.counters["storage.wal_bytes_per_write"] =
        static_cast<double>(st1.wal_bytes_appended - st0.wal_bytes_appended) /
        std::max(1.0, writes);
    ps.counters["ui.patched_ratio"] =
        static_cast<double>(refresher_->windows_patched() - patched0) /
        std::max<double>(1, static_cast<double>(refresher_->windows_refreshed() - refreshed0));
    if (traced) {
      ps.counters["server.push_wait_us"] = ps.layers["push_wait_us"].Median();
      ps.layers.erase("push_wait_us");
    }
    return ps;
  }

  std::map<std::string, double> Finish() override {
    CheckPatchedAgainstRebuild();
    for (size_t s = 0; s < subs_.size(); ++s) {
      for (const char* cls : kClasses) {
        result_->Check(subs_[s]->features[cls] == CountOf(cls),
                       agis::StrCat("edit_push: subscriber ", s, " ends with ",
                                    subs_[s]->features[cls], " ", cls,
                                    " features, reference ", CountOf(cls)));
      }
    }
    // Latency by write kind, for reading where p50/p95 fall.
    for (const auto& [kind, s] : by_kind_) {
      std::fprintf(stderr, "edit_push kind %-13s n=%-6zu p50=%.0fus p95=%.0fus\n",
                   kind.c_str(), s.size(), s.Median(), s.Quantile(0.95));
    }
    std::fprintf(stderr, "edit_push: %llu resync frames\n",
                 static_cast<unsigned long long>(resyncs_));
    // Close and reopen from the storage directory.
    subs_.clear();
    refresher_.reset();
    shadow_.reset();
    result_->Check(sys_->CloseStorage().ok(), "edit_push: close storage failed");
    sys_.reset();
    const Clock::time_point t0 = Clock::now();
    ActiveInterfaceSystem reopened("phone_net", BaseOptions(1, false));
    const agis::Status st = reopened.OpenStorage(dir_);
    const double recover_s = SecondsSince(t0);
    result_->Check(st.ok(), "edit_push: reopen failed: " + st.ToString());
    if (st.ok()) CheckRecovered(reopened.database());
    return {{"storage.recover_s", recover_s}};
  }

 private:
  static agis::Status Expect200(agis::server::Client& client,
                                const std::string& target, std::string* body) {
    auto response = client.Request("POST", target);
    AGIS_RETURN_IF_ERROR(response.status());
    if (response.value().status != 200) {
      return agis::Status::Internal(agis::StrCat(target, " -> ", response.value().status));
    }
    if (body != nullptr) *body = response.value().body;
    return agis::Status::OK();
  }

  /// Reference extent size: live elements plus the untouched anchors.
  size_t CountOf(const std::string& cls) {
    return live_[cls].size() + world_.anchors.size() / 2;
  }

  void AddLive(const std::string& cls, Id id) {
    live_pos_[id] = live_[cls].size();
    live_[cls].push_back(id);
  }
  void RemoveLive(const std::string& cls, Id id) {
    std::vector<Id>& v = live_[cls];
    const size_t at = live_pos_[id];
    v[at] = v.back();
    live_pos_[v[at]] = at;
    v.pop_back();
    live_pos_.erase(id);
  }

  /// Commits one write and mirrors it in the reference copy.
  agis::Status Commit(Rng& rng, std::string* cls_out, std::string* kind) {
    geodb::Database& db = sys_->database();
    const std::string cls = kClasses[rng.Chance(0.6) ? 0 : 1];
    *cls_out = cls;
    const double u = rng.Unit();
    std::vector<Id>& live = live_[cls];
    *kind = cls + (u < 0.34 || live.size() < 100 ? " insert" : u < 0.67 ? " delete" : " update");
    if (u < 0.34 || live.size() < 100) {
      Element e = NewElement(cls, rng, world_);
      AGIS_ASSIGN_OR_RETURN(geodb::ObjectId id, db.Insert(cls, ElementValues(e)));
      e.id = id;
      world_.elements[id] = e;
      AddLive(cls, id);
      return agis::Status::OK();
    }
    const Id id = live[rng.Uniform(live.size())];
    if (u < 0.67) {
      AGIS_RETURN_IF_ERROR(db.Delete(id));
      world_.elements.erase(id);
      RemoveLive(cls, id);
      return agis::Status::OK();
    }
    Element& e = world_.elements[id];
    if (rng.Chance(0.5)) {  // Move the feature.
      const Element moved = NewElement(cls, rng, world_);
      e.x0 = moved.x0, e.y0 = moved.y0, e.x1 = moved.x1, e.y1 = moved.y1;
      for (auto& [attr, value] : ElementValues(e)) {
        if (attr == "pole_location" || attr == "cable_path") {
          return db.Update(id, attr, value);
        }
      }
      return agis::Status::Internal("no geometry attribute");
    }
    if (cls == "Pole") {
      e.pole_type = rng.Int(0, 7);
      return db.Update(id, "pole_type", geodb::Value::Int(*e.pole_type));
    }
    e.cable_pairs = rng.Int(10, 99);
    return db.Update(id, "cable_pairs", geodb::Value::Int(e.cable_pairs));
  }

  /// Drains frames until every subscriber has one covering `seq` for
  /// `cls`'s window (or a resync). False on timeout or a closed stream.
  bool AwaitFrames(uint64_t seq, const std::string& cls) {
    const std::string window = "Class set: " + cls;
    std::vector<bool> done(subs_.size(), false);
    size_t pending = subs_.size();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kFrameTimeoutMs);
    std::vector<pollfd> fds(subs_.size());
    while (pending > 0) {
      for (size_t s = 0; s < subs_.size(); ++s) {
        fds[s] = pollfd{done[s] ? -1 : subs_[s]->client.fd(), POLLIN, 0};
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now()).count();
      if (left <= 0) return false;
      if (::poll(fds.data(), fds.size(), static_cast<int>(left)) < 0) return false;
      for (size_t s = 0; s < subs_.size(); ++s) {
        if (done[s] || (fds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!subs_[s]->client.ReadAvailable()) return false;
        for (const auto& ev : subs_[s]->client.TakeEvents()) {
          if (ev.event == "resync") {
            ++resyncs_;
            done[s] = true;
            continue;
          }
          if (ev.event != "refresh") continue;
          const size_t seq_at = ev.data.find(" seq=");
          const size_t feat_at = ev.data.find(" features=");
          if (ev.data.rfind("window=", 0) != 0 || seq_at == std::string::npos ||
              feat_at == std::string::npos) {
            continue;
          }
          const std::string name = ev.data.substr(7, seq_at - 7);
          const uint64_t fseq = std::stoull(ev.data.substr(seq_at + 5));
          const size_t features = std::stoul(ev.data.substr(feat_at + 10));
          const std::string fcls = name.substr(std::string("Class set: ").size());
          subs_[s]->features[fcls] = features;
          if (name == window && fseq >= seq) {
            result_->Check(features == CountOf(cls),
                           agis::StrCat("edit_push: frame seq ", fseq, " shows ",
                                        features, " ", cls, " features, reference ",
                                        CountOf(cls)));
            done[s] = true;
          }
        }
        if (done[s]) --pending;
      }
    }
    return true;
  }

  void Op(Rng& rng, bool traced, PhaseStats* ps) {
    std::string cls, kind;
    const Clock::time_point t0 = Clock::now();
    const agis::Status committed = Commit(rng, &cls, &kind);
    const Clock::time_point t1 = Clock::now();
    const uint64_t seq = sys_->changefeed()->head_seq();
    const bool delivered = committed.ok() && AwaitFrames(seq, cls);
    const Clock::time_point t2 = Clock::now();
    ++ps->ops;
    if (!delivered) {
      ++ps->failed;
      result_->Check(false, agis::StrCat("edit_push: write to ", cls, " not delivered: ",
                                         committed.ToString()));
    }
    ps->AddOp(MicrosBetween(t0, t2));
    by_kind_[kind].Add(MicrosBetween(t0, t2));
    // The shadow's refresh is the benchmark's check, not the program's
    // work, and the gap after it is think time: both stay out of the
    // phase's time. The gap puts the next commit at a random point of
    // the server pump's idle poll, as independent edits would land;
    // back to back, the commit's phase within that poll follows the
    // previous op's timing and write→frame latency splits into modes.
    const Clock::time_point r0 = Clock::now();
    const bool refreshed = RefreshShadow();
    const Clock::time_point r1 = Clock::now();
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(rng.Real(0, 1000.0 * pump_poll_ms_))));
    ps->paused += SecondsSince(r0);
    const double refresh_us = MicrosBetween(r0, r1);
    result_->Check(refreshed, "edit_push: shadow refresh failed");
    if (traced) {
      const double commit_us = MicrosBetween(t0, t1);
      ps->layers["geodb.commit_us"].Add(commit_us);
      ps->layers["ui.refresh_us"].Add(refresh_us);
      ps->layers["push_wait_us"].Add(MicrosBetween(t1, t2) - refresh_us);
      ps->stage_us.Add(commit_us + refresh_us);
    }
  }

  /// Brings the shadow's windows current the way the server refreshes
  /// a session: flag from the feed, then patch.
  bool RefreshShadow() {
    refresher_->MarkDirtyFromFeed();
    return refresher_->RefreshStale().ok();
  }

  /// The shadow's patched windows must equal a full rebuild.
  void CheckPatchedAgainstRebuild() {
    result_->Check(RefreshShadow(), "edit_push: shadow refresh failed");
    agis::ui::Dispatcher fresh(&sys_->database(), &sys_->engine(), &sys_->builder());
    fresh.set_context(shadow_ctx_);
    for (const char* cls : kClasses) {
      const std::string name = agis::StrCat("Class set: ", cls);
      const AreaState patched = CaptureArea(shadow_->FindWindow(name));
      result_->Check(fresh.OpenClassWindow(cls).ok(), "edit_push: rebuild failed");
      const AreaState rebuilt = CaptureArea(fresh.FindWindow(name));
      result_->Check(patched == rebuilt,
                     agis::StrCat("edit_push: patched ", cls,
                                  " window differs from a full rebuild (",
                                  patched.feature_count, " vs ",
                                  rebuilt.feature_count, " features)"));
    }
  }

  /// Every acknowledged write is back, nothing else.
  void CheckRecovered(geodb::Database& db) {
    const geodb::Snapshot snap = db.OpenSnapshot();
    for (const char* cls : kClasses) {
      auto ids = db.ScanExtentAt(snap, cls);
      std::vector<Id> expected;
      for (const auto& [id, e] : world_.elements) {
        if (e.cls == cls) expected.push_back(id);
      }
      result_->Check(ids.ok() && ids.value() == expected,
                     agis::StrCat("edit_push: recovered ", cls, " extent has ",
                                  ids.ok() ? ids.value().size() : 0,
                                  " objects, reference ", expected.size()));
    }
    size_t mismatched = 0;
    for (const auto& [id, e] : world_.elements) {
      const geodb::ObjectInstance* obj = db.FindObjectAt(snap, id);
      if (obj == nullptr) {
        ++mismatched;
        continue;
      }
      for (const auto& [attr, value] : ElementValues(e)) {
        if (obj->Get(attr).ToDisplayString() != value.ToDisplayString()) {
          if (mismatched == 0) {
            std::fprintf(stderr, "recovered %llu.%s = '%s', expected '%s'\n",
                         static_cast<unsigned long long>(id), attr.c_str(),
                         obj->Get(attr).ToDisplayString().c_str(),
                         value.ToDisplayString().c_str());
          }
          ++mismatched;
          break;
        }
      }
    }
    result_->Check(mismatched == 0, agis::StrCat("edit_push: ", mismatched,
                                                 " recovered objects differ"));
  }

  RunResult* result_;
  std::string dir_;
  std::unique_ptr<ActiveInterfaceSystem> sys_;
  World world_;
  std::map<std::string, std::vector<Id>> live_;
  std::unordered_map<Id, size_t> live_pos_;
  std::vector<std::unique_ptr<Subscriber>> subs_;
  agis::UserContext shadow_ctx_;
  std::unique_ptr<agis::ui::Dispatcher> shadow_;
  std::unique_ptr<agis::ui::ViewRefresher> refresher_;
  std::map<std::string, Samples> by_kind_;
  int pump_poll_ms_ = 0;  // The server's idle poll interval.
  uint64_t resyncs_ = 0;
  uint64_t rounds_ = 0;
  uint64_t phase_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEditPush(uint64_t seed, RunResult* r,
                                       const std::string& scratch_dir) {
  return std::make_unique<EditPush>(seed, r, scratch_dir);
}

}  // namespace e2e
