#include "imapreduce/engine.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <span>
#include <thread>
#include <unordered_map>

#include "cluster/placement.h"
#include "cluster/task_context.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"
#include "imapreduce/control.h"
#include "imapreduce/map_output.h"
#include "imapreduce/static_store.h"
#include "mapreduce/reduce_input.h"
#include "mapreduce/shuffle_util.h"
#include "metrics/telemetry.h"

namespace imr {

namespace {

// Reduce-side emitter: plain collection; side() feeds nothing here (the
// engine taps the reduce output itself for reduce-sourced aux phases).
class CollectEmitter : public IterEmitter {
 public:
  explicit CollectEmitter(KVVec& out) : out_(out) {}
  void emit(Bytes key, Bytes value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  void side(Bytes /*key*/, Bytes /*value*/) override {}

 private:
  KVVec& out_;
};

// How a task's collect step ended.
enum class LoopEvent {
  kIterationReady,
  kRollback,
  kResume,  // session epoch resume (kRollback arithmetic, no state reload)
  kTerminate,
  // Exit without output: a Kill, a closed mailbox, or a crash inside a
  // handler (which already sent the task's failure notice).
  kKill,
};

struct Collected {
  LoopEvent event = LoopEvent::kIterationReady;
  int restart_at = 0;  // kRollback/kResume: the iteration to resume after
};

// Handlers of a task with no gate and no control of its own.
constexpr auto kUngated = [] { return true; };
constexpr auto kNoOwnControl = [](const CtlMsg&, NetMessage&) { return true; };

// Iteration-aware mailbox wrapper. In asynchronous execution a fast upstream
// task may legitimately run one iteration ahead and send data tagged with a
// FUTURE iteration while this task is still collecting the current one
// (§3.3: maps of iteration k+1 overlap reduces of iteration k). Such
// messages must be buffered, not discarded; only messages from an older
// generation or an already-completed iteration are stale.
class StashedInbox {
 public:
  // `senders`: the upstream tasks whose EOS completes an iteration's input.
  StashedInbox(std::shared_ptr<Endpoint> ep, int senders)
      : ep_(std::move(ep)), senders_(senders) {}

  // The per-iteration protocol of every persistent task (§3.1.2, §3.4):
  // gathers iteration k's input until each sender's EOS is in and ready()
  // (the master's gate) holds. Data goes to on_data(msg), and control other
  // than Terminate, Kill, Rollback and Resume to on_control(ctl, msg); a
  // handler returns false when the task died inside it. A Rollback or
  // Resume adopts its generation into `gen`.
  template <typename Ready, typename OnControl, typename OnData>
  Collected collect(VClock& vt, int& gen, int k, Ready ready,
                    OnControl on_control, OnData on_data) {
    int eos_seen = 0;
    while (eos_seen < senders_ || !ready()) {
      std::optional<NetMessage> msg = next(vt, gen, k);
      if (!msg) return {LoopEvent::kKill};
      if (msg->kind == NetMessage::Kind::kControl) {
        const CtlMsg ctl = CtlMsg::decode(msg->control);
        switch (ctl.type) {
          case CtlType::kTerminate:
            return {LoopEvent::kTerminate};
          case CtlType::kKill:
            return {LoopEvent::kKill};
          case CtlType::kRollback:
          case CtlType::kResume:
            gen = ctl.generation;
            return {ctl.type == CtlType::kResume ? LoopEvent::kResume
                                                 : LoopEvent::kRollback,
                    ctl.iteration};
          default:
            if (!on_control(ctl, *msg)) return {LoopEvent::kKill};
            continue;
        }
      }
      // An aggregated frame (DESIGN.md §9) is flushed at its sender's
      // iteration barrier, so it is also that sender's EOS.
      const bool eos = msg->kind == NetMessage::Kind::kEos ||
                       !msg->control.empty();
      if (msg->kind == NetMessage::Kind::kData && !on_data(*msg)) {
        return {LoopEvent::kKill};
      }
      if (eos) {
        ++eos_seen;
        IMR_DEBUG << ep_->name() << " gen " << gen << " iter " << k << " eos "
                  << eos_seen << "/" << senders_ << " from " << msg->from_task;
      }
    }
    return {};
  }

 private:
  // Returns the next message that is either a control message or a data/EOS
  // message matching (gen, iter). Buffers future-iteration data; drops
  // stale-generation and past-iteration messages. nullopt = endpoint closed.
  std::optional<NetMessage> next(VClock& vt, int gen, int iter) {
    auto key = std::make_pair(gen, iter);
    auto it = stash_.find(key);
    if (it != stash_.end()) {
      NetMessage msg = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) stash_.erase(it);
      vt.sync_to(msg.vt_ready);
      return msg;
    }
    // Drop buckets that can never be consumed anymore.
    while (!stash_.empty() && stash_.begin()->first < key) {
      stash_.erase(stash_.begin());
    }
    while (true) {
      auto msg = ep_->receive(vt);
      if (!msg) return std::nullopt;
      if (msg->kind == NetMessage::Kind::kControl) return msg;
      if (msg->generation == gen && msg->iteration == iter) return msg;
      if (msg->generation > gen ||
          (msg->generation == gen && msg->iteration > iter)) {
        stash_[{msg->generation, msg->iteration}].push_back(std::move(*msg));
        continue;
      }
      // Older generation or already-finished iteration: stale, drop.
      IMR_DEBUG << ep_->name() << " drops stale "
                << (msg->kind == NetMessage::Kind::kEos ? "eos" : "data")
                << " gen " << msg->generation << " iter " << msg->iteration
                << " from " << msg->from_task << " (want gen " << gen
                << " iter " << iter << ")";
    }
  }

  std::shared_ptr<Endpoint> ep_;
  int senders_;
  std::map<std::pair<int, int>, std::deque<NetMessage>> stash_;
};

}  // namespace

namespace detail {

// One run of an iterative job. Owns endpoints, task threads, and the master
// protocol state. In session mode (DESIGN.md §8) the run QUIESCES instead of
// terminating once the workset drains: the reduces dump a converged-<epoch>
// baseline checkpoint and every task stays parked in its collect step, state
// and static indexes resident, until apply_update() routes a static-delta
// batch to the maps and resumes iteration from the perturbed-key frontier —
// or close_session() terminates the run and dumps the final output.
class JobRun {
 public:
  JobRun(Cluster& cluster, const IterJobConf& conf, bool session_mode = false)
      : cluster_(cluster),
        conf_(conf),
        cost_(cluster.cost()),
        // Job ordinal is per-cluster so a fresh cluster replays the same DFS
        // paths (placement is path-derived; see Cluster::next_job_ordinal).
        tag_(conf.name + "#" + std::to_string(cluster.next_job_ordinal())),
        P_(static_cast<int>(conf.phases.size())),
        T_(conf.num_tasks > 0 ? conf.num_tasks : default_tasks()),
        session_mode_(session_mode) {}

  // Default persistent-task count: fill the cluster's slots (§3.1.1 — the
  // task granularity is set so that all persistent tasks fit, using the same
  // slot capacity the classic engine's task waves use).
  int default_tasks() const {
    // Phases of one iteration alternate activity, and a dormant persistent
    // task does not occupy an execution slot (§3.1.1) — so phases share the
    // slot budget; only the aux phase (which runs concurrently with the
    // main phase) claims its own share.
    int aux_maps_share = conf_.aux ? 1 : 0;
    int aux_reduces = conf_.aux ? conf_.aux->num_reduce_tasks : 0;
    int by_maps = cluster_.map_slots() / (1 + aux_maps_share);
    int by_reduces = cluster_.reduce_slots() - aux_reduces;
    return std::max(1, std::min(by_maps, by_reduces));
  }

  RunReport execute();

  // --- session lifecycle (driven by JobSession, engine.h) ---
  // Runs to the first convergence and quiesces; the tasks stay parked.
  RunReport converge();
  // Routes a delta batch to the maps, seeds the resume frontier from their
  // perturbed_keys verdicts, and re-runs the loop until the frontier drains.
  RunReport apply_update(const StaticDelta& delta);
  // Terminates the parked tasks; last-phase reduces dump the final output.
  RunReport close_session();
  const RunReport& last_report() const { return last_report_; }
  bool closed() const { return closed_; }

 private:
  // --- naming ---
  std::string map_ep_name(int p, int i) const {
    return tag_ + "/p" + std::to_string(p) + "/m" + std::to_string(i);
  }
  std::string red_ep_name(int p, int i) const {
    return tag_ + "/p" + std::to_string(p) + "/r" + std::to_string(i);
  }
  std::string ckpt_path(int iter) const {
    return "ckpt/" + tag_ + "/it" + std::to_string(iter);
  }
  // Session baseline checkpoint of epoch `session` (the state every task of
  // epoch session+1 resumes against). Lives under ckpt/<tag>/ so teardown's
  // prefix removal garbage-collects it with the periodic checkpoints.
  std::string converged_path(int session) const {
    return "ckpt/" + tag_ + "/converged-" + std::to_string(session);
  }

  // --- endpoint registry (swapped under lock on respawn) ---
  std::shared_ptr<Endpoint> map_ep(int p, int i) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    return map_ep_[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
  }
  std::shared_ptr<Endpoint> red_ep(int p, int i) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    return red_ep_[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
  }
  std::shared_ptr<Endpoint> aux_map_ep(int a) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    return aux_map_ep_[static_cast<std::size_t>(a)];
  }
  std::shared_ptr<Endpoint> aux_red_ep(int j) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    return aux_red_ep_[static_cast<std::size_t>(j)];
  }
  std::vector<std::shared_ptr<Endpoint>> all_endpoints() {
    std::lock_guard<std::mutex> lock(ep_mu_);
    std::vector<std::shared_ptr<Endpoint>> all;
    for (auto& v : map_ep_) all.insert(all.end(), v.begin(), v.end());
    for (auto& v : red_ep_) all.insert(all.end(), v.begin(), v.end());
    all.insert(all.end(), aux_map_ep_.begin(), aux_map_ep_.end());
    all.insert(all.end(), aux_red_ep_.begin(), aux_red_ep_.end());
    return all;
  }

  // Which endpoint row an EpRow caches.
  enum class EpKind { kMap, kReduce, kAuxMap, kAuxReduce };

  // Generation-stamped cache of one endpoint row ([task index] for a fixed
  // phase). Task loops ship every flushed batch through a row; looking each
  // endpoint up under ep_mu_ per batch serializes all senders on one global
  // mutex. Instead the row is snapshotted once and re-snapshotted only after
  // respawn_and_rollback swaps endpoints and bumps ep_epoch_. A send racing
  // the swap can still land in an abandoned mailbox — exactly the race the
  // per-send lookup already had (the pointer was fetched before the swap) —
  // and is handled the same way: the receiver's generation check filters it,
  // or teardown declares it a discard.
  class EpRow {
   public:
    EpRow(JobRun& run, EpKind kind, int p = 0) : run_(run), kind_(kind), p_(p) {}

    Endpoint& at(int i) {
      refresh();
      return *row_[static_cast<std::size_t>(i)];
    }
    const std::vector<std::shared_ptr<Endpoint>>& row() {
      refresh();
      return row_;
    }
    // The row as a MapOutput destination; must not outlive this EpRow.
    MapOutput::Row row_fn() {
      return [this]() -> const auto& { return row(); };
    }

   private:
    void refresh() {
      // Epoch is loaded before the snapshot: if a swap lands in between, the
      // fresher row is stored under the older stamp and the next access
      // simply refreshes again.
      uint64_t epoch = run_.ep_epoch_.load(std::memory_order_acquire);
      if (epoch == epoch_) return;
      std::lock_guard<std::mutex> lock(run_.ep_mu_);
      switch (kind_) {
        case EpKind::kMap:
          row_ = run_.map_ep_[static_cast<std::size_t>(p_)];
          break;
        case EpKind::kReduce:
          row_ = run_.red_ep_[static_cast<std::size_t>(p_)];
          break;
        case EpKind::kAuxMap:
          row_ = run_.aux_map_ep_;
          break;
        case EpKind::kAuxReduce:
          row_ = run_.aux_red_ep_;
          break;
      }
      epoch_ = epoch;
    }

    JobRun& run_;
    EpKind kind_;
    int p_;
    uint64_t epoch_ = ~uint64_t{0};
    std::vector<std::shared_ptr<Endpoint>> row_;
  };

  // --- control helpers ---
  // Every control message; `records` ride in the payload (a Delta's ops, a
  // DeltaAck's seeds).
  static NetMessage control_message(const CtlMsg& ctl, int from_task,
                                    KVVec records) {
    NetMessage msg;
    msg.kind = NetMessage::Kind::kControl;
    msg.from_task = from_task;
    msg.iteration = ctl.iteration;
    msg.generation = ctl.generation;
    msg.control = ctl.encode();
    if (!records.empty()) msg.set_records(std::move(records));
    return msg;
  }
  void master_send(Endpoint& to, const CtlMsg& ctl, KVVec records = {}) {
    cluster_.fabric().send(/*sender_worker=*/-1, mvt_, to,
                           control_message(ctl, -1, std::move(records)),
                           TrafficCategory::kControl);
  }
  void task_send_ctl(TaskContext& ctx, const CtlMsg& ctl,
                     KVVec records = {}) {
    ctx.send(*master_ep_, control_message(ctl, ctl.task, std::move(records)),
             TrafficCategory::kControl);
  }
  // An injected crash: the dying task's last breath is the failure notice
  // (the in-process stand-in for the master's heartbeat timeout). The caller
  // must return immediately after.
  void fail_task(TaskContext& ctx, int task, int iteration, int gen) {
    IMR_DEBUG << tag_ << ": task " << task << " (worker " << ctx.worker()
              << ") injected failure at iter " << iteration << " gen " << gen;
    CtlMsg fail;
    fail.type = CtlType::kFailure;
    fail.task = task;
    fail.iteration = iteration;
    fail.generation = gen;
    fail.worker = ctx.worker();
    task_send_ctl(ctx, fail);
  }
  // True when an injected crash at `point` killed the task, which has then
  // sent its failure notice; the caller must return immediately.
  bool dies_at(TaskContext& ctx, FaultPoint point, int task, int iteration,
               int gen) {
    if (!cluster_.consume_fault(ctx.worker(), point, iteration, &ctx.vt())) {
      return false;
    }
    fail_task(ctx, task, iteration, gen);
    return true;
  }

  // --- task bodies ---
  // `worker` and `ep` are captured by the spawning thread (see spawn_pair),
  // not read here: a task thread may be scheduled arbitrarily late.
  void run_map(int p, int i, int gen, int start_iter, int64_t start_vt,
               int worker, std::shared_ptr<Endpoint> ep);
  void run_reduce(int p, int i, int gen, int start_iter, int64_t start_vt,
                  int worker, std::shared_ptr<Endpoint> ep);
  // Aux tasks are generation-aware like main tasks: after a rollback the
  // main phase re-sends aux data under the bumped generation, so an aux task
  // stuck at generation 0 would stash that data forever and convergence
  // detection would silently stop firing.
  void run_aux_map(int j, int gen, int start_iter,
                   std::shared_ptr<Endpoint> ep);
  void run_aux_reduce(int j, int gen, int start_iter,
                      std::shared_ptr<Endpoint> ep);

  // --- master (thread-confined) ---
  // Dispatches the master's control messages until T Dones or a quiesce.
  void master_loop();
  struct PendingIter;
  // Records iteration k, whose reports are all in, and acts on its verdict:
  // quiesce, terminate, or one Continue(k).
  void decide(int k);
  enum class Verdict { kContinue, kConverged, kBudgetSpent };
  Verdict verdict(const PendingIter& it) const;
  // A failure notice (§3.4.1): moves the worker's pairs and rolls back.
  void recover(int worker, int iteration);
  void maybe_migrate(const PendingIter& it);
  // Every task stops; last-phase reduces dump the output and send Done.
  void terminate();
  // Respawns `pairs` on `targets` and rolls everything back to last_ckpt_.
  void respawn_and_rollback(const std::vector<int>& pairs,
                            const std::vector<int>& targets);

  // execute() split so a session can re-enter the master loop per epoch:
  // start() validates/spawns once, run_master() wraps master_loop with error
  // capture, finish() tears everything down and fills the cumulative report.
  void start();
  void run_master();
  RunReport finish();
  // Report slice covering the current epoch only (since epoch_first_stat_).
  RunReport epoch_report(const std::string& label);

  // --- spawning ---
  void spawn(std::function<void()> body) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.emplace_back([this, body = std::move(body)] {
      try {
        body();
      } catch (...) {
        {
          std::lock_guard<std::mutex> elock(error_mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        // Unblock everything so the run can unwind.
        for (auto& ep : all_endpoints()) ep->close();
        master_ep_->close();
      }
    });
  }
  void spawn_pair(int i, int gen, int start_iter, int64_t start_vt) {
    // Resolve the pair's home worker and inbox endpoints HERE, in the
    // spawning thread. A new thread can begin running arbitrarily late —
    // after a subsequent recovery has re-homed this pair and replaced its
    // endpoints. A task that resolved its own inbox only once scheduled
    // would then grab the *replacement* mailbox: its Kill would sit unread
    // in the abandoned one while it silently stole (and stashed, by
    // generation) the replacement task's messages — a deadlock that only
    // shows up when thread start-up is delayed by machine load.
    int worker = pair_worker(i);
    for (int p = 0; p < P_; ++p) {
      auto mep = map_ep(p, i);
      auto rep = red_ep(p, i);
      spawn([this, p, i, gen, start_iter, start_vt, worker, mep] {
        run_map(p, i, gen, start_iter, start_vt, worker, mep);
      });
      spawn([this, p, i, gen, start_iter, start_vt, worker, rep] {
        run_reduce(p, i, gen, start_iter, start_vt, worker, rep);
      });
    }
    // Aux map i lives and moves with its pair, so map-side output hand-off
    // is local.
    if (conf_.aux) {
      auto aep = aux_map_ep(i);
      spawn([this, i, gen, start_iter, aep] {
        run_aux_map(i, gen, start_iter, aep);
      });
    }
  }
  // Homes pair i on `worker` with fresh mailboxes: each phase's map and
  // reduce, and its aux map. Used at start and by every respawn.
  void home_pair(int i, int worker) {
    set_pair_worker(i, worker);
    const auto at = static_cast<std::size_t>(i);
    std::lock_guard<std::mutex> lock(ep_mu_);
    for (std::size_t p = 0; p < map_ep_.size(); ++p) {
      map_ep_[p][at] = cluster_.fabric().create_endpoint(
          map_ep_name(static_cast<int>(p), i), worker);
      red_ep_[p][at] = cluster_.fabric().create_endpoint(
          red_ep_name(static_cast<int>(p), i), worker);
    }
    if (conf_.aux) {
      aux_map_ep_[at] = cluster_.fabric().create_endpoint(
          tag_ + "/aux/m" + std::to_string(i), worker);
    }
    // Publish the swap to the EpRow caches.
    ep_epoch_.fetch_add(1, std::memory_order_release);
  }
  void home_aux_reduce(int j, int worker) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    aux_red_ep_[static_cast<std::size_t>(j)] =
        cluster_.fabric().create_endpoint(tag_ + "/aux/r" + std::to_string(j),
                                          worker);
    ep_epoch_.fetch_add(1, std::memory_order_release);
  }
  // Pair i's mailboxes, in home_pair's order: the Kill and Rollback fan-out.
  std::vector<std::shared_ptr<Endpoint>> pair_endpoints(int i) {
    const auto at = static_cast<std::size_t>(i);
    std::lock_guard<std::mutex> lock(ep_mu_);
    std::vector<std::shared_ptr<Endpoint>> eps;
    for (std::size_t p = 0; p < map_ep_.size(); ++p) {
      eps.push_back(map_ep_[p][at]);
      eps.push_back(red_ep_[p][at]);
    }
    if (conf_.aux) eps.push_back(aux_map_ep_[at]);
    return eps;
  }

  // Routing for one key under the job's effective partitioner (the conf's or
  // the flat hash). Everything that decides where a key LIVES — shuffle
  // routing, state/static loads, session update routing — goes through the
  // same function, or a key would be loaded on one task and updated on
  // another (DESIGN.md §9).
  uint32_t key_partition(BytesView key) const {
    return conf_.partitioner
               ? conf_.partitioner->partition(key)
               : partition_of(key, static_cast<uint32_t>(T_));
  }
  // The same routing as a MiniDfs::PartitionFn for partition loads.
  MiniDfs::PartitionFn partition_fn() const {
    return [this](BytesView key) { return key_partition(key); };
  }

  // Loads the phase-0 map state input for iteration `ckpt_iter + 1`.
  KVVec load_map_state(TaskContext& ctx, int i, int ckpt_iter, bool one2all) {
    // A reset_all epoch's baseline is the ORIGINAL initial state: the epoch
    // replays the whole iteration (over the mutated static data) in place,
    // which is what makes a non-refining delta's reconvergence byte-identical
    // to a cold run.
    if (ckpt_iter > 0) {
      SessionView sv = session_view();
      if (sv.active && ckpt_iter == sv.base && sv.reset_all) ckpt_iter = 0;
    }
    if (ckpt_iter <= 0) {
      if (one2all) return ctx.dfs_read_all(conf_.state_path);
      return cluster_.dfs().read_partition(conf_.state_path,
                                           static_cast<uint32_t>(i),
                                           partition_fn(), ctx.worker(),
                                           &ctx.vt());
    }
    // Workset mode restores the exact FRONTIER the checkpoint iteration
    // produced, not the full state: replaying the full state would revisit
    // every key (re-applying updates an accumulative reducer already
    // absorbed) and make the recovered run diverge from the fault-free one.
    if (conf_.workset_mode) {
      return ctx.dfs_read_all(ckpt_path(ckpt_iter) + "/workset-" +
                              std::to_string(i));
    }
    return ctx.dfs_read_all(ckpt_path(ckpt_iter) + "/part-" +
                            std::to_string(i));
  }

  // --- session-state views for task threads. The master writes the fields
  // only while every task is parked (or inside the ack barrier), but a task
  // respawned by recovery reads them concurrently with nothing ordering the
  // two — hence session_mu_ around every access.
  struct SessionView {
    bool active = false;   // a resume epoch is in effect (session_id_ > 0)
    int base = 0;          // iteration the epoch resumed after
    bool reset_all = false;
    std::string baseline_dir;  // converged ckpt backing a refining epoch
  };
  SessionView session_view() {
    std::lock_guard<std::mutex> lock(session_mu_);
    SessionView sv;
    sv.active = session_mode_ && session_id_ > 0;
    sv.base = session_base_;
    sv.reset_all = session_reset_all_;
    sv.baseline_dir = session_baseline_dir_;
    return sv;
  }
  // True when `ckpt_iter` is the current epoch's baseline and the epoch is
  // refining: the converged state lives on in the reduces, so a map restarts
  // with NO pending input and waits for its paired reduce's seed frontier.
  bool session_baseline_collect(int ckpt_iter) {
    std::lock_guard<std::mutex> lock(session_mu_);
    return session_mode_ && session_id_ > 0 && !session_reset_all_ &&
           ckpt_iter == session_base_;
  }
  // Copy of reduce task i's seed frontier for the current epoch. Reduces read
  // seeds from here (not from the resume message) so a task respawned
  // mid-epoch re-ships the identical frontier.
  KVVec session_seeds_for(int i) {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (epoch_seeds_.empty()) return KVVec{};
    return epoch_seeds_[static_cast<std::size_t>(i)];
  }
  // Every delta batch applied so far, filtered to task i's partition: a map
  // respawned by recovery rebuilds its static store from the original input
  // and replays these to catch up with the session's mutations.
  std::vector<std::vector<StaticDeltaOp>> session_history_for(int i) {
    std::lock_guard<std::mutex> lock(session_mu_);
    std::vector<std::vector<StaticDeltaOp>> out;
    out.reserve(delta_history_.size());
    for (const auto& batch : delta_history_) {
      std::vector<StaticDeltaOp> mine;
      for (const StaticDeltaOp& op : batch) {
        if (key_partition(op.key) == static_cast<uint32_t>(i)) {
          mine.push_back(op);
        }
      }
      out.push_back(std::move(mine));
    }
    return out;
  }

  Cluster& cluster_;
  // By value: a session-mode run outlives the IterativeEngine::open_session
  // call that supplied the conf.
  const IterJobConf conf_;
  const CostModel& cost_;
  std::string tag_;
  int P_;
  int T_;
  int aux_reduces_ = 0;

  std::shared_ptr<Endpoint> master_ep_;
  std::mutex ep_mu_;
  std::vector<std::vector<std::shared_ptr<Endpoint>>> map_ep_;  // [p][i]
  std::vector<std::vector<std::shared_ptr<Endpoint>>> red_ep_;  // [p][i]
  std::vector<std::shared_ptr<Endpoint>> aux_map_ep_;           // [i]
  std::vector<std::shared_ptr<Endpoint>> aux_red_ep_;           // [j]
  // Bumped (after the swap, under ep_mu_) whenever endpoints are replaced;
  // EpRow caches re-snapshot when they observe a new epoch.
  std::atomic<uint64_t> ep_epoch_{0};

  std::mutex assign_mu_;
  std::vector<int> pair_worker_;  // pair index -> worker

  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  // Master-filled results.
  RunReport report_;
  RunReport last_report_;
  // Telemetry iteration records (master thread only); truncated beside
  // report_.iterations on rollback, joined with the ledger at finish().
  std::vector<IterTelemetry> telemetry_iters_;
  // Registry snapshot at the current epoch's start; epoch_report subtracts
  // it so each epoch's byte/time totals cover that epoch alone.
  RunReport epoch_base_report_;

  // --- master protocol state. Owned by the master thread; hoisted out of
  // master_loop so a session can leave the loop at quiesce and re-enter it
  // for the next epoch without losing the iteration ledger.
  struct PendingIter {
    int reports = 0;
    double distance = 0;
    int64_t workset = 0;  // summed changed-record counts (workset mode)
    std::map<int, int64_t> worker_dur;  // worker -> max duration
    // Telemetry (populated only while the recorder gate is armed): exact
    // per-task durations/resident-state bytes, and the straggler — the
    // report that arrived LAST in virtual time (ties: smaller task id).
    std::map<int, int64_t> task_dur;
    std::map<int, int64_t> task_state_bytes;
    int straggler_task = -1;
    int straggler_worker = -1;
    int64_t straggler_vt = -1;
    int64_t straggler_dur = 0;

    void add(const CtlMsg& report, int64_t vt_ready) {
      ++reports;
      distance += report.distance;
      workset += report.workset_size;
      int64_t& dur = worker_dur[report.worker];
      dur = std::max(dur, report.duration_ns);
      if (!TelemetryRecorder::enabled()) return;
      int64_t& td = task_dur[report.task];
      td = std::max(td, report.duration_ns);
      task_state_bytes[report.task] = report.state_bytes;
      if (vt_ready > straggler_vt ||
          (vt_ready == straggler_vt &&
           (straggler_task == -1 || report.task < straggler_task))) {
        straggler_vt = vt_ready;
        straggler_task = report.task;
        straggler_worker = report.worker;
        straggler_dur = report.duration_ns;
      }
    }
  };
  std::map<int, PendingIter> pending_;  // iteration -> reports (current gen)
  int generation_ = 0;
  int decided_ = 0;
  int last_ckpt_ = 0;
  int aux_stop_at_ = INT32_MAX;
  int last_migration_iter_ = 0;
  bool terminating_ = false;
  int done_count_ = 0;
  double last_decided_wall_ms_ = 0;
  // The master clock and trace track persist across session epochs: epoch
  // wall times are slices of one continuous timeline.
  VClock mvt_;
  bool started_ = false;
  bool closed_ = false;
  bool traced_ = false;
  TraceRecorder::TrackHandle prev_track_ = nullptr;
  std::optional<TraceSpan> job_span_;

  // --- job-session state (DESIGN.md §8) ---
  bool session_mode_ = false;
  std::mutex session_mu_;
  int session_id_ = 0;    // current epoch; 0 = the initial run
  // Iteration the current epoch resumed after; also the base of the epoch's
  // fresh max_iterations budget (0 outside sessions). Only the master
  // writes it, so the master's own reads skip the lock.
  int session_base_ = 0;
  bool session_reset_all_ = false;
  std::string session_baseline_dir_;
  std::vector<std::vector<StaticDeltaOp>> delta_history_;
  std::vector<KVVec> epoch_seeds_;  // [reduce task] current epoch's frontier
  // Quiesce/epoch bookkeeping (master thread only).
  bool quiesced_ = false;
  int ckpt_acks_ = 0;
  std::size_t epoch_first_stat_ = 0;
  double epoch_start_ms_ = 0;

  int pair_worker(int i) {
    std::lock_guard<std::mutex> lock(assign_mu_);
    return pair_worker_[static_cast<std::size_t>(i)];
  }
  void set_pair_worker(int i, int w) {
    std::lock_guard<std::mutex> lock(assign_mu_);
    pair_worker_[static_cast<std::size_t>(i)] = w;
  }
};

// ---------------------------------------------------------------------------
// Map task
// ---------------------------------------------------------------------------

void JobRun::run_map(int p, int i, int gen, int start_iter, int64_t start_vt,
                     int worker, std::shared_ptr<Endpoint> ep) {
  const PhaseConf& ph = conf_.phases[static_cast<std::size_t>(p)];
  const bool one2all = ph.mapping == Mapping::kOne2All;
  const bool is_phase0 = (p == 0);
  // Workset mode (DESIGN.md §7): the paired reduce ships only CHANGED
  // records, so the batches arriving here are the active frontier, not the
  // full state. The map body is unchanged — it joins and maps whatever
  // arrives — but the iteration span is named distinctly so traces show
  // frontier iterations at a glance.
  const bool workset = conf_.workset_mode;
  const bool sync_gate = is_phase0 && !conf_.async_maps && !one2all;
  const bool feeds_aux =
      conf_.aux && is_phase0 &&
      conf_.aux->source == AuxConf::Source::kMapSideOutput;

  StashedInbox inbox(ep, one2all ? T_ : 1);
  TaskContext ctx(cluster_, map_ep_name(p, i), worker, start_vt);
  EpRow red_row(*this, EpKind::kReduce, p);
  EpRow aux_row(*this, EpKind::kAuxMap);
  ctx.charge(cost_.task_init, TimeCategory::kTaskInit);
  cluster_.metrics().inc("imr_persistent_map_tasks");
  IMR_DEBUG << tag_ << ": map " << p << "/" << i << " gen " << gen
            << " starting at iter " << start_iter << " on worker "
            << ctx.worker();

  // One-time static load (§3.2: loaded to local FS once). The partition is
  // sorted (for in-order map_all scans) and hash-indexed (StaticStore) here,
  // once per persistent task — every per-record join of every iteration then
  // costs one hash probe instead of a lower_bound's log n string compares.
  StaticStore static_store;
  if (!ph.static_path.empty()) {
    KVVec static_data = cluster_.dfs().read_partition(
        ph.static_path, static_cast<uint32_t>(i), partition_fn(),
        ctx.worker(), &ctx.vt());
    if (TelemetryRecorder::enabled()) {
      cluster_.telemetry().record_static_bytes(
          i, static_cast<int64_t>(wire_size(static_data)));
    }
    TraceSpan index_span("join_index_build", ctx.vt(), start_iter, gen);
    ThreadCpuTimer index_cpu;
    sort_records(static_data, /*sort_values=*/false);
    static_store.build(std::move(static_data));
    ctx.charge_compute(index_cpu.elapsed_ns(), TimeCategory::kSort);
  }
  if (session_mode_ && !ph.static_path.empty()) {
    // A task respawned mid-session rebuilt its store from the ORIGINAL
    // static input above; catch up by replaying every delta batch the
    // session has applied so far. Fresh gen-0 tasks see an empty history.
    for (const auto& ops : session_history_for(i)) {
      if (ops.empty()) continue;
      ThreadCpuTimer replay_cpu;
      static_store.apply_delta(ops);
      ctx.charge_compute(replay_cpu.elapsed_ns());
      cluster_.metrics().inc("imr_delta_ops_replayed",
                             static_cast<int64_t>(ops.size()));
    }
  }

  std::unique_ptr<IterMapper> mapper = ph.mapper();
  mapper->configure(conf_.params);
  std::unique_ptr<IterReducer> combiner = ph.combiner ? ph.combiner() : nullptr;
  if (combiner) combiner->configure(conf_.params);
  CombineFn combine_body;
  if (combiner) {
    combine_body = [&combiner = *combiner](const Bytes& key,
                                           const std::vector<Bytes>& values,
                                           KVVec& out) {
      CollectEmitter emitter(out);
      combiner.reduce(key, values, emitter);
    };
  }

  // Routing, streaming, the barrier flush and the task's memory budget
  // (DESIGN.md §9, §10). Telemetry profiles phase 0's shuffle output.
  const bool profiled = is_phase0 && TelemetryRecorder::enabled();
  MapOutput out(ctx, {.task = i,
                      .generation = gen,
                      .reduces = red_row.row_fn(),
                      .aux = feeds_aux ? aux_row.row_fn() : MapOutput::Row(),
                      .partitioner = conf_.partitioner.get(),
                      .combine = std::move(combine_body),
                      .buffer_records = conf_.buffer_records,
                      .aggregated = conf_.aggregated_shuffle,
                      .budget_bytes = conf_.max_task_memory_bytes,
                      .profiled = profiled});

  static const Bytes kEmpty;

  // Per-iteration mapped-record count. The workset A/B benches read the
  // total to show the frontier shrinking (bulk maps every key, every
  // iteration); per-iteration frontier sizes come from the master's
  // workset_size series.
  int64_t iter_input_records = 0;

  // Every one2one input — a slice of the loaded state, a batch the sync
  // gate deferred, a live batch — is one batch: a hash join against the
  // static index (§3.2.2, one probe per record), then the output stage's
  // chance to ship.
  auto map_batch = [&](std::span<const KV> batch, int iter) {
    {
      ThreadCpuTimer cpu;
      iter_input_records += static_cast<int64_t>(batch.size());
      // The probe scope pins the store for the duration of the join:
      // find()'s pointers die on any mutation, and the debug assertion
      // inside apply_delta/build fires if a delta ever lands mid-join.
      StaticStore::ProbeScope probes(static_store);
      for (const KV& kv : batch) {
        const Bytes* sv = static_store.find(kv.key);
        mapper->map(kv.key, kv.value, sv ? *sv : kEmpty, out);
      }
      ctx.charge_compute(cpu.elapsed_ns());
    }
    out.after_batch(iter);
  };
  auto process_one2all = [&](KVVec& states) {
    ThreadCpuTimer cpu;
    iter_input_records += static_cast<int64_t>(static_store.records().size());
    // Deterministic order regardless of broadcast arrival interleaving.
    // Reduce pushes already arrive key-sorted per sender, so steady-state
    // iterations (single sender, or luckily ordered interleavings) skip the
    // sort; a stable key-only sort of an already key-sorted buffer is the
    // identity, so the guard never changes the outcome.
    if (!std::is_sorted(
            states.begin(), states.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; })) {
      sort_records(states, /*sort_values=*/false);
    }
    for (const KV& kv : static_store.records()) {
      mapper->map_all(kv.key, kv.value, states, out);
    }
    ctx.charge_compute(cpu.elapsed_ns());
  };

  // Returns true when an injected crash killed the task mid-shuffle.
  auto finish_iteration = [&](int iter) -> bool {
    {
      ThreadCpuTimer cpu;
      mapper->flush(out);
      ctx.charge_compute(cpu.elapsed_ns());
    }
    if (iter_input_records > 0) {
      cluster_.metrics().inc("imr_map_input_records", iter_input_records);
      iter_input_records = 0;
    }
    TraceSpan flush_span("shuffle_flush", ctx.vt(), iter, gen);
    out.flush(iter);
    // Injection point: died after flushing shuffle data but before the EOS
    // hand-offs (under the aggregated exchange, remote frames — EOS
    // included — are out, local reduces got nothing) — downstream reduces
    // hold a partial iteration that only the rollback's generation bump can
    // clear.
    if (dies_at(ctx, FaultPoint::kMidShuffle, i, iter, gen)) return true;
    out.close_iteration(iter);
    IMR_DEBUG << tag_ << ": map " << p << "/" << i << " shipped eos iter "
              << iter << " gen " << gen;
    return false;
  };

  int k = start_iter;
  // Sync gate, the same as the reduce's: iteration k runs once the master's
  // Continue(k-1) is in; the first iteration is free.
  int allowed = start_iter;
  // The iteration's whole input, when it does not stream in as batches: a
  // one2all broadcast, or the loaded state (initial or checkpoint) a phase-0
  // map begins from. `loaded` skips the collect step for the latter.
  KVVec whole;
  bool loaded = false;
  std::vector<NetMessage> deferred;  // sync: batches ahead of the gate
  // At a refining epoch's baseline the converged state is resident in the
  // reduces: the map loads nothing and collects the seed frontier the
  // paired reduce ships.
  auto load_state = [&](int ckpt_iter) {
    loaded = is_phase0 && !session_baseline_collect(ckpt_iter);
    whole = loaded ? load_map_state(ctx, i, ckpt_iter, one2all) : KVVec{};
  };
  load_state(start_iter - 1);

  auto ready = [&] { return !sync_gate || allowed >= k; };
  auto on_control = [&](const CtlMsg& ctl, NetMessage& msg) {
    if (ctl.type == CtlType::kContinue) {
      allowed = std::max(allowed, ctl.iteration + 1);
      return true;
    }
    if (ctl.type != CtlType::kDelta || ctl.generation != gen) return true;
    // Session update batch for this partition (master is blocked in its ack
    // barrier; every task is parked). The hooks observe the PRE-batch
    // store, then the batch is applied in one pass — exactly how a
    // respawned task replays it from the history.
    KVVec op_records = msg.take_records();
    std::vector<StaticDeltaOp> ops;
    ops.reserve(op_records.size());
    for (const KV& kv : op_records) ops.push_back(delta_op_from_kv(kv));
    KVVec seeds;
    bool refining = true;
    ThreadCpuTimer delta_cpu;
    for (const StaticDeltaOp& op : ops) {
      const Bytes* old_value = static_store.find(op.key);
      // Hook first: the verdict must be computed for every op so the seed
      // list is deterministic regardless of op order.
      bool op_refines = mapper->perturbed_keys(op, old_value, seeds);
      refining = op_refines && refining;
    }
    static_store.apply_delta(ops);
    ctx.charge_compute(delta_cpu.elapsed_ns());
    cluster_.metrics().inc("imr_delta_ops_applied",
                           static_cast<int64_t>(ops.size()));
    CtlMsg ack;
    ack.type = CtlType::kDeltaAck;
    ack.task = i;
    ack.iteration = ctl.iteration;
    ack.generation = gen;
    ack.session = ctl.session;
    ack.workset_size = refining ? 1 : 0;
    ack.state_records = static_cast<int64_t>(ops.size());
    task_send_ctl(ctx, ack, std::move(seeds));
    return true;
  };
  auto on_data = [&](NetMessage& msg) {
    if (one2all) {
      KVVec batch = msg.take_records();
      whole.insert(whole.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
    } else if (sync_gate && allowed < k) {
      deferred.push_back(std::move(msg));
    } else {
      // Asynchronous eager processing (§3.3): join+map immediately. The
      // records are only read, so the (possibly shared) payload is used in
      // place.
      map_batch(msg.records(), k);
    }
    return true;
  };

  while (true) {
    TraceSpan iter_span(workset ? "map_iter_frontier" : "map_iter", ctx.vt(),
                        k, gen);
    const int64_t iter_start_vt_ns = ctx.vt().now_ns();
    // Injection point: died while working on iteration k, before its shuffle
    // output exists.
    if (dies_at(ctx, FaultPoint::kMidMap, i, k, gen)) return;
    const Collected c =
        loaded ? Collected{}
               : inbox.collect(ctx.vt(), gen, k, ready, on_control, on_data);
    if (c.event == LoopEvent::kTerminate || c.event == LoopEvent::kKill) {
      IMR_DEBUG << tag_ << ": map " << p << "/" << i << " gen " << gen
                << " exiting at iter " << k;
      return;
    }
    if (c.event != LoopEvent::kIterationReady) {
      // Restart from the checkpoint (§3.4) or the session resume point: stale
      // queue contents are filtered by generation (rollback) or stale
      // iteration (resume); reload whatever input the restart point needs.
      // The static store is NOT touched — session mutations are loop-
      // invariant within an epoch and survive rollbacks.
      const bool resume = c.event == LoopEvent::kResume;
      TraceSpan rb_span(resume ? "session_resume" : "rollback", ctx.vt(),
                        c.restart_at, gen);
      IMR_DEBUG << tag_ << ": map " << p << "/" << i
                << (resume ? " resume after " : " rollback to ")
                << c.restart_at << " gen " << gen;
      out.reset(gen);
      deferred.clear();
      k = c.restart_at + 1;
      allowed = k;
      load_state(c.restart_at);
      continue;
    }

    loaded = false;
    if (!one2all) {
      const std::span<const KV> state(whole);
      const auto slice = static_cast<std::size_t>(conf_.buffer_records);
      for (std::size_t off = 0; off < state.size(); off += slice) {
        map_batch(state.subspan(off, std::min(slice, state.size() - off)), k);
      }
    } else if (!whole.empty()) {
      // An empty broadcast maps nothing: map_all UDFs such as K-means'
      // nearest() need state to map against.
      process_one2all(whole);
    }
    whole = KVVec{};
    for (const NetMessage& batch : deferred) map_batch(batch.records(), k);
    deferred.clear();
    if (finish_iteration(k)) return;
    if (profiled) {
      cluster_.telemetry().record_map_iter(
          i, gen, k, ctx.vt().now_ns() - iter_start_vt_ns);
    }
    IMR_DEBUG << tag_ << ": map " << p << "/" << i << " finished iter " << k
              << " gen " << gen;
    ++k;
  }
}

// ---------------------------------------------------------------------------
// Reduce task
// ---------------------------------------------------------------------------

void JobRun::run_reduce(int p, int i, int gen, int start_iter,
                        int64_t start_vt, int worker,
                        std::shared_ptr<Endpoint> ep) {
  const PhaseConf& ph = conf_.phases[static_cast<std::size_t>(p)];
  const bool last_phase = (p == P_ - 1);
  const bool is_phase0 = (p == 0);
  // Workset mode (DESIGN.md §7): this reduce reconciles each produced value
  // against the key's previous state via IterReducer::merge and ships ONLY
  // the keys whose state changed — the shipped set IS the next iteration's
  // frontier. conf validation guarantees single-phase one2one here.
  const bool workset = conf_.workset_mode;
  const int next_p = (p + 1) % P_;
  const Mapping next_mapping =
      conf_.phases[static_cast<std::size_t>(next_p)].mapping;
  const bool aux_from_reduce =
      conf_.aux && last_phase &&
      conf_.aux->source == AuxConf::Source::kReduceOutput;

  StashedInbox inbox(ep, T_);
  TaskContext ctx(cluster_, red_ep_name(p, i), worker, start_vt);
  EpRow next_maps(*this, EpKind::kMap, next_p);
  EpRow aux_row(*this, EpKind::kAuxMap);
  ctx.charge(cost_.task_init, TimeCategory::kTaskInit);
  cluster_.metrics().inc("imr_persistent_reduce_tasks");
  IMR_DEBUG << tag_ << ": reduce " << p << "/" << i << " gen " << gen
            << " starting at iter " << start_iter << " on worker "
            << ctx.worker();

  // Injection point: a respawned task (gen > 0 means it was just migrated or
  // recovered) dies on startup — a failure during recovery itself, the
  // cascading case of §3.4.2.
  if (gen > 0 && dies_at(ctx, FaultPoint::kMigration, i, start_iter, gen)) {
    return;
  }

  std::unique_ptr<IterReducer> reducer = ph.reducer();
  reducer->configure(conf_.params);

  // Memory governance (DESIGN.md §10): collected shuffle input is charged
  // against the budget as it arrives and spills as sorted runs once the
  // budget is crossed; iteration processing then merges the runs with the
  // in-memory tail — byte-identical output either way.
  ReduceInput input(
      ctx, strprintf("%s/r%d-t%d-g%d", tag_.c_str(), p, i, gen),
      conf_.max_task_memory_bytes, [&](int iter) {
        return cluster_.consume_fault(ctx.worker(), FaultPoint::kSpillWrite,
                                      iter, &ctx.vt());
      });
  // Buffers the output for a reduce-sourced auxiliary phase (§5.3).
  MapOutput aux_copy(ctx, {.task = i,
                           .generation = gen,
                           .aux = aux_from_reduce ? aux_row.row_fn()
                                                  : MapOutput::Row()});

  // Previous-iteration state for distance + checkpoints + final dump
  // (§3.1.2: "the reduce tasks save the output from two consecutive
  // iterations and calculate the distance").
  std::unordered_map<Bytes, Bytes> state_map;
  // Reads the part file of the checkpoint at `ckpt_iter`, or, at a session
  // epoch's base, of the converged baseline the quiesce dumped. A reset_all
  // epoch starts empty, exactly like a cold run over the mutated input.
  auto load_reduce_state = [&](int ckpt_iter) {
    state_map.clear();
    const SessionView sv = session_view();
    const bool at_base = sv.active && ckpt_iter == sv.base;
    if (ckpt_iter <= 0 || (at_base && sv.reset_all)) return;
    const std::string dir = at_base ? sv.baseline_dir : ckpt_path(ckpt_iter);
    for (KV& kv : ctx.dfs_read_all(dir + "/part-" + std::to_string(i))) {
      state_map[std::move(kv.key)] = std::move(kv.value);
    }
  };
  if (last_phase && start_iter > 1) load_reduce_state(start_iter - 1);
  // Set when the next iteration must open by shipping the session epoch's
  // seed frontier to the paired map (refining epochs only): at resume, and
  // again whenever a rollback lands exactly on the epoch baseline.
  bool pending_seed_ship =
      is_phase0 && session_baseline_collect(start_iter - 1);

  // Writes the state as this task's part file under `path`. A torn dump
  // (fault injection) writes only the first half of the entries.
  auto dump_state = [&](const std::string& path, VClock* clock,
                        TrafficCategory cat, bool torn = false) {
    const std::size_t n = torn ? state_map.size() / 2 : state_map.size();
    KVVec sorted;
    sorted.reserve(n);
    for (const auto& [key, value] : state_map) {
      if (sorted.size() >= n) break;
      sorted.emplace_back(key, value);
    }
    sort_records(sorted, /*sort_values=*/false);
    cluster_.dfs().write_file(path + "/part-" + std::to_string(i),
                              std::move(sorted), ctx.worker(), clock, cat);
    if (torn) cluster_.metrics().inc("imr_torn_checkpoints");
  };

  int k = start_iter;
  int allowed = start_iter;  // master Continue gate (phase-0 reduces)
  int64_t prev_end_vt = ctx.vt().now_ns();

  // The gate: iteration k may only be *processed* after the master accepted
  // iteration k-1 (deterministic termination, §3.1.2). Data may be fully
  // collected before the Continue arrives.
  auto ready = [&] { return !is_phase0 || allowed >= k; };
  auto on_control = [&](const CtlMsg& ctl, NetMessage&) {
    if (ctl.type == CtlType::kContinue) {
      allowed = std::max(allowed, ctl.iteration + 1);
      return true;
    }
    if (ctl.type != CtlType::kConvergedCkpt || ctl.generation != gen) {
      return true;
    }
    // Session quiesce: dump the epoch baseline checkpoint and ack, then keep
    // collecting (parked). Written on the task clock — the quiesce IS a
    // barrier, unlike periodic checkpoints.
    if (cluster_.consume_fault(ctx.worker(), FaultPoint::kCheckpointWrite,
                               ctl.iteration, &ctx.vt())) {
      // Torn baseline: half the state lands, then the task dies. Recovery
      // rolls the epoch back and re-quiesces; the retry overwrites the torn
      // part file.
      dump_state(converged_path(ctl.session), &ctx.vt(),
                 TrafficCategory::kCheckpoint, /*torn=*/true);
      fail_task(ctx, i, ctl.iteration, gen);
      return false;
    }
    dump_state(converged_path(ctl.session), &ctx.vt(),
               TrafficCategory::kCheckpoint);
    cluster_.metrics().inc("imr_converged_checkpoints");
    CtlMsg ack;
    ack.type = CtlType::kCkptAck;
    ack.task = i;
    ack.iteration = ctl.iteration;
    ack.generation = gen;
    ack.session = ctl.session;
    ack.state_records = static_cast<int64_t>(state_map.size());
    task_send_ctl(ctx, ack);
    return true;
  };
  // Adds shuffled input; false when an injected crash killed the task
  // mid-spill (the torn half-run is registered, so the unwind drops it).
  auto add = [&](KVVec batch) {
    if (input.add(std::move(batch), k, gen)) return true;
    fail_task(ctx, i, k, gen);
    return false;
  };
  auto on_data = [&](NetMessage& msg) {
    // An aggregated frame (DESIGN.md §9) carries every partition homed on
    // this worker and is shared with the sibling mailboxes, so our ranges
    // are copied out.
    return msg.control.empty() ? add(msg.take_records())
                               : MapOutput::for_each_frame_range(msg, i, add);
  };

  while (true) {
    TraceSpan iter_span("reduce_iter", ctx.vt(), k, gen);
    if (pending_seed_ship) {
      // Open the epoch: ship the seed frontier to the paired map, resolving
      // each seed against the converged state (the hook's fallback value
      // covers keys that have none yet). EOS follows immediately — the
      // seeds ARE the paired map's whole iteration-k input.
      pending_seed_ship = false;
      KVVec seeds = session_seeds_for(i);
      for (KV& kv : seeds) {
        auto it = state_map.find(kv.key);
        if (it != state_map.end()) kv.value = it->second;
      }
      cluster_.metrics().inc("imr_session_seed_records",
                             static_cast<int64_t>(seeds.size()));
      if (!seeds.empty()) {
        ctx.send_records(next_maps.at(i), std::move(seeds), i, k, gen,
                         TrafficCategory::kReduceToMap);
      }
      ctx.send_eos(next_maps.at(i), i, k, gen, TrafficCategory::kReduceToMap);
    }
    const Collected c =
        inbox.collect(ctx.vt(), gen, k, ready, on_control, on_data);
    if (c.event == LoopEvent::kKill) {
      IMR_DEBUG << tag_ << ": reduce " << p << "/" << i << " gen " << gen
                << " exiting at iter " << k;
      return;
    }
    if (c.event == LoopEvent::kTerminate) {
      if (last_phase) {
        // Dump the final state to DFS — the single output write of the whole
        // iterative run (§3.1, Fig. 1b).
        dump_state(conf_.output_path, &ctx.vt(), TrafficCategory::kDfsWrite);
        CtlMsg done_msg;
        done_msg.type = CtlType::kDone;
        done_msg.task = i;
        done_msg.iteration = k - 1;
        done_msg.generation = gen;
        done_msg.state_records = static_cast<int64_t>(state_map.size());
        task_send_ctl(ctx, done_msg);
      }
      return;
    }
    if (c.event != LoopEvent::kIterationReady) {
      const bool resume = c.event == LoopEvent::kResume;
      TraceSpan rb_span(resume ? "session_resume" : "rollback", ctx.vt(),
                        c.restart_at, gen);
      IMR_DEBUG << tag_ << ": reduce " << p << "/" << i
                << (resume ? " resume after " : " rollback to ")
                << c.restart_at << " gen " << gen;
      input.reset();
      aux_copy.reset(gen);
      k = c.restart_at + 1;
      allowed = k;
      // A resume is the rollback to the epoch base. A refining epoch skips
      // the reload: its live state is the baseline the quiesce just dumped.
      const bool refining_base = session_baseline_collect(c.restart_at);
      if (last_phase && !(resume && refining_base)) {
        load_reduce_state(c.restart_at);
      }
      pending_seed_ship = is_phase0 && refining_base;
      prev_end_vt = ctx.vt().now_ns();
      continue;
    }

    // --- process iteration k ---
    // Report the task's own processing span (§3.4.2's "processing time for
    // that iteration"): from all-inputs-ready to completion. Wall duration
    // would be useless for balancing — every reduce waits on the globally
    // slowest map, so wall times are nearly identical across workers.
    prev_end_vt = ctx.vt().now_ns();
    input.sort(k, gen);

    // Run the reduce function over the key groups, STREAMING the output to
    // the next phase's maps in buffer-sized batches as it is produced
    // (§3.3: "as the buffer size grows larger than a threshold, the data are
    // sent to the corresponding map task"). In asynchronous mode the paired
    // map joins and processes these early batches while this reduce is still
    // working on later keys — the genuine pipelining the async curves
    // measure. Distance and state bookkeeping happen inline.
    const int out_iter = next_p == 0 ? k + 1 : k;
    const TrafficCategory cat = next_mapping == Mapping::kOne2All
                                    ? TrafficCategory::kBroadcast
                                    : TrafficCategory::kReduceToMap;
    auto ship_batch = [&](KVVec batch) {
      if (next_mapping == Mapping::kOne2All) {
        // One shared payload for all T map tasks: the fabric enqueues T
        // handles to one records buffer (each charged its full wire size)
        // instead of T deep copies.
        NetMessage msg;
        msg.kind = NetMessage::Kind::kData;
        msg.from_task = i;
        msg.iteration = out_iter;
        msg.generation = gen;
        msg.set_records(std::move(batch));
        ctx.broadcast(next_maps.row(), msg, cat);
      } else {
        ctx.send_records(next_maps.at(i), std::move(batch), i, out_iter, gen,
                         cat);
      }
    };

    // Whether iteration k checkpoints — decided up front so the workset
    // changed-set can be collected inline while the groups stream through.
    const bool ckpt_due = last_phase && conf_.checkpoint_every > 0 &&
                          k % conf_.checkpoint_every == 0;
    KVVec ckpt_workset;  // changed records of a checkpoint iteration
    KVVec pending_batch;
    double local_distance = 0;
    int64_t changed_count = 0;
    ThreadCpuTimer cpu;
    KVVec produced;
    // Per-group body for either of ReduceInput's group passes — one body is
    // what keeps budgeted output byte-identical to the unlimited run (same
    // groups, same order, same batching thresholds).
    input.group([&](const Bytes& group_key,
                    const std::vector<Bytes>& group_values) {
      produced.clear();
      CollectEmitter group_emitter(produced);
      reducer->reduce(group_key, group_values, group_emitter);
      for (KV& kv : produced) {
        if (last_phase) {
          // Reconcile against the previous state (empty for a new key). Bulk
          // iteration is workset iteration where every key changed: workset
          // adds only the merge and the skip of an unchanged key, which then
          // enters no frontier, so the paired map never revisits it.
          auto [prev, fresh] = state_map.try_emplace(kv.key);
          if (workset) {
            kv.value = reducer->merge(kv.key, prev->second, kv.value);
          }
          local_distance += reducer->distance(kv.key, prev->second, kv.value);
          if (workset && !fresh && kv.value == prev->second) continue;
          prev->second = kv.value;
          ++changed_count;
          if (workset && ckpt_due) ckpt_workset.push_back(kv);
        }
        if (aux_from_reduce) aux_copy.side(kv.key, kv.value);
        pending_batch.push_back(std::move(kv));
      }
      if (pending_batch.size() >=
          static_cast<std::size_t>(conf_.buffer_records)) {
        // Charge the compute consumed so far, then ship — the batch's
        // availability time reflects the work done to produce it.
        ctx.charge_compute(cpu.elapsed_ns());
        cpu.reset();
        ship_batch(std::move(pending_batch));
        pending_batch = KVVec{};
      }
    });
    ctx.charge_compute(cpu.elapsed_ns());
    // Injection point: died mid reduce->map push — earlier batches of this
    // iteration are already out, the tail and all EOS markers are not.
    if (dies_at(ctx, FaultPoint::kStatePush, i, k, gen)) return;
    if (!pending_batch.empty()) ship_batch(std::move(pending_batch));
    if (next_mapping == Mapping::kOne2All) {
      for (int m = 0; m < T_; ++m) {
        ctx.send_eos(next_maps.at(m), i, out_iter, gen, cat);
      }
    } else {
      ctx.send_eos(next_maps.at(i), i, out_iter, gen, cat);
    }

    // Checkpoint (§3.4.1) — written in parallel with the iteration, so it is
    // charged on a detached clock and does not delay the pipeline.
    if (ckpt_due) {
      VClock parallel_clock(ctx.vt().now_ns());
      // Injection point: died DURING the checkpoint dump, leaving a torn
      // (truncated) part file behind. Because the Report for iteration k is
      // only sent after the dump, the master never collects all of k's
      // reports and so never advances last_ckpt to k — recovery always
      // restores the previous complete checkpoint, never this torn one
      // (§3.4.1 write-then-report ordering; pinned by a regression test).
      if (cluster_.consume_fault(ctx.worker(), FaultPoint::kCheckpointWrite, k,
                                 &ctx.vt())) {
        dump_state(ckpt_path(k), &parallel_clock, TrafficCategory::kCheckpoint,
                   /*torn=*/true);
        fail_task(ctx, i, k, gen);
        return;
      }
      {
        // The span lives on the detached parallel clock, so its end ts can
        // overrun the enclosing iteration span — nesting is by event order.
        TraceSpan ckpt_span("checkpoint", parallel_clock, k, gen);
        dump_state(ckpt_path(k), &parallel_clock,
                   TrafficCategory::kCheckpoint);
        if (workset) {
          // The changed-set rides along with the full state: recovery
          // restores the exact frontier of iteration k, so the replay is
          // record-identical to the fault-free run (replaying the full
          // state would double-apply updates for accumulative reducers).
          sort_records(ckpt_workset, /*sort_values=*/false);
          cluster_.dfs().write_file(
              ckpt_path(k) + "/workset-" + std::to_string(i),
              std::move(ckpt_workset), ctx.worker(), &parallel_clock,
              TrafficCategory::kCheckpoint);
        }
      }
      cluster_.metrics().inc("imr_checkpoints");
    }

    // Copy to a reduce-sourced auxiliary phase (§5.3).
    if (aux_from_reduce) aux_copy.close_iteration(k);

    // Injection point (§3.4.1, the classic one): died at the iteration
    // boundary, after all of iteration k's work. Consuming the event (rather
    // than querying it) guarantees a scheduled failure trips exactly once —
    // a stale schedule can never leak into a later job on the same cluster.
    if (dies_at(ctx, FaultPoint::kIterationBoundary, i, k, gen)) return;

    // Iteration completion report (§3.4.2).
    if (last_phase) {
      IMR_DEBUG << tag_ << ": reduce " << p << "/" << i << " reporting iter "
                << k << " gen " << gen;
      CtlMsg report;
      report.type = CtlType::kReport;
      report.task = i;
      report.iteration = k;
      report.generation = gen;
      report.worker = ctx.worker();
      report.distance = local_distance;
      report.duration_ns = ctx.vt().now_ns() - prev_end_vt;
      report.workset_size = workset ? changed_count : 0;
      if (TelemetryRecorder::enabled()) {
        int64_t sb = 0;
        for (const auto& [key, value] : state_map) {
          sb += static_cast<int64_t>(key.size() + value.size());
        }
        report.state_bytes = sb;
      }
      task_send_ctl(ctx, report);
    }
    prev_end_vt = ctx.vt().now_ns();
    ++k;
  }
}

// ---------------------------------------------------------------------------
// Auxiliary phase tasks (§5.3)
// ---------------------------------------------------------------------------

void JobRun::run_aux_map(int j, int gen, int start_iter,
                         std::shared_ptr<Endpoint> ep) {
  StashedInbox inbox(ep, T_);
  TaskContext ctx(cluster_, tag_ + "/aux/m" + std::to_string(j),
                  ep->home_worker(), 0);
  EpRow red_row(*this, EpKind::kAuxReduce);
  ctx.charge(cost_.task_init, TimeCategory::kTaskInit);

  std::unique_ptr<IterMapper> mapper = conf_.aux->mapper();
  mapper->configure(conf_.params);
  MapOutput out(ctx,
                {.task = j, .generation = gen, .reduces = red_row.row_fn()});
  static const Bytes kEmpty;

  int k = start_iter;
  while (true) {
    TraceSpan iter_span("aux_map_iter", ctx.vt(), k, gen);
    const Collected c = inbox.collect(
        ctx.vt(), gen, k, kUngated, kNoOwnControl, [&](NetMessage& msg) {
          ThreadCpuTimer cpu;
          for (const KV& kv : msg.records()) {
            mapper->map(kv.key, kv.value, kEmpty, out);
          }
          ctx.charge_compute(cpu.elapsed_ns());
          return true;
        });
    if (c.event == LoopEvent::kTerminate || c.event == LoopEvent::kKill) {
      return;
    }
    if (c.event != LoopEvent::kIterationReady) {
      // The main phase re-executes from the checkpoint and re-sends this
      // data under the new generation. Drop the partially collected
      // iteration — including whatever the eager mapper already absorbed —
      // and resume where the main phase resumes.
      mapper = conf_.aux->mapper();
      mapper->configure(conf_.params);
      out.reset(gen);
      k = c.restart_at + 1;
      continue;
    }
    {
      ThreadCpuTimer cpu;
      mapper->flush(out);
      ctx.charge_compute(cpu.elapsed_ns());
    }
    out.flush(k);
    out.close_iteration(k);
    ++k;
  }
}

void JobRun::run_aux_reduce(int j, int gen, int start_iter,
                            std::shared_ptr<Endpoint> ep) {
  StashedInbox inbox(ep, T_);  // one aux map per pair
  TaskContext ctx(cluster_, tag_ + "/aux/r" + std::to_string(j),
                  ep->home_worker(), 0);
  ctx.charge(cost_.task_init, TimeCategory::kTaskInit);

  std::unique_ptr<IterReducer> reducer = conf_.aux->reducer();
  reducer->configure(conf_.params);

  int k = start_iter;
  while (true) {
    TraceSpan iter_span("aux_reduce_iter", ctx.vt(), k, gen);
    KVVec records;
    const Collected c = inbox.collect(
        ctx.vt(), gen, k, kUngated, kNoOwnControl, [&](NetMessage& msg) {
          KVVec batch = msg.take_records();
          records.insert(records.end(),
                         std::make_move_iterator(batch.begin()),
                         std::make_move_iterator(batch.end()));
          return true;
        });
    if (c.event == LoopEvent::kTerminate || c.event == LoopEvent::kKill) {
      return;
    }
    if (c.event != LoopEvent::kIterationReady) {
      // Partial collections are dropped; the aux maps re-send everything
      // from the rollback point under the new generation.
      k = c.restart_at + 1;
      continue;
    }

    ThreadCpuTimer cpu;
    sort_records(records, /*sort_values=*/true);
    KVVec output;
    CollectEmitter out(output);
    GroupCursor groups(records);
    GroupValues group_vals;
    while (groups.next()) {
      reducer->reduce(groups.key(), group_vals.take(records, groups), out);
    }
    ctx.charge_compute(cpu.elapsed_ns());

    for (const KV& kv : output) {
      if (kv.key == kTerminateSignalKey) {
        CtlMsg sig;
        sig.type = CtlType::kAuxSignal;
        sig.task = j;
        sig.iteration = k;
        sig.generation = gen;
        task_send_ctl(ctx, sig);
        cluster_.metrics().inc("imr_aux_signals");
      }
    }
    ++k;
  }
}

// ---------------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------------

void JobRun::master_loop() {
  while (done_count_ < T_ && !quiesced_) {
    auto msg = master_ep_->receive(mvt_);
    if (!msg) break;
    if (msg->kind != NetMessage::Kind::kControl) continue;
    const CtlMsg ctl = CtlMsg::decode(msg->control);
    IMR_DEBUG << tag_ << ": master ctl type " << static_cast<int>(ctl.type)
              << " task " << ctl.task << " iter " << ctl.iteration << " gen "
              << ctl.generation << " (decided " << decided_ << " gen "
              << generation_ << ")";

    switch (ctl.type) {
      case CtlType::kDone:
        ++done_count_;
        // Output-consistency audit: the iteration each part file was dumped
        // at (the InvariantChecker asserts they all agree), plus the part's
        // record count for the state-conservation rule.
        report_.final_part_iterations.push_back(ctl.iteration);
        report_.final_state_records += ctl.state_records;
        break;
      case CtlType::kCkptAck:
        // Session quiesce barrier: all T_ baseline checkpoints written.
        if (ctl.generation == generation_ && ctl.session == session_id_ &&
            ++ckpt_acks_ >= T_) {
          quiesced_ = true;
        }
        break;
      case CtlType::kAuxSignal: {
        // A signal computed from pre-rollback data must not stop the
        // re-executed run.
        const bool current = ctl.generation == generation_;
        TraceRecorder::instance().instant(
            current ? "aux_signal_accepted" : "aux_signal_rejected",
            mvt_.now_ns(), ctl.iteration, ctl.generation);
        // Terminate at the NEXT decision boundary, not immediately: the
        // Continue for iteration `decided_` is already out, so reduce tasks
        // may legitimately be applying iteration decided_+1 — stopping
        // mid-flight would leave a mixed final state. Deferring keeps every
        // part file at the same iteration.
        if (current && !terminating_) {
          aux_stop_at_ = std::min(aux_stop_at_,
                                  std::max(decided_ + 1, ctl.iteration));
        }
        break;
      }
      case CtlType::kFailure:
        recover(ctl.worker, ctl.iteration);
        break;
      case CtlType::kReport: {
        if (terminating_ || ctl.generation != generation_) break;
        PendingIter& pi = pending_[ctl.iteration];
        pi.add(ctl, msg->vt_ready);
        if (ctl.iteration == decided_ + 1 && pi.reports >= T_) {
          decide(ctl.iteration);
        }
        break;
      }
      default:
        break;
    }
  }
}

void JobRun::decide(int k) {
  decided_ = k;
  const PendingIter it = std::move(pending_[k]);
  pending_.erase(k);
  if (conf_.checkpoint_every > 0 && k % conf_.checkpoint_every == 0) {
    last_ckpt_ = k;
  }
  IterationStat st;
  st.iteration = k;
  st.wall_ms_end = mvt_.now_ms();
  st.distance = it.distance;
  st.session = session_id_;
  if (conf_.workset_mode) st.workset_size = it.workset;
  report_.iterations.push_back(st);
  cluster_.metrics().histogram("iteration_wall_us").record(
      static_cast<int64_t>((st.wall_ms_end - last_decided_wall_ms_) * 1000.0));
  last_decided_wall_ms_ = st.wall_ms_end;
  if (TelemetryRecorder::enabled()) {
    // Master-side slice of the iteration record; the ledger's fabric
    // buckets (bytes, msgs, queue HWM, map durations) join in at finish(),
    // once the task threads are quiescent.
    IterTelemetry tel;
    tel.iteration = k;
    tel.generation = generation_;
    tel.session = session_id_;
    tel.vt_ms = mvt_.now_ms();
    tel.distance = it.distance;
    if (conf_.workset_mode) tel.workset = it.workset;
    int64_t max_dur = 0;
    for (const auto& [t, ns] : it.task_dur) {
      tel.task_ms[t] = static_cast<double>(ns) / 1e6;
      max_dur = std::max(max_dur, ns);
    }
    tel.reduce_ms = static_cast<double>(max_dur) / 1e6;
    tel.state_bytes = it.task_state_bytes;
    tel.straggler_task = it.straggler_task;
    tel.straggler_worker = it.straggler_worker;
    tel.straggler_ms = static_cast<double>(it.straggler_dur) / 1e6;
    telemetry_iters_.push_back(std::move(tel));
  }
  TraceRecorder::instance().instant("iteration_decided", mvt_.now_ns(), k,
                                    generation_);
  if (conf_.workset_mode) {
    TraceRecorder::instance().counter("workset_size", mvt_.now_ns(),
                                      it.workset);
  }
  cluster_.metrics().inc("imr_iterations");
  IMR_INFO << tag_ << " iteration " << k << " done at " << mvt_.now_ms()
           << " ms, distance " << it.distance;

  const Verdict v = verdict(it);
  if (v == Verdict::kContinue) {
    // Open iteration k+1: the phase-0 reduces' gate and, in sync mode, the
    // phase-0 maps'.
    CtlMsg cont;
    cont.type = CtlType::kContinue;
    cont.iteration = k;
    cont.generation = generation_;
    for (int idx = 0; idx < T_; ++idx) master_send(*red_ep(0, idx), cont);
    if (!conf_.async_maps && conf_.phases[0].mapping == Mapping::kOne2One) {
      for (int idx = 0; idx < T_; ++idx) master_send(*map_ep(0, idx), cont);
    }
    maybe_migrate(it);
    return;
  }
  report_.converged = v == Verdict::kConverged;
  if (!session_mode_) {
    terminate();
    return;
  }
  // Quiesce instead of terminate: every reduce dumps the epoch's
  // converged-<session> baseline and acks; the acks flip quiesced_ and the
  // loop returns with all tasks parked.
  ckpt_acks_ = 0;
  TraceRecorder::instance().instant("session_quiesce", mvt_.now_ns(), k,
                                    generation_);
  CtlMsg cc;
  cc.type = CtlType::kConvergedCkpt;
  cc.iteration = k;
  cc.generation = generation_;
  cc.session = session_id_;
  for (int idx = 0; idx < T_; ++idx) master_send(*red_ep(0, idx), cc);
}

// The termination policy (§3.1.2, DESIGN.md §7, §5.3), in precedence order:
// a met threshold or a drained workset on the last budgeted iteration is
// convergence; an aux signal on that iteration is not.
JobRun::Verdict JobRun::verdict(const PendingIter& it) const {
  // Drain: a workset run whose merged changed-record count hits zero has
  // reached its fixpoint — nothing would be mapped next iteration.
  if (conf_.workset_mode && it.workset == 0) return Verdict::kConverged;
  if (conf_.distance_threshold >= 0 &&
      it.distance < conf_.distance_threshold) {
    return Verdict::kConverged;
  }
  // Each session epoch gets a fresh budget counted from its resume base.
  if (decided_ - session_base_ >= conf_.max_iterations) {
    return Verdict::kBudgetSpent;
  }
  if (decided_ >= aux_stop_at_) return Verdict::kConverged;
  return Verdict::kContinue;
}

void JobRun::recover(int worker, int iteration) {
  // One recovery per failure: marking the worker dead filters the notices
  // of its other tasks.
  if (terminating_ || !cluster_.worker_alive(worker)) return;
  cluster_.mark_dead(worker);
  cluster_.metrics().inc("imr_recoveries");
  TraceRecorder::instance().instant("worker_failure", mvt_.now_ns(), iteration,
                                    generation_);
  IMR_WARN << tag_ << ": worker " << worker << " failed at iteration "
           << iteration << "; rolling back to checkpoint " << last_ckpt_;
  // All pairs on the dead worker move to the least-loaded live worker.
  std::vector<int> pairs;
  std::vector<int> targets;
  std::map<int, int> load;
  for (int idx = 0; idx < T_; ++idx) {
    int w = pair_worker(idx);
    if (w == worker) {
      pairs.push_back(idx);
    } else {
      ++load[w];
    }
  }
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    if (cluster_.worker_alive(w) && !load.count(w)) load[w] = 0;
  }
  for (std::size_t n = 0; n < pairs.size(); ++n) {
    auto best = std::min_element(
        load.begin(), load.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    IMR_CHECK_MSG(best != load.end(), "no live worker for recovery");
    targets.push_back(best->first);
    ++best->second;
  }
  TraceSpan recovery_span("recovery", mvt_, last_ckpt_, generation_);
  respawn_and_rollback(pairs, targets);
}

// Load balancing (§3.4.2): migrates the slowest worker's first pair to the
// fastest worker when iteration `it`'s durations deviate enough.
void JobRun::maybe_migrate(const PendingIter& it) {
  // Noise gate for the deviation test: the slowest worker must also exceed
  // the trimmed average by this much absolute virtual time. Iteration spans
  // carry measured thread-CPU time, so on a loaded machine a homogeneous
  // cluster can show large *relative* deviation on microsecond-scale
  // iterations; a migration (which costs a rollback) is only worth it when
  // the gap is material.
  constexpr double kMigrationMinGapMs = 25.0;
  if (!conf_.load_balancing || last_ckpt_ <= 0 ||
      decided_ - last_migration_iter_ < 2 || it.worker_dur.size() < 3) {
    return;
  }
  std::vector<std::pair<int, int64_t>> durs(it.worker_dur.begin(),
                                            it.worker_dur.end());
  std::sort(durs.begin(), durs.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  // Average excluding the longest and shortest, per the paper.
  double sum = 0;
  for (std::size_t n = 1; n + 1 < durs.size(); ++n) {
    sum += static_cast<double>(durs[n].second);
  }
  double avg = sum / static_cast<double>(durs.size() - 2);
  int slowest = durs.back().first;
  int fastest = durs.front().first;
  double gap_ms = (static_cast<double>(durs.back().second) - avg) / 1e6;
  double dev = (static_cast<double>(durs.back().second) - avg) / avg;
  IMR_DEBUG << tag_ << ": lb iter " << decided_ << " avg " << avg / 1e6
            << " ms, max " << static_cast<double>(durs.back().second) / 1e6
            << " ms (worker " << slowest << "), dev " << dev;
  if (!(avg > 0 && dev > conf_.migration_threshold &&
        gap_ms > kMigrationMinGapMs && cluster_.worker_alive(fastest) &&
        slowest != fastest)) {
    return;
  }
  int victim = -1;
  for (int idx = 0; idx < T_ && victim < 0; ++idx) {
    if (pair_worker(idx) == slowest) victim = idx;
  }
  if (victim < 0) return;
  IMR_INFO << tag_ << ": migrating pair " << victim << " from worker "
           << slowest << " to " << fastest << " (deviation " << dev << ")";
  cluster_.metrics().inc("imr_migrations");
  last_migration_iter_ = decided_;
  {
    TraceSpan mig_span("migration", mvt_, last_ckpt_, generation_);
    respawn_and_rollback({victim}, {fastest});
  }
  ++report_.migration_rollbacks;
}

void JobRun::terminate() {
  terminating_ = true;
  TraceRecorder::instance().instant("terminate", mvt_.now_ns(), decided_,
                                    generation_);
  CtlMsg t;
  t.type = CtlType::kTerminate;
  t.iteration = decided_;
  t.generation = generation_;
  for (auto& ep : all_endpoints()) master_send(*ep, t);
  cluster_.metrics().inc("imr_terminate_broadcasts");
}

void JobRun::respawn_and_rollback(const std::vector<int>& pairs,
                                  const std::vector<int>& targets) {
  ++generation_;
  const int ckpt = last_ckpt_;
  auto contains = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  // Aux reduces are not pair-homed; the ones stranded on a worker the master
  // no longer trusts respawn on the recovery targets.
  std::vector<int> moved_aux_reduces;
  for (int j = 0; j < aux_reduces_; ++j) {
    if (!cluster_.worker_alive(aux_red_ep(j)->home_worker())) {
      moved_aux_reduces.push_back(j);
    }
  }
  // Kill the old tasks of the moved pairs, aux maps included (their
  // endpoints are about to be replaced; the kill lands in the old objects).
  CtlMsg kill;
  kill.type = CtlType::kKill;
  kill.generation = generation_;
  for (int idx : pairs) {
    for (const auto& ep : pair_endpoints(idx)) master_send(*ep, kill);
  }
  for (int j : moved_aux_reduces) master_send(*aux_red_ep(j), kill);
  // Fresh endpoints homed on the new workers, then fresh threads.
  for (std::size_t n = 0; n < pairs.size(); ++n) {
    home_pair(pairs[n], targets[n]);
  }
  for (int j : moved_aux_reduces) {
    home_aux_reduce(j, targets[static_cast<std::size_t>(j) % targets.size()]);
  }
  for (int idx : pairs) spawn_pair(idx, generation_, ckpt + 1, mvt_.now_ns());
  for (int j : moved_aux_reduces) {
    auto aep = aux_red_ep(j);
    spawn([this, j, aep, g = generation_, s = ckpt + 1] {
      run_aux_reduce(j, g, s, aep);
    });
  }
  // Roll every other pair back to the checkpoint (§3.4.2 step 3), and the
  // surviving aux tasks with them — an aux task left at the old generation
  // would stash the re-sent data forever and never signal again.
  CtlMsg rb;
  rb.type = CtlType::kRollback;
  rb.iteration = ckpt;
  rb.generation = generation_;
  for (int idx = 0; idx < T_; ++idx) {
    if (contains(pairs, idx)) continue;
    for (const auto& ep : pair_endpoints(idx)) master_send(*ep, rb);
  }
  for (int j = 0; j < aux_reduces_; ++j) {
    if (!contains(moved_aux_reduces, j)) master_send(*aux_red_ep(j), rb);
  }
  pending_.clear();
  decided_ = ckpt;
  // A partially collected quiesce is void too: the epoch re-converges and
  // re-quiesces under the new generation (stale acks are gen-filtered).
  ckpt_acks_ = 0;
  // A convergence verdict reached under the old generation is void: the
  // rolled-back iterations will re-run and re-signal if still converged.
  aux_stop_at_ = INT32_MAX;
  // Iterations past the checkpoint will be re-reported under the new
  // generation; keeping the first-run entries would leave duplicate (and
  // non-monotonic) per-iteration stats in the report.
  while (!report_.iterations.empty() &&
         report_.iterations.back().iteration > ckpt) {
    report_.iterations.pop_back();
  }
  while (!telemetry_iters_.empty() &&
         telemetry_iters_.back().iteration > ckpt) {
    telemetry_iters_.pop_back();
  }
  report_.rollback_iterations.push_back(ckpt);
}

// ---------------------------------------------------------------------------
// execute
// ---------------------------------------------------------------------------

void JobRun::start() {
  conf_.validate();
  for (const auto& ph : conf_.phases) {
    if (ph.mapping == Mapping::kOne2All && ph.static_path.empty()) {
      throw ConfigError("one2all phase requires static data to map over");
    }
  }
  aux_reduces_ = conf_.aux ? conf_.aux->num_reduce_tasks : 0;
  const int aux_maps = conf_.aux ? T_ : 0;

  // Each phase's persistent tasks must fit the execution slots; phases of
  // the same iteration alternate activity and share them (§3.1.1), while an
  // aux phase runs concurrently with the main phase and needs its own.
  if (T_ + aux_maps > cluster_.map_slots()) {
    throw ConfigError(strprintf(
        "%d persistent map tasks exceed %d map slots", T_ + aux_maps,
        cluster_.map_slots()));
  }
  if (T_ + aux_reduces_ > cluster_.reduce_slots()) {
    throw ConfigError("persistent reduce tasks exceed reduce slots");
  }

  // Placement (§3.2.1 + DESIGN.md §9): each pair i (all phases) is placed by
  // plan_placement — round-robin i mod W without a partitioner (or when the
  // cost model makes locality free), partition-affinity-guided otherwise.
  // Map and paired reduce always share the worker so the reduce->map
  // hand-off stays local.
  if (conf_.partitioner &&
      conf_.partitioner->num_partitions() != static_cast<uint32_t>(T_)) {
    throw ConfigError(strprintf(
        "partitioner has %u partitions but the job runs %d task pairs",
        conf_.partitioner->num_partitions(), T_));
  }
  const std::vector<int> placement = plan_placement(
      T_, cluster_.num_workers(),
      conf_.partitioner ? conf_.partitioner->affinity()
                        : std::vector<int64_t>{},
      cost_);

  master_ep_ = cluster_.fabric().create_endpoint(tag_ + "/master", -1);
  const auto tasks = static_cast<std::size_t>(T_);
  const std::vector<std::shared_ptr<Endpoint>> row(tasks);
  pair_worker_.resize(tasks);
  map_ep_.assign(static_cast<std::size_t>(P_), row);
  red_ep_.assign(static_cast<std::size_t>(P_), row);
  aux_map_ep_.resize(static_cast<std::size_t>(aux_maps));
  aux_red_ep_.resize(static_cast<std::size_t>(aux_reduces_));
  for (int i = 0; i < T_; ++i) {
    home_pair(i, placement[static_cast<std::size_t>(i)]);
  }
  for (int j = 0; j < aux_reduces_; ++j) {
    home_aux_reduce(j, j % cluster_.num_workers());
  }

  // One-time job initialization (§3.1).
  // The master thread's trace timeline for this job; the "job" span brackets
  // everything from init to the post-join report.
  if (TelemetryRecorder::enabled()) cluster_.telemetry().begin_run();
  traced_ = TraceRecorder::enabled();
  if (traced_) {
    prev_track_ =
        TraceRecorder::instance().begin_thread_track(tag_ + "/master", -1);
  }
  job_span_.emplace("job", mvt_);
  mvt_.advance(cost_.job_init);
  cluster_.metrics().add_time(TimeCategory::kJobInit, cost_.job_init);
  cluster_.metrics().inc("jobs_submitted");
  const int64_t base_vt = mvt_.now_ns();

  for (int i = 0; i < T_; ++i) spawn_pair(i, /*gen=*/0, /*start_iter=*/1, base_vt);
  for (int j = 0; j < aux_reduces_; ++j) {
    auto aep = aux_red_ep(j);
    spawn([this, j, aep] {
      run_aux_reduce(j, /*gen=*/0, /*start_iter=*/1, aep);
    });
  }
  started_ = true;
}

void JobRun::run_master() {
  try {
    master_loop();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

RunReport JobRun::finish() {
  closed_ = true;
  // Teardown runs unconditionally, errors or not: a failed job must not
  // leave endpoints registered on the fabric or checkpoints in the DFS.
  // Make absolutely sure every task unblocks, then join.
  for (auto& ep : all_endpoints()) ep->close();
  master_ep_->close();
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_) t.join();
  }
  for (auto& ep : all_endpoints()) {
    cluster_.fabric().remove_endpoint(ep->name());
  }
  cluster_.fabric().remove_endpoint(master_ep_->name());
  // Release our own endpoint references so the destructors run NOW and any
  // undrained message lands on the discard ledger before finish() returns.
  // A plain run() destroys the JobRun immediately, but a session's JobRun
  // outlives close_session() inside the JobSession handle — without this the
  // ledger would read delivered > received + discarded until the session
  // object itself died.
  map_ep_.clear();
  red_ep_.clear();
  aux_map_ep_.clear();
  aux_red_ep_.clear();
  master_ep_.reset();

  // Checkpoints are recovery-scoped; a job garbage-collects its own
  // (including any torn part a mid-write crash left behind).
  cluster_.dfs().remove_prefix("ckpt/" + tag_ + "/");
  // Spill runs are task-scoped and every SpillSet abandons its remainder on
  // destruction, so with all task threads joined nothing should be left.
  // Sweep defensively anyway, keeping the ledger balanced (invariant 11).
  for (const std::string& path : cluster_.dfs().list("spill/" + tag_ + "/")) {
    cluster_.metrics().inc(
        "imr_spill_bytes_dropped",
        static_cast<int64_t>(cluster_.dfs().file_bytes(path)));
    cluster_.metrics().inc("imr_spill_runs_dropped");
    cluster_.metrics().inc("imr_spill_leaks");
  }
  cluster_.dfs().remove_prefix("spill/" + tag_ + "/");

  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_) std::rethrow_exception(first_error_);
  }

  report_.label = conf_.name + "/imapreduce";
  report_.total_wall_ms = mvt_.now_ms();
  report_.init_wall_ms =
      sim_to_ms(cost_.job_init) + sim_to_ms(cost_.task_init);
  report_.iterations_run =
      report_.iterations.empty() ? 0 : report_.iterations.back().iteration;
  report_.capture(cluster_.metrics());
  if (TelemetryRecorder::enabled()) {
    // Assemble the run's telemetry record now that every task thread is
    // joined: the ledger's buckets are quiescent, so the join is race-free.
    TelemetryLedger& led = cluster_.telemetry();
    RunTelemetry rt;
    rt.job = conf_.name;
    rt.workers = cluster_.num_workers();
    rt.tasks = T_;
    rt.iterations_run = report_.iterations_run;
    rt.converged = report_.converged;
    rt.session_epochs = session_id_;
    for (IterTelemetry& it : telemetry_iters_) led.fill_iter(it);
    rt.iters = std::move(telemetry_iters_);
    rt.matrix = led.snapshot_matrix();
    led.collect_profiles(&rt.hot_keys, &rt.hot_key_samples,
                         &rt.partition_records, &rt.skew);
    rt.static_bytes_per_task = led.static_bytes_per_task();
    for (int64_t b : rt.static_bytes_per_task) rt.static_bytes += b;
    rt.spill_bytes_written = cluster_.metrics().count("imr_spill_bytes_written");
    rt.spill_bytes_read = cluster_.metrics().count("imr_spill_bytes_read");
    rt.spill_bytes_dropped = cluster_.metrics().count("imr_spill_bytes_dropped");
    rt.spill_runs = cluster_.metrics().count("imr_spill_runs_written");
    rt.arena_hwm = cluster_.metrics().gauge("imr_arena_hwm");
    TelemetryRecorder::instance().append(std::move(rt));
  }
  if (job_span_) job_span_->end();
  if (traced_) TraceRecorder::instance().set_thread_track(prev_track_);
  return report_;
}

RunReport JobRun::execute() {
  start();
  run_master();
  return finish();
}

// ---------------------------------------------------------------------------
// Job sessions (DESIGN.md §8)
// ---------------------------------------------------------------------------

RunReport JobRun::epoch_report(const std::string& label) {
  RunReport r;
  r.label = label;
  r.total_wall_ms = mvt_.now_ms() - epoch_start_ms_;
  r.converged = report_.converged;
  std::size_t first = std::min(epoch_first_stat_, report_.iterations.size());
  r.iterations.assign(
      report_.iterations.begin() + static_cast<std::ptrdiff_t>(first),
      report_.iterations.end());
  r.iterations_run =
      r.iterations.empty() ? 0 : r.iterations.back().iteration - session_base_;
  // Delta against the epoch-start snapshot: the cluster's registry is
  // cumulative, so the subtraction scopes the byte/time totals to this
  // epoch. The same snapshot that ends this window becomes the next
  // window's base — one registry read per boundary, so consecutive epochs
  // tile with no gap that a concurrently landing charge (a parked map's
  // last async send) could fall into.
  r.capture(cluster_.metrics());
  RunReport window_end = r;
  r.subtract(epoch_base_report_);
  epoch_base_report_ = std::move(window_end);
  return r;
}

RunReport JobRun::converge() {
  epoch_base_report_.capture(cluster_.metrics());
  start();
  epoch_start_ms_ = 0;
  epoch_first_stat_ = 0;
  run_master();
  if (!quiesced_) {
    // A task error unwound the run before it could park; tear everything
    // down and surface the failure.
    finish();
    throw Error(tag_ + ": session run ended without quiescing");
  }
  last_report_ = epoch_report(conf_.name + "/session-initial");
  return last_report_;
}

RunReport JobRun::apply_update(const StaticDelta& delta) {
  IMR_CHECK_MSG(started_ && !closed_, "apply_update on a closed session");
  IMR_CHECK_MSG(quiesced_, "apply_update before the session quiesced");
  epoch_start_ms_ = mvt_.now_ms();
  // The epoch base was advanced by the previous epoch_report(): this window
  // opens exactly where that one closed, so the delta-routing sends below
  // and anything a parked task charged since quiesce land in THIS window.
  const int new_session = session_id_ + 1;
  TraceSpan update_span("session_update", mvt_, new_session, generation_);

  // Route ops to their owning map partitions — the same key_partition the
  // shuffle and the DFS partition reader use, so an op always lands on the
  // task whose store holds (or will hold) its key.
  std::vector<KVVec> routed(static_cast<std::size_t>(T_));
  for (const StaticDeltaOp& op : delta.ops) {
    routed[key_partition(op.key)].push_back(delta_op_to_kv(op));
  }
  cluster_.metrics().inc("imr_delta_ops_routed",
                         static_cast<int64_t>(delta.ops.size()));
  {
    // The history feeds recovery replay: a map respawned later in the
    // session rebuilds its store from the original input plus every batch.
    std::lock_guard<std::mutex> lock(session_mu_);
    delta_history_.push_back(delta.ops);
  }
  // Every map gets its slice — possibly empty; the ack doubles as the
  // barrier — applies it, and answers with seeds + a refining verdict.
  CtlMsg d;
  d.type = CtlType::kDelta;
  d.iteration = decided_;
  d.generation = generation_;
  d.session = new_session;
  for (int idx = 0; idx < T_; ++idx) {
    master_send(*map_ep(0, idx), d,
                std::move(routed[static_cast<std::size_t>(idx)]));
  }
  // Collect the T_ acks. Every task is parked, so no data, reports, or
  // failure notices race this loop; stale-session acks are filtered.
  int acks = 0;
  bool reset_all = false;
  KVVec all_seeds;
  while (acks < T_) {
    auto msg = master_ep_->receive(mvt_);
    IMR_CHECK_MSG(msg.has_value(), "master endpoint closed mid-update");
    if (msg->kind != NetMessage::Kind::kControl) continue;
    CtlMsg ctl = CtlMsg::decode(msg->control);
    if (ctl.type != CtlType::kDeltaAck || ctl.session != new_session ||
        ctl.generation != generation_) {
      continue;
    }
    ++acks;
    if (ctl.workset_size == 0) reset_all = true;
    KVVec seeds = msg->take_records();
    all_seeds.insert(all_seeds.end(), std::make_move_iterator(seeds.begin()),
                     std::make_move_iterator(seeds.end()));
  }
  // Deduplicate seeds (first-in-sorted-order wins, mirroring the static
  // store's duplicate-key rule) and bucket them by owning reduce partition.
  sort_records(all_seeds, /*sort_values=*/false);
  all_seeds.erase(
      std::unique(all_seeds.begin(), all_seeds.end(),
                  [](const KV& a, const KV& b) { return a.key == b.key; }),
      all_seeds.end());
  std::vector<KVVec> seeds_by_part(static_cast<std::size_t>(T_));
  if (!reset_all) {
    for (KV& kv : all_seeds) {
      seeds_by_part[key_partition(kv.key)].push_back(std::move(kv));
    }
  }

  // The drain tail polluted iteration decided_+1 (async maps processed it
  // as an empty iteration); the epoch resumes AFTER it, at base+1.
  const int base = decided_ + 1;
  // The drain tail also ran ahead under the old generation: an async map may
  // have finished iterations PAST base before this resume reaches it, leaving
  // its own eos in the reduces' stashes and consuming eos the new epoch will
  // re-send under the same iteration numbers. Resuming under a fresh
  // generation makes that residue distinguishable — every parked task adopts
  // the new generation from the kResume and the inbox filter then drops the
  // old epoch's traffic exactly like post-rollback stale messages.
  ++generation_;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    session_id_ = new_session;
    session_base_ = base;
    session_reset_all_ = reset_all;
    session_baseline_dir_ = converged_path(new_session - 1);
    epoch_seeds_ = std::move(seeds_by_part);
  }
  decided_ = base;
  last_ckpt_ = base;
  pending_.clear();
  aux_stop_at_ = INT32_MAX;
  quiesced_ = false;
  report_.converged = false;
  epoch_first_stat_ = report_.iterations.size();
  cluster_.metrics().inc("imr_session_epochs");
  if (reset_all) cluster_.metrics().inc("imr_session_resets");
  IMR_INFO << tag_ << ": session epoch " << new_session
           << " resuming at iter " << base + 1
           << (reset_all ? " (full replay)" : " (incremental)");

  CtlMsg rs;
  rs.type = CtlType::kResume;
  rs.iteration = base;
  rs.generation = generation_;
  rs.session = new_session;
  for (int idx = 0; idx < T_; ++idx) {
    master_send(*red_ep(0, idx), rs);
    master_send(*map_ep(0, idx), rs);
  }
  run_master();
  if (!quiesced_) {
    finish();
    throw Error(tag_ + ": session epoch ended without quiescing");
  }
  last_report_ = epoch_report(conf_.name + "/session-epoch-" +
                              std::to_string(new_session));
  return last_report_;
}

RunReport JobRun::close_session() {
  if (closed_) return report_;
  if (!started_) {
    closed_ = true;
    return report_;
  }
  quiesced_ = false;
  terminate();
  run_master();
  return finish();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

RunReport IterativeEngine::run(const IterJobConf& conf) {
  detail::JobRun run(cluster_, conf);
  return run.execute();
}

JobSession IterativeEngine::open_session(const IterJobConf& conf) {
  if (!conf.workset_mode) {
    throw ConfigError(
        "open_session requires a workset_mode job: incremental "
        "reconvergence is defined over frontiers");
  }
  auto run = std::make_unique<detail::JobRun>(cluster_, conf,
                                              /*session_mode=*/true);
  run->converge();
  return JobSession(std::move(run));
}

JobSession::JobSession(std::unique_ptr<detail::JobRun> run)
    : run_(std::move(run)) {}
JobSession::JobSession(JobSession&&) noexcept = default;
JobSession& JobSession::operator=(JobSession&&) noexcept = default;
JobSession::~JobSession() {
  if (run_ && !run_->closed()) {
    try {
      run_->close_session();
    } catch (...) {
      // Destructors must not throw; call close() explicitly to observe
      // teardown errors.
    }
  }
}
const RunReport& JobSession::last_report() const {
  return run_->last_report();
}
RunReport JobSession::apply_update(const StaticDelta& delta) {
  return run_->apply_update(delta);
}
RunReport JobSession::close() { return run_->close_session(); }
bool JobSession::closed() const { return !run_ || run_->closed(); }

}  // namespace imr
