#include "imapreduce/engine.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <span>
#include <thread>
#include <utility>

#include "cluster/placement.h"
#include "cluster/task_context.h"
#include "common/hash.h"
#include "common/key_index.h"
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

// The static value a map joins a key that has none with.
const Bytes kNoStatic;

// The job's phases, and the aux phase (§5.3), if any, as phase P: its mapper
// and reducer, no static data, no combiner.
std::vector<PhaseConf> with_aux_phase(const IterJobConf& conf) {
  std::vector<PhaseConf> phases = conf.phases;
  if (conf.aux) {
    phases.emplace_back();
    phases.back().mapper = conf.aux->mapper;
    phases.back().reducer = conf.aux->reducer;
  }
  return phases;
}

// Iteration-aware mailbox wrapper. In asynchronous execution a fast upstream
// task may legitimately run one iteration ahead and send data tagged with a
// FUTURE iteration while this task is still collecting the current one
// (§3.3: maps of iteration k+1 overlap reduces of iteration k). Such
// messages must be buffered, not discarded; only messages from an older
// generation or an already-completed iteration are stale.
class StashedInbox {
 public:
  // `senders`: the upstream tasks whose EOS completes an iteration's input.
  // A `gated` task may only *process* iteration k once the master accepted
  // k-1 with Continue(k-1) (deterministic termination, §3.1.2); data may be
  // fully collected before the Continue arrives.
  StashedInbox(std::shared_ptr<Endpoint> ep, int senders, bool gated = false)
      : ep_(std::move(ep)), senders_(senders), gated_(gated) {}

  // The per-iteration protocol of every persistent task (§3.1.2, §3.4):
  // gathers iteration k's input until each sender's EOS is in and the gate
  // is open. Data goes to on_data(msg), and control other than Continue,
  // Terminate, Kill, Rollback and Resume to on_control(ctl, msg); a handler
  // returns false when the task died inside it. A Rollback or Resume adopts
  // its generation into `gen`.
  template <typename OnControl, typename OnData>
  Collected collect(VClock& vt, int& gen, int k, OnControl on_control,
                    OnData on_data) {
    int eos_seen = 0;
    while (eos_seen < senders_ || !open(k)) {
      std::optional<NetMessage> msg = next(vt, gen, k);
      if (!msg) return {LoopEvent::kKill};
      if (msg->kind == NetMessage::Kind::kControl) {
        const CtlMsg ctl = CtlMsg::decode(msg->control);
        switch (ctl.type) {
          case CtlType::kContinue:
            allowed_ = std::max(allowed_, ctl.iteration + 1);
            continue;
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

  // Whether the gate lets iteration k be processed.
  bool open(int k) const { return !gated_ || allowed_ >= k; }
  // Opens the gate up to iteration k: the task's first, or a restart's.
  void open_to(int k) { allowed_ = k; }

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
  bool gated_;
  int allowed_ = 0;
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
        phases_(with_aux_phase(conf)),
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
  std::string ckpt_path(int iter) const {
    return "ckpt/" + tag_ + "/it" + std::to_string(iter);
  }
  // Session baseline checkpoint of epoch `session` (the state every task of
  // epoch session+1 resumes against). Lives under ckpt/<tag>/ so teardown's
  // prefix removal garbage-collects it with the periodic checkpoints.
  std::string converged_path(int session) const {
    return "ckpt/" + tag_ + "/converged-" + std::to_string(session);
  }
  // Whether iteration k writes a checkpoint (§3.4.1).
  bool checkpoints(int k) const {
    return conf_.checkpoint_every > 0 && k % conf_.checkpoint_every == 0;
  }
  // Task i's files in a state directory (a checkpoint, a converged
  // baseline, the output): its part of the state and, for a workset
  // checkpoint, the frontier that iteration produced.
  static std::string part_path(const std::string& dir, int i) {
    return dir + "/part-" + std::to_string(i);
  }
  static std::string workset_path(const std::string& dir, int i) {
    return dir + "/workset-" + std::to_string(i);
  }

  // --- mailbox registry (swapped under lock on respawn) ---
  // Every task's mailbox, keyed by role, phase and task index. Phase P_ is
  // the aux phase (§5.3): one aux map per pair and num_reduce_tasks aux
  // reduces.
  enum class Role { kMap, kReduce };
  struct Slot {
    Role role;
    int p;
    int i;
  };
  using Mailboxes = std::vector<std::shared_ptr<Endpoint>>;
  int slots(Role role, int p) const {
    if (p < P_) return T_;
    if (!conf_.aux) return 0;
    return role == Role::kMap ? T_ : conf_.aux->num_reduce_tasks;
  }
  // Row (role, p); ep_mu_ must be held. Every map row precedes every
  // reduce row.
  Mailboxes& row(Role role, int p) {
    const int r = (role == Role::kReduce ? P_ + 1 : 0) + p;
    return mailboxes_[static_cast<std::size_t>(r)];
  }
  std::shared_ptr<Endpoint> mailbox(const Slot& s) {
    std::lock_guard<std::mutex> lock(ep_mu_);
    return row(s.role, s.p)[static_cast<std::size_t>(s.i)];
  }
  // Where pair i lives: all its mailboxes share its phase-0 map's worker.
  int pair_worker(int i) { return mailbox({Role::kMap, 0, i})->home_worker(); }
  Mailboxes all_endpoints() {
    std::lock_guard<std::mutex> lock(ep_mu_);
    Mailboxes all;
    for (const Mailboxes& r : mailboxes_) {
      all.insert(all.end(), r.begin(), r.end());
    }
    return all;
  }
  // Every slot, pair by pair: the pair's map and reduce in each phase, its
  // aux map, then the aux reduce of the same index. Start-up and respawns
  // walk this order.
  template <typename Fn>
  void for_each_slot(Fn fn) const {
    for (int i = 0; i < std::max(T_, slots(Role::kReduce, P_)); ++i) {
      for (int p = 0; p <= P_; ++p) {
        for (Role role : {Role::kMap, Role::kReduce}) {
          if (i < slots(role, p)) fn(Slot{role, p, i});
        }
      }
    }
  }
  // Gives slot s a fresh mailbox homed on `worker`. Used at start and by
  // every respawn. Names: <tag>/p<p>/m<i> and /r<i>, <tag>/aux/m<i> and
  // /r<j>.
  void home(const Slot& s, int worker) {
    const std::string name =
        tag_ + (s.p == P_ ? "/aux" : "/p" + std::to_string(s.p)) +
        (s.role == Role::kMap ? "/m" : "/r") + std::to_string(s.i);
    std::lock_guard<std::mutex> lock(ep_mu_);
    row(s.role, s.p)[static_cast<std::size_t>(s.i)] =
        cluster_.fabric().create_endpoint(name, worker);
    // Publish the swap to the EpRow caches.
    ep_epoch_.fetch_add(1, std::memory_order_release);
  }

  // Generation-stamped cache of one mailbox row ([task index] for a fixed
  // role and phase). Task loops ship every flushed batch through a row;
  // looking each mailbox up under ep_mu_ per batch serializes all senders on
  // one global mutex. Instead the row is snapshotted once and re-snapshotted
  // only after a respawn swaps mailboxes and bumps ep_epoch_. A send racing
  // the swap can still land in an abandoned mailbox — exactly the race the
  // per-send lookup already had (the pointer was fetched before the swap) —
  // and is handled the same way: the receiver's generation check filters it,
  // or teardown declares it a discard.
  class EpRow {
   public:
    EpRow(JobRun& run, Role role, int p) : run_(run), role_(role), p_(p) {}

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
      row_ = run_.row(role_, p_);
      epoch_ = epoch;
    }

    JobRun& run_;
    Role role_;
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
  // A control message from the master about `iteration`, stamped with the
  // current generation.
  CtlMsg master_ctl(CtlType type, int iteration) const {
    CtlMsg ctl;
    ctl.type = type;
    ctl.iteration = iteration;
    ctl.generation = generation_;
    return ctl;
  }
  void master_send(Endpoint& to, const CtlMsg& ctl, KVVec records = {}) {
    cluster_.fabric().send(/*sender_worker=*/-1, mvt_, to,
                           control_message(ctl, -1, std::move(records)),
                           TrafficCategory::kControl);
  }
  void master_send_phase0(Role role, const CtlMsg& ctl) {
    for (int i = 0; i < T_; ++i) master_send(*mailbox({role, 0, i}), ctl);
  }
  void task_send_ctl(TaskContext& ctx, const CtlMsg& ctl,
                     KVVec records = {}) {
    ctx.send(*master_ep_, control_message(ctl, ctl.task, std::move(records)),
             TrafficCategory::kControl);
  }

  // --- task bodies ---
  // Where and when a task starts. The spawning thread resolves the mailbox
  // (see spawn_task); the task never looks it up, since a task thread may be
  // scheduled arbitrarily late. A task runs on its mailbox's worker.
  struct TaskStart {
    int p = 0;
    int i = 0;
    int gen = 0;
    int iteration = 1;
    int64_t vt = 0;
    std::shared_ptr<Endpoint> ep;
  };
  class PairTask;
  class MapTask;
  class ReduceTask;

  // --- master (thread-confined) ---
  // Dispatches the master's control messages until T Dones or a quiesce.
  void master_loop();
  // Records iteration k, whose reports are all in, and acts on its verdict:
  // quiesce, terminate, or one Continue(k).
  void decide(int k);
  // The delta barrier's last ack: resumes every parked task from the
  // perturbed-key frontier under a fresh generation (DESIGN.md §8).
  void open_epoch();
  enum class Verdict { kContinue, kConverged, kBudgetSpent };
  Verdict verdict(const IterationStat& it) const;
  // A failure notice (§3.4.1): moves the worker's pairs and rolls back.
  void recover(int worker, int iteration);
  void maybe_migrate(const IterationStat& it);
  // Every task stops; last-phase reduces dump the output and send Done.
  void terminate();
  // Respawns `pairs` on `targets`, and any aux reduce on a dead worker, and
  // rolls everything else back to last_ckpt_.
  void respawn_and_rollback(const std::vector<int>& pairs,
                            const std::vector<int>& targets);

  // execute() split so a session can re-enter the master loop per epoch:
  // start() validates/spawns once, run_master() wraps master_loop with error
  // capture, finish() tears everything down and fills the cumulative report.
  void start();
  void run_master();
  RunReport finish();
  // Report slice covering the current epoch only (since epoch_first_stat_),
  // which must have quiesced; kept as last_report_.
  RunReport epoch_report(const std::string& label);

  // Spawns the task that reads slot s's mailbox. A task's error is the
  // run's first error, or is dropped after it.
  void spawn_task(const Slot& s, int gen, int start_iter, int64_t start_vt);

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
  // Whether phase p's maps take the whole state, broadcast by every reduce
  // (one2all, §5.1).
  bool maps_all(int p) const {
    return phases_[static_cast<std::size_t>(p)].mapping == Mapping::kOne2All;
  }
  // The same routing as a MiniDfs::PartitionFn for partition loads.
  MiniDfs::PartitionFn partition_fn() const {
    return [this](BytesView key) { return key_partition(key); };
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
    bool at_base(int ckpt_iter) const { return active && ckpt_iter == base; }
    // At a refining epoch's base the converged state lives on in the
    // reduces, so a map restarts with NO pending input and waits for its
    // paired reduce's seed frontier.
    bool refining_base(int ckpt_iter) const {
      return at_base(ckpt_iter) && !reset_all;
    }
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
  const std::vector<PhaseConf> phases_;  // conf_.phases, then the aux phase
  const CostModel& cost_;
  std::string tag_;
  int P_;
  int T_;

  std::shared_ptr<Endpoint> master_ep_;
  std::mutex ep_mu_;
  std::vector<Mailboxes> mailboxes_;  // [role, p][i]; see row()
  // Bumped (after the swap, under ep_mu_) whenever mailboxes are replaced;
  // EpRow caches re-snapshot when they observe a new epoch.
  std::atomic<uint64_t> ep_epoch_{0};

  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  // Master-filled results.
  RunReport report_;
  RunReport last_report_;
  // Registry snapshot at the current epoch's start; epoch_report subtracts
  // it so each epoch's byte/time totals cover that epoch alone.
  RunReport epoch_base_report_;

  // --- master protocol state. Owned by the master thread; hoisted out of
  // master_loop so a session can leave the loop at quiesce and re-enter it
  // for the next epoch without losing the iteration ledger.
  std::map<int, IterationStat> pending_;  // iteration -> reports so far
  int generation_ = 0;
  int decided_ = 0;
  int last_ckpt_ = 0;
  int aux_stop_at_ = INT32_MAX;
  int last_migration_iter_ = 0;
  bool terminating_ = false;
  int done_count_ = 0;
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
  // The delta barrier, open from apply_update's Delta sends until
  // open_epoch, and its acks (count, refining verdict, seeds); empty between
  // barriers.
  bool delta_open_ = false;
  int delta_acks_ = 0;
  bool delta_reset_all_ = false;
  KVVec delta_seeds_;
  std::size_t epoch_first_stat_ = 0;
  double epoch_start_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Pair tasks
// ---------------------------------------------------------------------------

// What the map and the reduce of a pair share: identity, mailbox, clock and
// the failure protocol. A task is named after its mailbox, and so are its
// log lines. A task of phase P_ is an aux task (§5.3); it follows the
// generation protocol like any other, or the main phase's re-sends after a
// rollback would sit in its stash forever.
class JobRun::PairTask {
 public:
  PairTask(const PairTask&) = delete;
  PairTask& operator=(const PairTask&) = delete;

 protected:
  PairTask(JobRun& run, const TaskStart& at, int senders, bool gated)
      : run_(run),
        p_(at.p),
        i_(at.i),
        aux_(at.p == run.P_),
        gen_(at.gen),
        k_(at.iteration),
        inbox_(at.ep, senders, gated),
        ctx_(run.cluster_, at.ep->name(), at.ep->home_worker(), at.vt) {
    inbox_.open_to(k_);
    ctx_.charge(run.cost_.task_init, TimeCategory::kTaskInit);
    IMR_DEBUG << "gen " << gen_ << " starting at iter " << k_ << " on worker "
              << ctx_.worker();
  }
  // Restarts after c.restart_at: a rollback to the checkpoint (§3.4) or a
  // session resume. The returned span covers the caller's reload.
  TraceSpan begin_restart(const Collected& c) {
    const bool resume = c.event == LoopEvent::kResume;
    IMR_DEBUG << (resume ? "resume after " : "rollback to ") << c.restart_at
              << " gen " << gen_;
    k_ = c.restart_at + 1;
    inbox_.open_to(k_);
    return TraceSpan(resume ? "session_resume" : "rollback", ctx_.vt(),
                     c.restart_at, gen_);
  }
  // A control message from this task about `iteration`.
  CtlMsg message(CtlType type, int iteration) const {
    CtlMsg ctl;
    ctl.type = type;
    ctl.task = i_;
    ctl.iteration = iteration;
    ctl.generation = gen_;
    return ctl;
  }
  // An injected crash: the dying task's last breath is the failure notice
  // (the in-process stand-in for the master's heartbeat timeout). The
  // caller must return immediately after.
  void fail(int iteration) {
    IMR_DEBUG << "injected failure at iter " << iteration << " gen " << gen_
              << " on worker " << ctx_.worker();
    CtlMsg notice = message(CtlType::kFailure, iteration);
    notice.worker = ctx_.worker();
    run_.task_send_ctl(ctx_, notice);
  }
  // Consumes an injected crash at `point` in `iteration`, if one is due.
  // Aux tasks never consume a fault, so a schedule hits the main tasks only.
  bool crashes(FaultPoint point, int iteration) {
    return !aux_ && run_.cluster_.consume_fault(ctx_.worker(), point,
                                                iteration, &ctx_.vt());
  }
  // True when an injected crash at `point` killed the task in iteration k,
  // which has then sent its failure notice; the caller must return
  // immediately.
  bool dies_at(FaultPoint point) {
    const bool dies = crashes(point, k_);
    if (dies) fail(k_);
    return dies;
  }

  JobRun& run_;
  const int p_;
  const int i_;
  const bool aux_;
  int gen_;
  int k_;
  StashedInbox inbox_;
  TaskContext ctx_;
};

// ---------------------------------------------------------------------------
// Map task
// ---------------------------------------------------------------------------

// A persistent map task (§3.1): it loads and indexes its static partition
// once; each iteration it collects, joins and maps its input and ships the
// output. An aux map collects from all T main tasks, as under one2all.
class JobRun::MapTask : public PairTask {
 public:
  MapTask(JobRun& run, const TaskStart& at)
      : PairTask(run, at,
                 run.maps_all(at.p) || at.p == run.P_ ? run.T_ : 1,
                 at.p == 0 && !run.conf_.async_maps && !run.maps_all(at.p)) {
    run.cluster_.metrics().inc("imr_persistent_map_tasks");
    if (combiner_) combiner_->configure(run.conf_.params);
  }

  void run() {
    load_static();
    load_state(k_ - 1);
    while (true) {
      // Workset mode (DESIGN.md §7) maps the frontier the paired reduce
      // shipped; its iteration span is named apart so traces show frontier
      // iterations at a glance.
      TraceSpan iter_span(aux_                          ? "aux_map_iter"
                          : run_.conf_.workset_mode ? "map_iter_frontier"
                                                    : "map_iter",
                          ctx_.vt(), k_, gen_);
      const int64_t iter_start_vt_ns = ctx_.vt().now_ns();
      // Injection point: died while working on iteration k, before its shuffle
      // output exists.
      if (dies_at(FaultPoint::kMidMap)) return;
      const Collected c = loaded_ ? Collected{} : collect();
      if (c.event == LoopEvent::kTerminate || c.event == LoopEvent::kKill) {
        IMR_DEBUG << "gen " << gen_ << " exiting at iter " << k_;
        return;
      }
      if (c.event != LoopEvent::kIterationReady) {
        restart(c);
        continue;
      }
      if (!process()) return;
      if (profiled_) {
        run_.cluster_.telemetry().record_map_iter(
            gen_, k_, ctx_.vt().now_ns() - iter_start_vt_ns);
      }
      IMR_DEBUG << "finished iter " << k_ << " gen " << gen_;
      ++k_;
    }
  }

 private:
  // Routing, streaming, the barrier flush and the task's memory budget
  // (DESIGN.md §9, §10). Telemetry profiles phase 0's shuffle output. An aux
  // map routes by flat hash over the aux reduces, and never frames.
  MapOutput::Options output_options() {
    const IterJobConf& conf = run_.conf_;
    const bool feeds_aux = conf.aux && p_ == 0 &&
                           conf.aux->source == AuxConf::Source::kMapSideOutput;
    CombineFn combine;
    if (combiner_) {
      combine = [&combiner = *combiner_](const Bytes& key,
                                         const std::vector<Bytes>& values,
                                         KVVec& out) {
        CollectEmitter emitter(out);
        combiner.reduce(key, values, emitter);
      };
    }
    return {.task = i_,
            .generation = gen_,
            .reduces = red_row_.row_fn(),
            .aux = feeds_aux ? aux_row_.row_fn() : MapOutput::Row(),
            .partitioner = aux_ ? nullptr : conf.partitioner.get(),
            .combine = std::move(combine),
            .buffer_records = conf.buffer_records,
            .aggregated = !aux_ && conf.aggregated_shuffle,
            .budget_bytes = conf.max_task_memory_bytes,
            .profiled = profiled_};
  }
  // One-time static load (§3.2: loaded to local FS once). The partition is
  // sorted (for in-order map_all scans) and hash-indexed (StaticStore) here,
  // once per persistent task — every per-record join of every iteration then
  // costs one hash probe instead of a lower_bound's log n string compares.
  void load_static() {
    if (ph_.static_path.empty()) return;
    {
      KVVec static_data = run_.cluster_.dfs().read_partition(
          ph_.static_path, static_cast<uint32_t>(i_), run_.partition_fn(),
          ctx_.worker(), &ctx_.vt());
      if (TelemetryRecorder::enabled()) {
        run_.cluster_.telemetry().record_static_bytes(
            i_, static_cast<int64_t>(wire_size(static_data)));
      }
      TraceSpan index_span("join_index_build", ctx_.vt(), k_, gen_);
      ThreadCpuTimer index_cpu;
      sort_records(static_data, /*sort_values=*/false);
      static_store_.build(std::move(static_data));
      ctx_.charge_compute(index_cpu.elapsed_ns(), TimeCategory::kSort);
    }
    if (!run_.session_mode_) return;
    // A task respawned mid-session rebuilt its store from the ORIGINAL
    // static input above; catch up by replaying every delta batch the
    // session has applied so far. Fresh gen-0 tasks see an empty history.
    for (const auto& ops : run_.session_history_for(i_)) {
      if (ops.empty()) continue;
      ThreadCpuTimer replay_cpu;
      static_store_.apply_delta(ops);
      ctx_.charge_compute(replay_cpu.elapsed_ns());
      run_.cluster_.metrics().inc("imr_delta_ops_replayed",
                                  static_cast<int64_t>(ops.size()));
    }
  }
  // Loads the phase-0 state input for iteration `ckpt_iter + 1`. At a
  // refining epoch's base the converged state is resident in the reduces:
  // the map loads nothing and collects the seed frontier the paired reduce
  // ships.
  void load_state(int ckpt_iter) {
    const SessionView sv = run_.session_view();
    loaded_ = p_ == 0 && !sv.refining_base(ckpt_iter);
    whole_ = KVVec{};
    if (!loaded_) return;
    // A reset_all epoch's baseline is the ORIGINAL initial state: the epoch
    // replays the whole iteration (over the mutated static data) in place,
    // which is what makes a non-refining delta's reconvergence byte-identical
    // to a cold run.
    if (sv.at_base(ckpt_iter) && sv.reset_all) ckpt_iter = 0;
    const IterJobConf& conf = run_.conf_;
    if (ckpt_iter <= 0) {
      whole_ = one2all_ ? ctx_.dfs_read_all(conf.state_path)
                        : run_.cluster_.dfs().read_partition(
                              conf.state_path, static_cast<uint32_t>(i_),
                              run_.partition_fn(), ctx_.worker(), &ctx_.vt());
      return;
    }
    // Workset mode restores the exact FRONTIER the checkpoint iteration
    // produced, not the full state: replaying the full state would revisit
    // every key (re-applying updates an accumulative reducer already
    // absorbed) and make the recovered run diverge from the fault-free one.
    const std::string dir = run_.ckpt_path(ckpt_iter);
    whole_ = ctx_.dfs_read_all(conf.workset_mode ? workset_path(dir, i_)
                                                 : part_path(dir, i_));
  }

  Collected collect() {
    return inbox_.collect(
        ctx_.vt(), gen_, k_,
        [this](const CtlMsg& ctl, NetMessage& msg) {
          return ctl.type != CtlType::kDelta || ctl.generation != gen_ ||
                 apply_delta(ctl, msg.take_records());
        },
        [this](NetMessage& msg) {
          if (one2all_) {
            KVVec batch = msg.take_records();
            whole_.insert(whole_.end(), std::make_move_iterator(batch.begin()),
                          std::make_move_iterator(batch.end()));
          } else if (!inbox_.open(k_)) {
            deferred_.push_back(std::move(msg));
          } else {
            // Asynchronous eager processing (§3.3): join+map immediately.
            // The records are only read, so the (possibly shared) payload is
            // used in place.
            map_batch(msg.records());
          }
          return true;
        });
  }
  // Session update batch for this partition (master is blocked in its ack
  // barrier; every task is parked). The hooks observe the PRE-batch store,
  // then the batch is applied in one pass — exactly how a respawned task
  // replays it from the history. False when an injected crash killed the
  // task as it applied the batch.
  bool apply_delta(const CtlMsg& ctl, KVVec op_records) {
    if (crashes(FaultPoint::kDeltaApply, ctl.iteration)) {
      fail(ctl.iteration);
      return false;
    }
    std::vector<StaticDeltaOp> ops;
    ops.reserve(op_records.size());
    for (const KV& kv : op_records) ops.push_back(delta_op_from_kv(kv));
    KVVec seeds;
    bool refining = true;
    ThreadCpuTimer delta_cpu;
    for (const StaticDeltaOp& op : ops) {
      const Bytes* old_value = static_store_.find(op.key);
      // Hook first: the verdict must be computed for every op so the seed
      // list is deterministic regardless of op order.
      bool op_refines = mapper_->perturbed_keys(op, old_value, seeds);
      refining = op_refines && refining;
    }
    static_store_.apply_delta(ops);
    ctx_.charge_compute(delta_cpu.elapsed_ns());
    run_.cluster_.metrics().inc("imr_delta_ops_applied",
                                static_cast<int64_t>(ops.size()));
    CtlMsg ack = message(CtlType::kDeltaAck, ctl.iteration);
    ack.session = ctl.session;
    ack.workset_size = refining ? 1 : 0;
    ack.state_records = static_cast<int64_t>(ops.size());
    run_.task_send_ctl(ctx_, ack, std::move(seeds));
    return true;
  }
  // Stale queue contents are filtered by generation (rollback) or stale
  // iteration (resume); reload whatever input the restart point needs. The
  // mapper starts fresh, as a respawned task's does, so nothing it absorbed
  // from the dropped iteration survives. The static store is NOT touched —
  // session mutations are loop-invariant within an epoch and survive
  // rollbacks.
  void restart(const Collected& c) {
    const TraceSpan span = begin_restart(c);
    mapper_ = new_mapper();
    out_.reset(gen_);
    deferred_.clear();
    load_state(c.restart_at);
  }
  // Every one2one input — a slice of the loaded state, a batch the sync
  // gate deferred, a live batch — is one batch: a hash join against the
  // static index (§3.2.2, one probe per record), then the output stage's
  // chance to ship.
  void map_batch(std::span<const KV> batch) {
    {
      ThreadCpuTimer cpu;
      input_records_ += static_cast<int64_t>(batch.size());
      // The probe scope pins the store for the duration of the join:
      // find()'s pointers die on any mutation, and the debug assertion
      // inside apply_delta/build fires if a delta ever lands mid-join.
      StaticStore::ProbeScope probes(static_store_);
      for (const KV& kv : batch) {
        const Bytes* sv = static_store_.find(kv.key);
        mapper_->map(kv.key, kv.value, sv ? *sv : kNoStatic, out_);
      }
      ctx_.charge_compute(cpu.elapsed_ns());
    }
    out_.after_batch(k_);
  }
  // One2all (§5.1): map_all scans the static partition against the whole
  // broadcast state.
  void map_all() {
    ThreadCpuTimer cpu;
    input_records_ += static_cast<int64_t>(static_store_.records().size());
    // Deterministic order regardless of broadcast arrival interleaving.
    // Reduce pushes already arrive key-sorted per sender, so steady-state
    // iterations (single sender, or luckily ordered interleavings) skip the
    // sort; a stable key-only sort of an already key-sorted buffer is the
    // identity, so the guard never changes the outcome.
    if (!std::is_sorted(
            whole_.begin(), whole_.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; })) {
      sort_records(whole_, /*sort_values=*/false);
    }
    for (const KV& kv : static_store_.records()) {
      mapper_->map_all(kv.key, kv.value, whole_, out_);
    }
    ctx_.charge_compute(cpu.elapsed_ns());
  }
  // Maps iteration k's input and ships the output. False when an injected
  // crash killed the task mid-shuffle.
  bool process() {
    loaded_ = false;
    if (!one2all_) {
      const std::span<const KV> state(whole_);
      const auto slice = static_cast<std::size_t>(run_.conf_.buffer_records);
      for (std::size_t off = 0; off < state.size(); off += slice) {
        map_batch(state.subspan(off, std::min(slice, state.size() - off)));
      }
    } else if (!whole_.empty()) {
      // An empty broadcast maps nothing: map_all UDFs such as K-means'
      // nearest() need state to map against.
      map_all();
    }
    whole_ = KVVec{};
    for (const NetMessage& batch : deferred_) map_batch(batch.records());
    deferred_.clear();
    {
      ThreadCpuTimer cpu;
      mapper_->flush(out_);
      ctx_.charge_compute(cpu.elapsed_ns());
    }
    if (input_records_ > 0) {
      run_.cluster_.metrics().inc("imr_map_input_records", input_records_);
      input_records_ = 0;
    }
    TraceSpan flush_span("shuffle_flush", ctx_.vt(), k_, gen_);
    out_.flush(k_);
    // Injection point: died after flushing shuffle data but before the EOS
    // hand-offs (under the aggregated exchange, remote frames — EOS
    // included — are out, local reduces got nothing) — downstream reduces
    // hold a partial iteration that only the rollback's generation bump can
    // clear.
    if (dies_at(FaultPoint::kMidShuffle)) return false;
    out_.close_iteration(k_);
    IMR_DEBUG << "shipped eos iter " << k_ << " gen " << gen_;
    return true;
  }

  std::unique_ptr<IterMapper> new_mapper() const {
    std::unique_ptr<IterMapper> mapper = ph_.mapper();
    mapper->configure(run_.conf_.params);
    return mapper;
  }

  const PhaseConf& ph_ = run_.phases_[static_cast<std::size_t>(p_)];
  const bool one2all_ = run_.maps_all(p_);
  const bool profiled_ = p_ == 0 && TelemetryRecorder::enabled();
  EpRow red_row_{run_, Role::kReduce, p_};
  EpRow aux_row_{run_, Role::kMap, run_.P_};
  StaticStore static_store_;
  std::unique_ptr<IterMapper> mapper_ = new_mapper();
  std::unique_ptr<IterReducer> combiner_ =
      ph_.combiner ? ph_.combiner() : nullptr;
  MapOutput out_{ctx_, output_options()};
  // Per-iteration mapped-record count. The workset A/B benches read the
  // total to show the frontier shrinking (bulk maps every key, every
  // iteration); per-iteration frontier sizes come from the master's
  // workset_size series.
  int64_t input_records_ = 0;
  // The iteration's whole input, when it does not stream in as batches: a
  // one2all broadcast, or the loaded state (initial or checkpoint) a phase-0
  // map begins from. `loaded_` skips the collect step for the latter.
  KVVec whole_;
  bool loaded_ = false;
  std::vector<NetMessage> deferred_;  // sync: batches ahead of the gate
};

// ---------------------------------------------------------------------------
// Reduce task
// ---------------------------------------------------------------------------

// A persistent reduce task (§3.1): each iteration it collects the shuffle,
// reduces it, and streams the output to the next phase's maps (§3.2.1); the
// last phase also reconciles, checkpoints and reports. An aux reduce's
// output is the aux phase's verdict (§5.3) and goes to the master instead.
class JobRun::ReduceTask : public PairTask {
 public:
  ReduceTask(JobRun& run, const TaskStart& at)
      : PairTask(run, at, run.T_, /*gated=*/at.p == 0) {
    run.cluster_.metrics().inc("imr_persistent_reduce_tasks");
    reducer_->configure(run.conf_.params);
  }

  void run() {
    // Injection point: a respawned task (gen > 0 means it was just migrated or
    // recovered) dies on startup — a failure during recovery itself, the
    // cascading case of §3.4.2.
    if (gen_ > 0 && dies_at(FaultPoint::kMigration)) return;
    load_state(k_ - 1, /*resume=*/false);
    while (true) {
      TraceSpan iter_span(aux_ ? "aux_reduce_iter" : "reduce_iter", ctx_.vt(),
                          k_, gen_);
      if (std::exchange(seed_ship_, false)) ship_seeds();
      const Collected c = collect();
      if (c.event == LoopEvent::kKill) {
        IMR_DEBUG << "gen " << gen_ << " exiting at iter " << k_;
        return;
      }
      if (c.event == LoopEvent::kTerminate) {
        if (last_phase_) dump_output();
        return;
      }
      if (c.event != LoopEvent::kIterationReady) {
        restart(c);
        continue;
      }
      if (!process()) return;
      ++k_;
    }
  }

 private:
  // The state a (re)start after `ckpt_iter` resumes from: the part file of
  // that checkpoint or, at a session epoch's base, of the converged baseline
  // the quiesce dumped. A reset_all epoch starts empty, exactly like a cold
  // run over the mutated input. A resume is the rollback to the epoch base;
  // a refining epoch skips the reload, since its live state is the baseline
  // the quiesce just dumped, and opens by shipping its seeds.
  void load_state(int ckpt_iter, bool resume) {
    const SessionView sv = run_.session_view();
    seed_ship_ = p_ == 0 && sv.refining_base(ckpt_iter);
    if (!last_phase_ || (resume && sv.refining_base(ckpt_iter))) return;
    state_.clear();
    const bool at_base = sv.at_base(ckpt_iter);
    if (ckpt_iter <= 0 || (at_base && sv.reset_all)) return;
    const std::string dir =
        at_base ? sv.baseline_dir : run_.ckpt_path(ckpt_iter);
    KVVec part = ctx_.dfs_read_all(part_path(dir, i_));
    state_.reserve(part.size());
    for (KV& kv : part) {
      state_.find_or_insert(kv.key).first.value = std::move(kv.value);
    }
  }
  // Writes the state as this task's part file under `dir`. A torn dump
  // (fault injection) writes only the first half of the entries.
  void dump_state(const std::string& dir, VClock& clock, TrafficCategory cat,
                  bool torn = false) {
    const std::size_t n = torn ? state_.size() / 2 : state_.size();
    KVVec sorted(state_.begin(),
                 state_.begin() + static_cast<std::ptrdiff_t>(n));
    sort_records(sorted, /*sort_values=*/false);
    run_.cluster_.dfs().write_file(part_path(dir, i_), std::move(sorted),
                                   ctx_.worker(), &clock, cat);
  }
  // Dumps a checkpoint, periodic or a session's converged baseline. True
  // when an injected crash tore it: half the state landed, and the task has
  // sent its failure notice and must return.
  bool dump_dies(const std::string& dir, VClock& clock, int iteration) {
    const bool torn = crashes(FaultPoint::kCheckpointWrite, iteration);
    dump_state(dir, clock, TrafficCategory::kCheckpoint, torn);
    if (!torn) return false;
    run_.cluster_.metrics().inc("imr_torn_checkpoints");
    fail(iteration);
    return true;
  }

  Collected collect() {
    return inbox_.collect(
        ctx_.vt(), gen_, k_,
        [this](const CtlMsg& ctl, NetMessage&) {
          return ctl.type != CtlType::kConvergedCkpt ||
                 ctl.generation != gen_ || quiesce(ctl);
        },
        [this](NetMessage& msg) {
          // An aggregated frame (DESIGN.md §9) carries every partition homed
          // on this worker and is shared with the sibling mailboxes, so our
          // ranges are copied out.
          auto add = [this](KVVec batch) {
            if (input_.add(std::move(batch), k_, gen_)) return true;
            // Died mid-spill; the torn half-run is registered, so the
            // unwind drops it.
            fail(k_);
            return false;
          };
          return msg.control.empty()
                     ? add(msg.take_records())
                     : MapOutput::for_each_frame_range(msg, i_, add);
        });
  }
  // Session quiesce: dump the epoch baseline checkpoint and ack, then keep
  // collecting (parked). Written on the task clock — the quiesce IS a
  // barrier, unlike periodic checkpoints. A torn baseline rolls the epoch
  // back, and it re-quiesces. False when the dump killed the task.
  bool quiesce(const CtlMsg& ctl) {
    if (dump_dies(run_.converged_path(ctl.session), ctx_.vt(),
                  ctl.iteration)) {
      return false;
    }
    run_.cluster_.metrics().inc("imr_converged_checkpoints");
    CtlMsg ack = message(CtlType::kCkptAck, ctl.iteration);
    ack.session = ctl.session;
    ack.state_records = static_cast<int64_t>(state_.size());
    run_.task_send_ctl(ctx_, ack);
    return true;
  }

  void restart(const Collected& c) {
    const TraceSpan span = begin_restart(c);
    input_.reset();
    aux_copy_.reset(gen_);
    load_state(c.restart_at, c.event == LoopEvent::kResume);
  }
  // The one path to the next phase's maps (§3.2.1): a batch goes to the
  // paired map, or under one2all as one shared payload to all T maps — the
  // fabric enqueues T handles to one records buffer (each charged its full
  // wire size) instead of T deep copies. An aux reduce turns each terminate
  // signal record into an AuxSignal to the master.
  void ship(KVVec batch, int iteration) {
    if (aux_) {
      for (const KV& kv : batch) {
        if (kv.key != kTerminateSignalKey) continue;
        run_.task_send_ctl(ctx_, message(CtlType::kAuxSignal, iteration));
        run_.cluster_.metrics().inc("imr_aux_signals");
      }
      return;
    }
    if (batch.empty()) return;
    NetMessage msg;
    msg.kind = NetMessage::Kind::kData;
    msg.from_task = i_;
    msg.iteration = iteration;
    msg.generation = gen_;
    msg.set_records(std::move(batch));
    if (broadcast_) {
      ctx_.broadcast(next_maps_.row(), msg, TrafficCategory::kBroadcast);
    } else {
      ctx_.send(next_maps_.at(i_), std::move(msg),
                TrafficCategory::kReduceToMap);
    }
  }
  // Ends `iteration`'s stream at every map ship() reaches.
  void close(int iteration) {
    if (aux_) return;
    if (!broadcast_) {
      ctx_.send_eos(next_maps_.at(i_), i_, iteration, gen_,
                    TrafficCategory::kReduceToMap);
      return;
    }
    for (const auto& map : next_maps_.row()) {
      ctx_.send_eos(*map, i_, iteration, gen_, TrafficCategory::kBroadcast);
    }
  }
  // Opens a refining session epoch: the seed frontier, each seed resolved
  // against the converged state (the hook's fallback value covers keys that
  // have none yet), is the paired map's whole iteration-k input.
  void ship_seeds() {
    KVVec seeds = run_.session_seeds_for(i_);
    for (KV& kv : seeds) {
      if (const KV* prev = state_.find(kv.key)) kv.value = prev->value;
    }
    run_.cluster_.metrics().inc("imr_session_seed_records",
                                static_cast<int64_t>(seeds.size()));
    ship(std::move(seeds), k_);
    close(k_);
  }
  // Reconciles one produced record against its key's previous state (empty
  // for a new key). Bulk iteration is workset iteration where every key
  // changed: workset (DESIGN.md §7) adds only the merge and the skip of an
  // unchanged key, which then enters no frontier, so the paired map never
  // revisits it. False for such a key.
  bool reconcile(KV& kv) {
    auto [prev, fresh] = state_.find_or_insert(kv.key);
    if (workset_) kv.value = reducer_->merge(kv.key, prev.value, kv.value);
    distance_ += reducer_->distance(kv.key, prev.value, kv.value);
    if (workset_ && !fresh && kv.value == prev.value) return false;
    prev.value = kv.value;
    ++changed_;
    if (workset_ && ckpt_due_) ckpt_workset_.push_back(kv);
    return true;
  }
  // The body of either of ReduceInput's group passes — one body is what
  // keeps budgeted output byte-identical to the unlimited run (same groups,
  // same order, same batching thresholds). Output STREAMS to the next
  // phase's maps in buffer-sized batches as it is produced (§3.3: "as the
  // buffer size grows larger than a threshold, the data are sent to the
  // corresponding map task"), so in asynchronous mode the paired map joins
  // early batches while this reduce works on later keys.
  void reduce_group(const Bytes& key, const std::vector<Bytes>& values) {
    produced_.clear();
    CollectEmitter emitter(produced_);
    reducer_->reduce(key, values, emitter);
    for (KV& kv : produced_) {
      if (last_phase_ && !reconcile(kv)) continue;
      if (aux_from_reduce_) aux_copy_.side(kv.key, kv.value);
      batch_.push_back(std::move(kv));
    }
    if (batch_.size() >= static_cast<std::size_t>(run_.conf_.buffer_records)) {
      // Charge the compute consumed so far, then ship — the batch's
      // availability time reflects the work done to produce it.
      ctx_.charge_compute(cpu_.elapsed_ns());
      cpu_.reset();
      ship(std::exchange(batch_, KVVec{}), out_iter_);
    }
  }
  // Reduces iteration k, ships it, and on the last phase checkpoints and
  // reports it. False when an injected crash killed the task.
  bool process() {
    // The task's own processing span (§3.4.2's "processing time for that
    // iteration") runs from all-inputs-ready to completion. Wall duration
    // would be useless for balancing — every reduce waits on the globally
    // slowest map, so wall times are nearly identical across workers.
    const int64_t busy_from = ctx_.vt().now_ns();
    input_.sort(k_, gen_);
    // The last phase feeds the next iteration's phase-0 maps.
    out_iter_ = next_p_ == 0 ? k_ + 1 : k_;
    ckpt_due_ = last_phase_ && run_.checkpoints(k_);
    ckpt_workset_.clear();
    distance_ = 0;
    changed_ = 0;
    cpu_.reset();
    input_.group([this](const Bytes& key, const std::vector<Bytes>& values) {
      reduce_group(key, values);
    });
    ctx_.charge_compute(cpu_.elapsed_ns());
    // Injection point: died mid reduce->map push — earlier batches of this
    // iteration are already out, the tail and all EOS markers are not.
    if (dies_at(FaultPoint::kStatePush)) return false;
    ship(std::exchange(batch_, KVVec{}), out_iter_);
    close(out_iter_);
    if (ckpt_due_ && !checkpoint()) return false;
    if (aux_from_reduce_) aux_copy_.close_iteration(k_);
    // Injection point (§3.4.1, the classic one): died at the iteration
    // boundary, after all of iteration k's work. Consuming the event (rather
    // than querying it) guarantees a scheduled failure trips exactly once —
    // a stale schedule can never leak into a later job on the same cluster.
    if (dies_at(FaultPoint::kIterationBoundary)) return false;
    if (last_phase_) report(ctx_.vt().now_ns() - busy_from);
    return true;
  }
  // Checkpoint (§3.4.1) — written in parallel with the iteration, so it is
  // charged on a detached clock and does not delay the pipeline. Because
  // the Report for iteration k is only sent after the dump, a torn dump
  // never becomes the master's last checkpoint (write-then-report
  // ordering; pinned by a regression test). False when the dump killed the
  // task.
  bool checkpoint() {
    VClock parallel_clock(ctx_.vt().now_ns());
    // The span lives on the detached parallel clock, so its end ts can
    // overrun the enclosing iteration span — nesting is by event order.
    TraceSpan ckpt_span("checkpoint", parallel_clock, k_, gen_);
    const std::string dir = run_.ckpt_path(k_);
    if (dump_dies(dir, parallel_clock, k_)) return false;
    if (workset_) {
      // The changed-set rides along with the full state: recovery restores
      // the exact frontier of iteration k, so the replay is record-identical
      // to the fault-free run (replaying the full state would double-apply
      // updates for accumulative reducers).
      sort_records(ckpt_workset_, /*sort_values=*/false);
      run_.cluster_.dfs().write_file(
          workset_path(dir, i_), std::move(ckpt_workset_), ctx_.worker(),
          &parallel_clock, TrafficCategory::kCheckpoint);
    }
    run_.cluster_.metrics().inc("imr_checkpoints");
    return true;
  }
  // Iteration completion report (§3.4.2).
  void report(int64_t duration_ns) {
    IMR_DEBUG << "reporting iter " << k_ << " gen " << gen_;
    CtlMsg report = message(CtlType::kReport, k_);
    report.worker = ctx_.worker();
    report.distance = distance_;
    report.duration_ns = duration_ns;
    report.workset_size = workset_ ? changed_ : 0;
    if (TelemetryRecorder::enabled()) {
      for (const KV& kv : state_) {
        report.state_bytes +=
            static_cast<int64_t>(kv.key.size() + kv.value.size());
      }
    }
    run_.task_send_ctl(ctx_, report);
  }
  // Dumps the final state to DFS — the single output write of the whole
  // iterative run (§3.1, Fig. 1b) — and reports Done.
  void dump_output() {
    dump_state(run_.conf_.output_path, ctx_.vt(), TrafficCategory::kDfsWrite);
    CtlMsg done = message(CtlType::kDone, k_ - 1);
    done.state_records = static_cast<int64_t>(state_.size());
    run_.task_send_ctl(ctx_, done);
  }

  const bool last_phase_ = p_ == run_.P_ - 1;
  const bool workset_ = run_.conf_.workset_mode;
  // An aux reduce feeds no map: its output keeps its own iteration.
  const int next_p_ = aux_ ? p_ : (p_ + 1) % run_.P_;
  const bool broadcast_ = run_.maps_all(next_p_);
  const bool aux_from_reduce_ =
      run_.conf_.aux && last_phase_ &&
      run_.conf_.aux->source == AuxConf::Source::kReduceOutput;
  // Set when the next iteration must open by shipping the session epoch's
  // seed frontier to the paired map: at a refining epoch's resume, and
  // again whenever a rollback lands exactly on its baseline.
  bool seed_ship_ = false;
  EpRow next_maps_{run_, Role::kMap, next_p_};
  EpRow aux_row_{run_, Role::kMap, run_.P_};
  std::unique_ptr<IterReducer> reducer_ =
      run_.phases_[static_cast<std::size_t>(p_)].reducer();
  // Memory governance (DESIGN.md §10): collected shuffle input is charged
  // against the budget as it arrives and spills as sorted runs once the
  // budget is crossed; iteration processing then merges the runs with the
  // in-memory tail — byte-identical output either way.
  ReduceInput input_{
      ctx_, strprintf("%s/r%d-t%d-g%d", run_.tag_.c_str(), p_, i_, gen_),
      run_.conf_.max_task_memory_bytes,
      [this](int iter) { return crashes(FaultPoint::kSpillWrite, iter); }};
  // Buffers the output for a reduce-sourced auxiliary phase (§5.3).
  MapOutput aux_copy_{
      ctx_, {.task = i_,
             .generation = gen_,
             .aux = aux_from_reduce_ ? aux_row_.row_fn() : MapOutput::Row()}};
  // Previous-iteration state for distance + checkpoints + final dump
  // (§3.1.2: "the reduce tasks save the output from two consecutive
  // iterations and calculate the distance"). One flat table for the task's
  // whole life: each iteration finds its keys and updates their values in
  // place, so a steady-state iteration allocates nothing here; a restart
  // clears it and keeps its memory.
  FlatTable state_;
  // Iteration k's output stage, reset by process().
  int out_iter_ = 0;
  bool ckpt_due_ = false;  // decided up front: the changed-set is inline
  KVVec produced_;         // one group's reduce output
  KVVec batch_;            // output not yet shipped
  KVVec ckpt_workset_;     // changed records of a checkpoint iteration
  double distance_ = 0;
  int64_t changed_ = 0;
  ThreadCpuTimer cpu_;
};

void JobRun::spawn_task(const Slot& s, int gen, int start_iter,
                        int64_t start_vt) {
  // Resolve the task's mailbox, and so its home worker, HERE, in the
  // spawning thread. A new thread can begin running arbitrarily late — after
  // a subsequent recovery has re-homed the task and replaced its mailbox. A
  // task that resolved its own inbox only once scheduled would then grab the
  // *replacement* mailbox: its Kill would sit unread in the abandoned one
  // while it silently stole (and stashed, by generation) the replacement
  // task's messages — a deadlock that only shows up when thread start-up is
  // delayed by machine load.
  const TaskStart at{s.p, s.i, gen, start_iter, start_vt, mailbox(s)};
  std::lock_guard<std::mutex> lock(threads_mu_);
  threads_.emplace_back([this, at, map = s.role == Role::kMap] {
    try {
      if (map) {
        MapTask(*this, at).run();
      } else {
        ReduceTask(*this, at).run();
      }
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
      case CtlType::kDeltaAck: {
        // Session delta barrier: each map applied its slice of the next
        // epoch's batch and answers with its seeds and refining verdict.
        if (ctl.generation != generation_ || ctl.session != session_id_ + 1) {
          break;
        }
        if (ctl.workset_size == 0) delta_reset_all_ = true;
        KVVec seeds = msg->take_records();
        delta_seeds_.insert(delta_seeds_.end(),
                            std::make_move_iterator(seeds.begin()),
                            std::make_move_iterator(seeds.end()));
        if (++delta_acks_ >= T_) open_epoch();
        break;
      }
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
        // A failure inside the delta barrier fails the update: a rollback
        // would void the maps' acks and seeds, and the epoch would never
        // open (DESIGN.md §8). epoch_report tears the session down.
        if (delta_open_ && cluster_.worker_alive(ctl.worker)) {
          throw Error(strprintf("%s: worker %d failed while applying the "
                                "update of session epoch %d",
                                tag_.c_str(), ctl.worker, session_id_ + 1));
        }
        recover(ctl.worker, ctl.iteration);
        break;
      case CtlType::kReport: {
        if (terminating_ || ctl.generation != generation_) break;
        std::vector<TaskReport>& reports = pending_[ctl.iteration].reports;
        reports.push_back({ctl.task, ctl.worker, ctl.duration_ns, ctl.distance,
                           ctl.workset_size, ctl.state_bytes, msg->vt_ready});
        if (ctl.iteration == decided_ + 1 &&
            static_cast<int>(reports.size()) >= T_) {
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
  report_.iterations.push_back(std::move(pending_[k]));
  pending_.erase(k);
  if (checkpoints(k)) last_ckpt_ = k;
  IterationStat& it = report_.iterations.back();
  it.iteration = k;
  it.generation = generation_;
  it.session = session_id_;
  it.wall_ms_end = mvt_.now_ms();
  int64_t changed = 0;
  for (const TaskReport& r : it.reports) {
    it.distance += r.distance;
    changed += r.changed;
  }
  if (conf_.workset_mode) it.workset_size = changed;
  TraceRecorder::instance().instant("iteration_decided", mvt_.now_ns(), k,
                                    generation_);
  if (conf_.workset_mode) {
    TraceRecorder::instance().counter("workset_size", mvt_.now_ns(),
                                      it.workset_size);
  }
  cluster_.metrics().inc("imr_iterations");
  IMR_INFO << tag_ << " iteration " << k << " done at " << mvt_.now_ms()
           << " ms, distance " << it.distance;

  const Verdict v = verdict(it);
  if (v == Verdict::kContinue) {
    // Open iteration k+1: the phase-0 reduces' gate and, in sync mode, the
    // phase-0 maps'.
    const CtlMsg cont = master_ctl(CtlType::kContinue, k);
    master_send_phase0(Role::kReduce, cont);
    if (!conf_.async_maps && !maps_all(0)) master_send_phase0(Role::kMap, cont);
    maybe_migrate(it);  // last: a migration's rollback drops `it`
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
  CtlMsg cc = master_ctl(CtlType::kConvergedCkpt, k);
  cc.session = session_id_;
  master_send_phase0(Role::kReduce, cc);
}

// The termination policy (§3.1.2, DESIGN.md §7, §5.3), in precedence order:
// a met threshold or a drained workset on the last budgeted iteration is
// convergence; an aux signal on that iteration is not.
JobRun::Verdict JobRun::verdict(const IterationStat& it) const {
  // Drain: a workset run whose merged changed-record count hits zero has
  // reached its fixpoint — nothing would be mapped next iteration.
  if (conf_.workset_mode && it.workset_size == 0) return Verdict::kConverged;
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
    const int w = pair_worker(idx);
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
// fastest worker when the per-worker maxima of iteration `it`'s report
// durations deviate enough.
void JobRun::maybe_migrate(const IterationStat& it) {
  // Noise gate for the deviation test: the slowest worker must also exceed
  // the trimmed average by this much absolute virtual time. Iteration spans
  // carry measured thread-CPU time, so on a loaded machine a homogeneous
  // cluster can show large *relative* deviation on microsecond-scale
  // iterations; a migration (which costs a rollback) is only worth it when
  // the gap is material.
  constexpr double kMigrationMinGapMs = 25.0;
  if (!conf_.load_balancing || last_ckpt_ <= 0 ||
      decided_ - last_migration_iter_ < 2) {
    return;
  }
  std::map<int, int64_t> worker_dur;
  for (const TaskReport& r : it.reports) {
    int64_t& dur = worker_dur[r.worker];
    dur = std::max(dur, r.duration_ns);
  }
  if (worker_dur.size() < 3) return;
  std::vector<std::pair<int, int64_t>> durs(worker_dur.begin(),
                                            worker_dur.end());
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
  const CtlMsg t = master_ctl(CtlType::kTerminate, decided_);
  for (auto& ep : all_endpoints()) master_send(*ep, t);
  cluster_.metrics().inc("imr_terminate_broadcasts");
}

void JobRun::respawn_and_rollback(const std::vector<int>& pairs,
                                  const std::vector<int>& targets) {
  ++generation_;
  const int ckpt = last_ckpt_;
  // A task moves with its pair; an aux reduce is not pair-homed and moves
  // off a worker the master no longer trusts, onto a recovery target. A
  // moving task's old incarnation gets a Kill in its old mailbox, which a
  // fresh one then replaces.
  const CtlMsg kill = master_ctl(CtlType::kKill, 0);
  std::vector<Slot> moved;
  std::vector<Slot> stay;
  for_each_slot([&](const Slot& s) {
    const std::shared_ptr<Endpoint> old = mailbox(s);
    const bool aux_reduce = s.role == Role::kReduce && s.p == P_;
    const auto pair = std::find(pairs.begin(), pairs.end(), s.i);
    if (aux_reduce ? cluster_.worker_alive(old->home_worker())
                   : pair == pairs.end()) {
      stay.push_back(s);
      return;
    }
    const std::size_t n =
        aux_reduce ? static_cast<std::size_t>(s.i) % targets.size()
                   : static_cast<std::size_t>(pair - pairs.begin());
    master_send(*old, kill);
    home(s, targets[n]);
    moved.push_back(s);
  });
  // Fresh tasks only once every mailbox is fresh, and the Rollback only
  // after that: no sender of the new generation may resolve an abandoned
  // mailbox.
  for (const Slot& s : moved) {
    spawn_task(s, generation_, ckpt + 1, mvt_.now_ns());
  }
  // Roll every other task back to the checkpoint (§3.4.2 step 3), aux tasks
  // included.
  const CtlMsg rb = master_ctl(CtlType::kRollback, ckpt);
  for (const Slot& s : stay) master_send(*mailbox(s), rb);
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
  report_.rollback_iterations.push_back(ckpt);
}

// ---------------------------------------------------------------------------
// execute
// ---------------------------------------------------------------------------

void JobRun::start() {
  conf_.validate();
  const int aux_maps = slots(Role::kMap, P_);
  const int aux_reduces = slots(Role::kReduce, P_);

  // Each phase's persistent tasks must fit the execution slots; phases of
  // the same iteration alternate activity and share them (§3.1.1), while an
  // aux phase runs concurrently with the main phase and needs its own.
  if (T_ + aux_maps > cluster_.map_slots()) {
    throw ConfigError(strprintf(
        "%d persistent map tasks exceed %d map slots", T_ + aux_maps,
        cluster_.map_slots()));
  }
  if (T_ + aux_reduces > cluster_.reduce_slots()) {
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
  for (Role role : {Role::kMap, Role::kReduce}) {
    for (int p = 0; p <= P_; ++p) mailboxes_.emplace_back(slots(role, p));
  }
  // A pair's tasks, aux map included, live on the pair's worker, so map-side
  // output hand-off is local; aux reduce j lives on worker j mod W.
  for_each_slot([&](const Slot& s) {
    home(s, s.role == Role::kReduce && s.p == P_
                ? s.i % cluster_.num_workers()
                : placement[static_cast<std::size_t>(s.i)]);
  });

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

  for_each_slot([&](const Slot& s) {
    spawn_task(s, /*gen=*/0, /*start_iter=*/1, base_vt);
  });
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
  mailboxes_.clear();
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
    for (const IterationStat& st : report_.iterations) {
      rt.iters.push_back(led.iter_view(st));
    }
    rt.matrix = cluster_.metrics().traffic_matrix();
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
  if (!quiesced_) {
    // A task error unwound the epoch before it could park; tear everything
    // down and surface the failure.
    finish();
    throw Error(tag_ + ": session epoch ended without quiescing");
  }
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
  last_report_ = r;
  return r;
}

RunReport JobRun::converge() {
  epoch_base_report_.capture(cluster_.metrics());
  start();
  epoch_start_ms_ = 0;
  epoch_first_stat_ = 0;
  run_master();
  return epoch_report(conf_.name + "/session-initial");
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
  // master_loop gathers the T_ acks (kDeltaAck) and the last one opens the
  // epoch, which then runs until it quiesces again.
  quiesced_ = false;
  delta_open_ = true;
  CtlMsg d = master_ctl(CtlType::kDelta, decided_);
  d.session = new_session;
  for (int idx = 0; idx < T_; ++idx) {
    master_send(*mailbox({Role::kMap, 0, idx}), d,
                std::move(routed[static_cast<std::size_t>(idx)]));
  }
  run_master();
  return epoch_report(conf_.name + "/session-epoch-" +
                      std::to_string(new_session));
}

void JobRun::open_epoch() {
  const int new_session = session_id_ + 1;
  delta_open_ = false;
  delta_acks_ = 0;
  const bool reset_all = std::exchange(delta_reset_all_, false);
  // Deduplicate seeds (first-in-sorted-order wins, mirroring the static
  // store's duplicate-key rule) and bucket them by owning reduce partition.
  KVVec all_seeds = std::exchange(delta_seeds_, KVVec{});
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
  report_.converged = false;
  epoch_first_stat_ = report_.iterations.size();
  cluster_.metrics().inc("imr_session_epochs");
  if (reset_all) cluster_.metrics().inc("imr_session_resets");
  IMR_INFO << tag_ << ": session epoch " << new_session
           << " resuming at iter " << base + 1
           << (reset_all ? " (full replay)" : " (incremental)");

  CtlMsg rs = master_ctl(CtlType::kResume, base);
  rs.session = new_session;
  for (int idx = 0; idx < T_; ++idx) {
    master_send(*mailbox({Role::kReduce, 0, idx}), rs);
    master_send(*mailbox({Role::kMap, 0, idx}), rs);
  }
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
