// net::Fabric — message passing between tasks with virtual-time costing.
//
// An Endpoint is a named mailbox owned by a task and homed on a worker.
// Senders pay the serialization time (bytes / bandwidth) on their own virtual
// clock — consecutive sends from one task serialize, like a NIC — and the
// message becomes available at the receiver at `sender-finish + latency`.
// Receivers sync their clock forward to each message's ready time, so a
// barrier over many senders is automatically max() over their finish times.
//
// Every accounted send is charged once to the registry's traffic matrix, from
// the sender's worker to the receiver's home worker. Local delivery (sender
// and receiver homed on the same worker) is charged at memory bandwidth and
// lands on the matrix diagonal, so it does not count as remote traffic —
// this is exactly the saving iMapReduce gets from co-locating each reduce
// task with its paired map task (§3.2.1).
//
// Hot-path discipline: with channel faults disarmed (the common case), send()
// takes no fabric-global lock — a single relaxed atomic load skips the fault
// machinery, and the only mutex touched is the target mailbox's own queue.
// Data payloads travel behind a shared handle, so broadcasting one batch to T
// mailboxes enqueues T lightweight references to ONE records buffer instead
// of T deep copies; byte accounting is per message and therefore unchanged.
//
// Channel faults: set_channel_faults arms a seeded per-attempt drop
// probability. A dropped attempt charges the wasted wire time plus a
// detection timeout, then retries under bounded exponential backoff; the
// final permitted attempt always delivers, so transient faults cost virtual
// time but never lose data. Every attempt lands in the fabric's message
// ledger (channel_stats), which the InvariantChecker reconciles after a run:
// attempts == delivered + dropped + rejected, and once quiesced
// delivered == received + discarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/blocking_queue.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "metrics/invariants.h"
#include "metrics/metrics.h"
#include "metrics/trace.h"

namespace imr {

class TelemetryLedger;

// Seeded transient-fault model for every channel of a fabric.
struct ChannelFaultConfig {
  double drop_rate = 0.0;  // per-attempt drop probability; 0 disables faults
  uint64_t seed = 1;
  // A drop is detected after `retry_timeout` (charged to the sender), then
  // the send is retried; the timeout doubles per retry (`backoff_factor`) up
  // to `max_backoff`. Attempt number `max_attempts` always succeeds.
  int max_attempts = 10;
  SimDuration retry_timeout = sim_us(200);
  double backoff_factor = 2.0;
  SimDuration max_backoff = sim_ms(20);
};

namespace detail {
// Shared between the Fabric and its endpoints so that receive/discard counts
// survive endpoint destruction (the checker runs after job teardown).
struct ChannelLedger {
  std::atomic<int64_t> attempts{0};
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> rejected{0};
  std::atomic<int64_t> received{0};
  std::atomic<int64_t> discarded{0};
};
}  // namespace detail

struct NetMessage {
  enum class Kind { kData, kEos, kControl };

  Kind kind = Kind::kData;
  int64_t vt_ready = 0;  // virtual time of availability at the receiver
  int from_task = -1;    // engine-level sender id (task index, or -1 master)
  int iteration = 0;     // iterative protocols tag batches by iteration
  int generation = 0;    // job generation; receivers drop stale-generation
                         // data after a rollback (§3.4)
  // Tracing: nonzero flow id links this message's send event to its receive
  // event (a Perfetto arrow); trace_cat is the TrafficCategory, carried so
  // the receiver can name the flow and settle the in-flight counter. Stamped
  // by Fabric::send only while tracing is enabled.
  uint64_t trace_flow = 0;
  uint8_t trace_cat = 0;
  // Data payload, behind a shared handle: copying a NetMessage (broadcast
  // fan-out) shares the one records buffer. null means "no records".
  std::shared_ptr<KVVec> payload;
  Bytes control;  // control payload

  void set_records(KVVec records) {
    payload = std::make_shared<KVVec>(std::move(records));
  }

  // Read-only view of the records (empty when there is no payload).
  const KVVec& records() const {
    static const KVVec kEmpty;
    return payload ? *payload : kEmpty;
  }

  // Fabric::broadcast marks every fan-out copy it enqueues; take_records on
  // a marked message must not mutate the buffer (siblings read it too).
  void mark_payload_shared() { payload_shared_ = true; }
  bool payload_shared() const { return payload_shared_; }

  // Takes ownership of the records: moves them out in the point-to-point
  // case, where this handle's chain of custody (sender -> queue -> receiver)
  // is the only one that ever existed, and deep-copies for marked fan-out
  // messages — sibling receivers may be reading the same buffer
  // concurrently, so a shared buffer is never mutated. (The decision is the
  // static mark, NOT use_count(): a relaxed count load does not synchronize
  // with a sibling's release, so "count dropped to 1" cannot license a
  // move.) Each deep copy is counted process-wide.
  KVVec take_records() {
    if (!payload) return {};
    KVVec out;
    if (payload_shared_) {
      payload_deep_copies_.fetch_add(1, std::memory_order_relaxed);
      out = *payload;
    } else {
      out = std::move(*payload);
    }
    payload.reset();
    return out;
  }

  // Process-wide count of payload deep copies made by take_records() on
  // still-shared payloads. Benches and tests snapshot it to assert that
  // shipping one batch to T endpoints performs O(1) payload copies.
  static int64_t payload_deep_copies() {
    return payload_deep_copies_.load(std::memory_order_relaxed);
  }

  std::size_t payload_bytes() const {
    // 32 bytes of framing/header per message. Every message carrying a
    // shared payload is charged the full payload size — sharing is a memory
    // optimization, not a traffic one.
    return (payload ? wire_size(*payload) : 0) + control.size() + 32;
  }

  // Aggregated exchange (DESIGN.md §9): when set, the fabric charges this
  // many bytes instead of payload_bytes(). Fabric::send_coalesced sets it to
  // ZERO on every sibling copy after the first: one wire transfer per
  // destination worker carries the full payload + framing, and the co-homed
  // endpoints' mailbox hand-offs happen in memory after the frame has
  // already landed on the worker — they cost nothing on the wire.
  static constexpr std::size_t kChargeDefault = SIZE_MAX;
  std::size_t charge_override = kChargeDefault;
  std::size_t charge_bytes() const {
    return charge_override != kChargeDefault ? charge_override
                                             : payload_bytes();
  }

 private:
  bool payload_shared_ = false;
  inline static std::atomic<int64_t> payload_deep_copies_{0};
};

// A mailbox. Created via Fabric so that delivery can be costed.
//
// An endpoint is pinned to its home worker for life. Tasks migrate between
// workers (§3.4.2) by the master *recreating* their endpoints homed on the
// target worker (respawn_and_rollback) — a mailbox is replaced, never moved,
// and rollback does not flush surviving mailboxes either: the Rollback
// control message shares the queue with data, so stale traffic is filtered
// by the receiver's generation check and undrained leftovers are declared
// discards at teardown.
class Endpoint {
 public:
  Endpoint(std::string name, int home_worker,
           std::shared_ptr<detail::ChannelLedger> ledger = nullptr,
           Histogram* queue_wait_hist = nullptr, uint32_t uid = 0)
      : name_(std::move(name)),
        home_worker_(home_worker),
        uid_(uid),
        ledger_(std::move(ledger)),
        queue_wait_hist_(queue_wait_hist) {}

  // Undrained messages at teardown are declared discards in the ledger.
  ~Endpoint() {
    if (ledger_) {
      ledger_->discarded.fetch_add(static_cast<int64_t>(queue_.size()),
                                   std::memory_order_relaxed);
    }
  }

  const std::string& name() const { return name_; }
  int home_worker() const { return home_worker_; }
  // Fabric-assigned creation-order id (0 for endpoints built outside a
  // fabric). Telemetry keys its per-endpoint delivery counts by it; creation
  // order is deterministic, so the ids are stable across same-seed runs.
  uint32_t uid() const { return uid_; }

  // Blocking receive; syncs `vt` to the message availability time.
  // Returns nullopt when the endpoint is closed and drained.
  std::optional<NetMessage> receive(VClock& vt) {
    auto msg = queue_.pop();
    if (msg) {
      if (queue_wait_hist_ != nullptr && TraceRecorder::enabled()) {
        // How long the message sat ready in the mailbox before the receiver
        // got to it (0 when the receiver was already waiting). Gated with
        // the trace probes: the untraced receive pays one branch, nothing
        // else.
        int64_t wait = vt.now_ns() - msg->vt_ready;
        queue_wait_hist_->record(wait > 0 ? wait : 0);
      }
      vt.sync_to(msg->vt_ready);
      count_received();
      if (msg->trace_flow != 0 && TraceRecorder::enabled()) {
        TraceRecorder& tr = TraceRecorder::instance();
        const auto cat = static_cast<TrafficCategory>(msg->trace_cat);
        tr.flow_end(traffic_category_name(cat), msg->trace_flow, vt.now_ns(),
                    msg->iteration, msg->generation);
        int64_t inflight = tr.add_inflight(
            msg->trace_cat, -static_cast<int64_t>(msg->charge_bytes()));
        tr.counter(traffic_inflight_counter_name(cat), vt.now_ns(), inflight);
        tr.counter("queue_depth", vt.now_ns(),
                   static_cast<int64_t>(queue_.size()));
      }
    }
    return msg;
  }

  void close() { queue_.close(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  friend class Fabric;

  void count_received() {
    if (ledger_) ledger_->received.fetch_add(1, std::memory_order_relaxed);
  }

  std::string name_;
  const int home_worker_;
  const uint32_t uid_ = 0;
  std::shared_ptr<detail::ChannelLedger> ledger_;
  Histogram* queue_wait_hist_;  // owned by the fabric's MetricsRegistry
  BlockingQueue<NetMessage> queue_;
};

class Fabric {
 public:
  // `telemetry` (optional) buckets every accounted send by its (generation,
  // iteration) tag while the TelemetryRecorder gate is armed; the cluster
  // wires its ledger in, direct constructions stay untelemetered. Traffic
  // is charged to `metrics`, whose matrix should be sized by the cluster's
  // worker count.
  Fabric(const CostModel& cost, MetricsRegistry& metrics,
         TelemetryLedger* telemetry = nullptr)
      : cost_(cost),
        metrics_(metrics),
        telemetry_(telemetry),
        ledger_(std::make_shared<detail::ChannelLedger>()),
        // Histogram references are stable for the registry's lifetime, so
        // the hot paths record through cached pointers, never the registry
        // map.
        batch_bytes_hist_(&metrics.histogram("fabric_batch_bytes")),
        queue_wait_hist_(&metrics.histogram("endpoint_queue_wait_ns")),
        fault_rng_(1) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Arms (or, with drop_rate 0, disarms) transient channel faults for every
  // subsequent send on this fabric. Chaos runs arm faults before the job's
  // threads start, so the armed flag is published to them by thread
  // creation; the flag's own ordering can therefore stay relaxed on the
  // send hot path.
  void set_channel_faults(const ChannelFaultConfig& config);

  // Installed once by the cluster before any task runs: packets from a worker
  // the master has declared dead never reach the wire. A zombie task — an old
  // generation racing its Kill message after a recovery — may still execute
  // for a while, but its machine is gone, so its sends are suppressed. They
  // stay on the ledger as drops so conservation reconciles, and never count
  // as traffic; this is what keeps the reduce->map channel at zero remote
  // bytes even through cascading recoveries. Master sends (sender_worker -1)
  // are never suppressed.
  void set_liveness_probe(std::function<bool(int)> probe) {
    liveness_ = std::move(probe);
  }

  // Snapshot of the cumulative message ledger (see InvariantChecker).
  ChannelStats channel_stats() const;

  // Creates and registers an endpoint. Replaces any previous endpoint with
  // the same name (engines re-create mailboxes between jobs and on task
  // migration).
  std::shared_ptr<Endpoint> create_endpoint(const std::string& name,
                                            int home_worker);
  std::shared_ptr<Endpoint> find(const std::string& name) const;
  void remove_endpoint(const std::string& name);
  // Number of registered endpoints (leak checks in tests).
  std::size_t endpoint_count() const;

  // Sends `msg` from a task homed on `sender_worker` whose clock is `vt`.
  // Charges the sender and stamps msg.vt_ready.
  void send(int sender_worker, VClock& vt, Endpoint& to, NetMessage msg,
            TrafficCategory category);

  // Convenience: send the same payload to many endpoints (reduce->map
  // broadcast, §5.1). Each copy is charged separately, but all T enqueued
  // messages share msg's one records buffer.
  void broadcast(int sender_worker, VClock& vt,
                 const std::vector<std::shared_ptr<Endpoint>>& to,
                 const NetMessage& msg, TrafficCategory category);

  // Aggregated exchange (DESIGN.md §9): deliver ONE payload to several
  // endpoints that are all homed on the SAME worker. The first endpoint is
  // charged the full payload (the one wire transfer); each sibling copy is
  // charged zero — the in-memory hand-off after the batch has landed on the
  // worker. All copies share the records buffer. Checks that the
  // destinations agree on a home worker.
  void send_coalesced(int sender_worker, VClock& vt,
                      const std::vector<std::shared_ptr<Endpoint>>& to,
                      const NetMessage& msg, TrafficCategory category);

 private:
  // The one loop under broadcast and send_coalesced (see fabric.cpp).
  void fan_out(int sender_worker, VClock& vt,
               const std::vector<std::shared_ptr<Endpoint>>& to,
               const NetMessage& msg, TrafficCategory category,
               bool siblings_free);

  const CostModel& cost_;
  MetricsRegistry& metrics_;
  TelemetryLedger* telemetry_;  // may be null; gated per send
  std::atomic<uint32_t> next_endpoint_uid_{1};
  std::function<bool(int)> liveness_;  // set before any concurrency
  std::shared_ptr<detail::ChannelLedger> ledger_;
  Histogram* batch_bytes_hist_;
  Histogram* queue_wait_hist_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_;

  // Fast-path flag: send() consults the fault config (and its mutex) only
  // when armed. Disarmed sends — every production run — stay lock-free.
  std::atomic<bool> faults_armed_{false};
  std::mutex fault_mu_;
  ChannelFaultConfig faults_;
  Rng fault_rng_;
};

}  // namespace imr
