#include "net/fabric.h"

#include "common/error.h"
#include "metrics/telemetry.h"

namespace imr {

std::shared_ptr<Endpoint> Fabric::create_endpoint(const std::string& name,
                                                  int home_worker) {
  auto ep = std::make_shared<Endpoint>(
      name, home_worker, ledger_, queue_wait_hist_,
      next_endpoint_uid_.fetch_add(1, std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[name] = ep;
  return ep;
}

std::shared_ptr<Endpoint> Fabric::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) throw Error("no such endpoint: " + name);
  return it->second;
}

void Fabric::remove_endpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.erase(name);
}

std::size_t Fabric::endpoint_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.size();
}

void Fabric::set_channel_faults(const ChannelFaultConfig& config) {
  IMR_CHECK_MSG(config.drop_rate >= 0 && config.drop_rate < 1.0,
                "drop_rate must be in [0, 1)");
  IMR_CHECK_MSG(config.max_attempts >= 1, "need at least one attempt");
  IMR_CHECK_MSG(config.backoff_factor >= 1.0, "backoff must not shrink");
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    faults_ = config;
    fault_rng_ = Rng(config.seed);
  }
  faults_armed_.store(config.drop_rate > 0, std::memory_order_release);
}

ChannelStats Fabric::channel_stats() const {
  ChannelStats s;
  s.attempts = ledger_->attempts.load();
  s.delivered = ledger_->delivered.load();
  s.dropped = ledger_->dropped.load();
  s.rejected = ledger_->rejected.load();
  s.received = ledger_->received.load();
  s.discarded = ledger_->discarded.load();
  return s;
}

void Fabric::send(int sender_worker, VClock& vt, Endpoint& to, NetMessage msg,
                  TrafficCategory category) {
  if (sender_worker >= 0 && liveness_ && !liveness_(sender_worker)) {
    // Zombie send: the sender's machine is already declared dead, so nothing
    // reaches the wire. Ledger-accounted as a drop, charged to nobody.
    ledger_->attempts.fetch_add(1, std::memory_order_relaxed);
    ledger_->dropped.fetch_add(1, std::memory_order_relaxed);
    metrics_.inc("net_zombie_sends");
    return;
  }
  std::size_t bytes = msg.charge_bytes();
  bool local = (sender_worker == to.home_worker());

  double bw = local ? cost_.local_bandwidth : cost_.net_bandwidth;
  SimDuration latency = local ? cost_.local_latency : cost_.net_latency;
  SimDuration ser = transfer_time(bytes, bw);

  // Transient channel faults (chaos mode): drop attempts before the last
  // permitted one; each drop pays the wasted wire time plus the detection
  // timeout, with bounded exponential backoff between retries. The dropped
  // bytes never count as delivered traffic — they live in the ledger and the
  // named drop counters instead. With faults disarmed (every production
  // run), one relaxed load skips all of this — no lock, no config copy; the
  // seeded slow path is byte-for-byte the old behavior, so chaos runs stay
  // deterministic.
  if (faults_armed_.load(std::memory_order_relaxed)) {
    ChannelFaultConfig faults;
    int drops = 0;
    {
      // One lock scope per send: snapshot the config AND draw every retry's
      // drop from it, instead of re-acquiring fault_mu_ (and re-reading
      // faults_) once per attempt. The draws stay lazy — one uniform per
      // attempt, stopping at the first non-drop — so a same-seed run consumes
      // fault_rng_ in exactly the order the per-attempt draw_drop() did.
      std::lock_guard<std::mutex> lock(fault_mu_);
      faults = faults_;
      if (faults.drop_rate > 0) {
        while (drops + 1 < faults.max_attempts &&
               fault_rng_.uniform_real(0.0, 1.0) < faults.drop_rate) {
          ++drops;
        }
      }
    }
    SimDuration backoff = faults.retry_timeout;
    for (int i = 0; i < drops; ++i) {
      ledger_->attempts.fetch_add(1, std::memory_order_relaxed);
      ledger_->dropped.fetch_add(1, std::memory_order_relaxed);
      vt.advance(ser + backoff);
      metrics_.add_time(TimeCategory::kNetwork, ser);
      metrics_.inc("net_dropped_sends");
      metrics_.inc("net_dropped_bytes", static_cast<int64_t>(bytes));
      backoff = std::min(
          SimDuration(static_cast<int64_t>(
              static_cast<double>(backoff.count()) * faults.backoff_factor)),
          faults.max_backoff);
    }
  }

  // Sender pays serialization onto the wire.
  vt.advance(ser);
  metrics_.add_time(TimeCategory::kNetwork, ser + latency);
  metrics_.add_traffic(sender_worker, to.home_worker(), category, bytes);

  // The message's (generation, iteration) telemetry bucket. Same cost
  // discipline as the trace gate — a null-pointer test and one relaxed load
  // when disabled. Placed before the queue push so rejected sends are
  // bucketed exactly like the registry charges them.
  if (telemetry_ != nullptr && TelemetryRecorder::enabled()) {
    telemetry_->add_send(category, static_cast<int64_t>(bytes), msg.generation,
                         msg.iteration, to.uid());
  }

  // Stamp the flow id before the message is moved into the queue; the start
  // event is recorded only AFTER a successful push, so a rejected send never
  // draws an arrow (a flow_start whose message is later discarded unread is
  // legal — Perfetto renders it as an arrow to nowhere). The batch-size
  // histogram shares the gate: per-message distribution sampling is part of
  // the tracing substrate's cost budget, not the untraced send's.
  const bool traced = TraceRecorder::enabled();
  uint64_t flow = 0;
  int msg_iter = 0, msg_gen = 0;
  if (traced) {
    batch_bytes_hist_->record(static_cast<int64_t>(bytes));
    flow = TraceRecorder::instance().next_flow_id();
    msg.trace_flow = flow;
    msg.trace_cat = static_cast<uint8_t>(category);
    msg_iter = msg.iteration;
    msg_gen = msg.generation;
  }

  msg.vt_ready = vt.now_ns() + latency.count();
  ledger_->attempts.fetch_add(1, std::memory_order_relaxed);
  if (to.queue_.push(std::move(msg))) {
    ledger_->delivered.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      TraceRecorder& tr = TraceRecorder::instance();
      tr.flow_start(traffic_category_name(category), flow, vt.now_ns(),
                    msg_iter, msg_gen);
      int64_t inflight = tr.add_inflight(static_cast<int>(category),
                                         static_cast<int64_t>(bytes));
      tr.counter(traffic_inflight_counter_name(category), vt.now_ns(),
                 inflight);
    }
  } else {
    // Late producer racing a closed mailbox (termination/rollback): the
    // message is dropped by design, but it stays on the ledger.
    ledger_->rejected.fetch_add(1, std::memory_order_relaxed);
  }
}

// One send() per destination, so each copy gets the fault machinery, the
// ledger, telemetry and tracing. With more than one destination the copies
// share msg's records buffer, marked so take_records never mutates it while
// a sibling reads; a single destination keeps the point-to-point move. With
// `siblings_free`, copies after the first are charged zero bytes.
void Fabric::fan_out(int sender_worker, VClock& vt,
                     const std::vector<std::shared_ptr<Endpoint>>& to,
                     const NetMessage& msg, TrafficCategory category,
                     bool siblings_free) {
  const bool shared = to.size() > 1;
  for (std::size_t n = 0; n < to.size(); ++n) {
    NetMessage copy = msg;
    if (shared) copy.mark_payload_shared();
    if (siblings_free && n > 0) copy.charge_override = 0;
    send(sender_worker, vt, *to[n], std::move(copy), category);
  }
}

void Fabric::broadcast(int sender_worker, VClock& vt,
                       const std::vector<std::shared_ptr<Endpoint>>& to,
                       const NetMessage& msg, TrafficCategory category) {
  fan_out(sender_worker, vt, to, msg, category, /*siblings_free=*/false);
}

void Fabric::send_coalesced(int sender_worker, VClock& vt,
                            const std::vector<std::shared_ptr<Endpoint>>& to,
                            const NetMessage& msg, TrafficCategory category) {
  IMR_CHECK_MSG(!to.empty(), "coalesced send needs >= 1 destination");
  const int home = to.front()->home_worker();
  for (const auto& ep : to) {
    IMR_CHECK_MSG(ep->home_worker() == home,
                  "coalesced destinations must share a home worker");
  }
  // The first copy carries the full charge; siblings are charged zero, as
  // the wire transfer was already paid in full by the first copy.
  fan_out(sender_worker, vt, to, msg, category, /*siblings_free=*/true);
}

}  // namespace imr
