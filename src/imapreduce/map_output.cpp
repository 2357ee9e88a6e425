#include "imapreduce/map_output.h"

#include <iterator>
#include <map>
#include <utility>

#include "common/codec.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/sim_time.h"
#include "metrics/trace.h"

namespace imr {

MapOutput::MapOutput(TaskContext& ctx, Options options)
    : ctx_(ctx),
      o_(std::move(options)),
      gen_(o_.generation),
      budget_(o_.budget_bytes),
      arena_(&budget_) {
  if (o_.reduces) buffers_.resize(o_.reduces().size());
  if (o_.aux) aux_buffers_.resize(o_.aux().size());
  if (o_.profiled) partition_counts_.assign(buffers_.size(), 0);
}

MapOutput::~MapOutput() {
  if (budget_.hwm() > 0) {
    ctx_.cluster().metrics().gauge_max("imr_arena_hwm", budget_.hwm());
  }
  if (o_.profiled) {
    ctx_.cluster().telemetry().record_task_profile(
        o_.task, gen_, std::move(sketch_), std::move(partition_counts_));
  }
}

void MapOutput::emit(Bytes key, Bytes value) {
  const uint32_t p =
      o_.partitioner != nullptr
          ? o_.partitioner->partition(key)
          : partition_of(key, static_cast<uint32_t>(buffers_.size()));
  if (o_.profiled) {
    sketch_.offer(key);
    partition_counts_[p] += 1;
  }
  if (budget_.limited()) {
    held_ += static_cast<int64_t>(key.size() + value.size() + 8);
  }
  buffers_[p].emplace_back(std::move(key), std::move(value));
}

void MapOutput::side(Bytes key, Bytes value) {
  if (aux_buffers_.empty()) return;
  const uint32_t p =
      partition_of(key, static_cast<uint32_t>(aux_buffers_.size()));
  aux_buffers_[p].emplace_back(std::move(key), std::move(value));
}

bool MapOutput::framed(std::size_t r) {
  return o_.aggregated && o_.reduces()[r]->home_worker() != ctx_.worker();
}

void MapOutput::ship(std::size_t r, int iteration) {
  KVVec& buf = buffers_[r];
  ctx_.send_records(*o_.reduces()[r], std::move(buf), o_.task, iteration,
                    gen_, TrafficCategory::kShuffle);
  buf = KVVec{};
}

void MapOutput::combine(KVVec& buf, int iteration) {
  if (!o_.combine) return;
  TraceSpan combine_span("combine", ctx_.vt(), iteration, gen_);
  const CombineRun run = combine_records(buf, o_.combine, arena_);
  ctx_.charge_compute(run.order_cpu_ns, TimeCategory::kSort);
  ctx_.charge_compute(run.combine_cpu_ns);
}

void MapOutput::charge_held() {
  if (held_ > charged_) {
    budget_.charge(held_ - charged_);
  } else {
    budget_.release(charged_ - held_);
  }
  charged_ = held_;
}

void MapOutput::after_batch(int iteration) {
  // A combiner waits for the barrier: combining small streamed batches finds
  // few duplicate keys (matrix power would shuffle its whole pre-combine
  // product stream).
  const auto full = static_cast<std::size_t>(o_.buffer_records);
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    if (o_.combine || buffers_[r].size() < full || framed(r)) continue;
    if (budget_.limited()) {
      held_ -= static_cast<int64_t>(wire_size(buffers_[r]));
    }
    ship(r, iteration);
  }
  if (!budget_.limited()) return;
  charge_held();
  if (!budget_.over()) return;
  bool shipped = false;
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    if (buffers_[r].empty()) continue;
    combine(buffers_[r], iteration);
    ship(r, iteration);
    shipped = true;
  }
  held_ = 0;
  charge_held();
  if (shipped) ctx_.cluster().metrics().inc("imr_map_budget_flushes");
}

void MapOutput::flush(int iteration) {
  // The frame is this map's iteration EOS for every reduce on its worker,
  // so every remote worker hosting a partition gets one, and no per-reduce
  // EOS crosses the wire. It carries the records of those partitions
  // concatenated in partition order; the header's (task, begin, end)
  // entries give each receiver its range. Local partitions stream, which
  // keeps the paired-task pipelining.
  struct Frame {
    std::vector<std::shared_ptr<Endpoint>> eps;
    KVVec records;
    Bytes entries;
    uint32_t count = 0;
  };
  std::map<int, Frame> frames;  // destination worker -> frame
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    if (!framed(r)) continue;
    const auto& to = o_.reduces()[r];
    frames[to->home_worker()].eps.push_back(to);
  }
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    KVVec& buf = buffers_[r];
    if (buf.empty()) continue;
    combine(buf, iteration);
    if (!framed(r)) {
      ship(r, iteration);
      continue;
    }
    Frame& f = frames[o_.reduces()[r]->home_worker()];
    encode_u32(static_cast<uint32_t>(r), f.entries);
    encode_u32(static_cast<uint32_t>(f.records.size()), f.entries);
    encode_u32(static_cast<uint32_t>(f.records.size() + buf.size()),
               f.entries);
    ++f.count;
    f.records.insert(f.records.end(), std::make_move_iterator(buf.begin()),
                     std::make_move_iterator(buf.end()));
    buf = KVVec{};
  }
  held_ = 0;
  // One wire transfer per destination worker (kShuffleAgg); the sibling
  // mailbox hand-offs are free.
  for (auto& [worker, f] : frames) {
    NetMessage msg;
    msg.kind = NetMessage::Kind::kData;
    msg.from_task = o_.task;
    msg.iteration = iteration;
    msg.generation = gen_;
    Bytes header;
    encode_u32(f.count, header);
    header.insert(header.end(), f.entries.begin(), f.entries.end());
    msg.control = std::move(header);
    msg.set_records(std::move(f.records));
    ctx_.send_coalesced(f.eps, msg, TrafficCategory::kShuffleAgg);
  }
}

void MapOutput::close_iteration(int iteration) {
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    if (framed(r)) continue;
    ctx_.send_eos(*o_.reduces()[r], o_.task, iteration, gen_,
                  TrafficCategory::kShuffle);
  }
  for (std::size_t a = 0; a < aux_buffers_.size(); ++a) {
    Endpoint& to = *o_.aux()[a];
    if (!aux_buffers_[a].empty()) {
      ctx_.send_records(to, std::move(aux_buffers_[a]), o_.task, iteration,
                        gen_, TrafficCategory::kShuffle);
      aux_buffers_[a] = KVVec{};
    }
    ctx_.send_eos(to, o_.task, iteration, gen_, TrafficCategory::kShuffle);
  }
}

void MapOutput::reset(int generation) {
  for (KVVec& b : buffers_) b.clear();
  for (KVVec& b : aux_buffers_) b.clear();
  held_ = 0;
  charge_held();
  gen_ = generation;
}

bool MapOutput::for_each_frame_range(const NetMessage& frame, int task,
                                     const std::function<bool(KVVec)>& fn) {
  ByteReader header(frame.control);
  const KVVec& all = frame.records();
  for (uint32_t n = header.u32(); n > 0; --n) {
    const uint32_t to = header.u32();
    const uint32_t begin = header.u32();
    const uint32_t end = header.u32();
    if (to != static_cast<uint32_t>(task)) continue;
    IMR_CHECK(begin <= end && end <= all.size());
    if (!fn(KVVec(all.begin() + begin, all.begin() + end))) return false;
  }
  return true;
}

}  // namespace imr
