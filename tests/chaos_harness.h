// Chaos harness — runs an iterative job under a seeded fault schedule (worker
// deaths at arbitrary injection points) and/or transient channel faults, then
// reconciles the InvariantChecker over the finished run.
//
// Everything is deterministic: the fault schedule derives from a seed
// (FaultSchedule::random or derive_fault), channel drops derive from the
// ChannelFaultConfig seed, and the engine's data results are already
// reproducible — so any failing (seed, point, algorithm) tuple reproduces
// bit-for-bit by re-running the one case (see docs/PROTOCOL.md, "Fault
// injection & chaos testing").
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault_schedule.h"
#include "imapreduce/conf.h"
#include "imapreduce/engine.h"
#include "metrics/invariants.h"
#include "metrics/telemetry.h"
#include "metrics/trace.h"
#include "net/fabric.h"

namespace imr::chaos {

struct ChaosResult {
  RunReport report;
  std::vector<std::string> violations;
};

// Arms `schedule` and `channel` on the cluster, runs the job, and checks the
// invariants. Channel faults are disarmed afterwards so a follow-up job on
// the same cluster runs clean (worker-death events are consumed by the run
// itself; see Cluster::consume_fault).
inline ChaosResult run_chaos_job(Cluster& cluster, const IterJobConf& conf,
                                 const FaultSchedule& schedule,
                                 const ChannelFaultConfig& channel = {},
                                 const InvariantExpectations& expect = {}) {
  cluster.set_fault_schedule(schedule);
  cluster.fabric().set_channel_faults(channel);
  IterativeEngine engine(cluster);
  ChaosResult out;
  out.report = engine.run(conf);
  InvariantChecker checker(cluster.metrics());
  checker.with_channel_stats(cluster.fabric().channel_stats())
      .with_report(out.report);
  // With telemetry armed, attach a snapshot of the registry's traffic
  // matrix: invariant 10 then checks that no charge lands after the job has
  // returned, through deaths, rollbacks, and migrations.
  if (TelemetryRecorder::enabled()) {
    checker.with_traffic_matrix(cluster.metrics().traffic_matrix());
  }
  out.violations = checker.check(expect);
  cluster.fabric().set_channel_faults(ChannelFaultConfig{});
  // With IMR_TRACE=<prefix> set, every chaos run exports its own Perfetto
  // trace — "<prefix>.<conf>.<n>.json" — then clears the recorder so the
  // next run starts on fresh tracks. Fault injections show up as
  // "fault:<point>" instants on the dying task's track (replay a failing
  // seed under IMR_TRACE to *see* the failure and recovery).
  if (const char* prefix = std::getenv("IMR_TRACE");
      prefix != nullptr && *prefix != '\0') {
    static std::atomic<int> trace_seq{0};
    std::string path = std::string(prefix) + "." + conf.name + "." +
                       std::to_string(trace_seq.fetch_add(1)) + ".json";
    TraceRecorder::instance().export_to_file(path);
    TraceRecorder::instance().reset();
  }
  // Same per-run export for telemetry: IMR_TELEMETRY=<prefix> writes
  // "<prefix>.<conf>.<n>.jsonl" (feed it to imr_stat) and resets the
  // recorder so each chaos run's JSONL stands alone.
  if (const char* prefix = std::getenv("IMR_TELEMETRY");
      prefix != nullptr && *prefix != '\0') {
    static std::atomic<int> telemetry_seq{0};
    std::string path = std::string(prefix) + "." + conf.name + "." +
                       std::to_string(telemetry_seq.fetch_add(1)) + ".jsonl";
    TelemetryRecorder::instance().export_to_file(path);
    TelemetryRecorder::instance().reset();
  }
  return out;
}

// Derives one worker-death event from a seed: a deterministic worker in
// [0, num_workers) and iteration in [1, max_iteration], at `point`. Spreads
// the two draws so that nearby seeds explore different (worker, iteration)
// pairs.
inline FaultEvent derive_fault(uint64_t seed, int num_workers,
                               int max_iteration, FaultPoint point) {
  FaultEvent e;
  e.worker = static_cast<int>(((seed * 2654435761u) >> 16) %
                              static_cast<uint64_t>(num_workers));
  e.at_iteration =
      1 + static_cast<int>(((seed * 0x9e3779b97f4a7c15ull) >> 32) %
                           static_cast<uint64_t>(max_iteration));
  e.point = point;
  return e;
}

// Expectations for a workset-mode run over `state_records` keys: arms the
// frontier-aware conservation rule (invariant 7) and the workset ledger
// (invariant 8) on top of the usual channel/recovery checks. Workset map
// phases legitimately transfer fewer records than there are keys, so the
// conservation check binds the *final state*, not per-iteration traffic.
inline InvariantExpectations workset_expectations(int64_t state_records,
                                                  int expected_parts = -1,
                                                  int expected_recoveries = -1) {
  InvariantExpectations expect;
  expect.workset_mode = true;
  expect.expected_state_records = state_records;
  expect.expected_parts = expected_parts;
  expect.expected_recoveries = expected_recoveries;
  return expect;
}

// Post-run hygiene: every scheduled fault must have fired and been consumed.
// A sweep case that leaves events pending was not actually exercised.
inline void expect_all_faults_consumed(Cluster& cluster) {
  EXPECT_EQ(cluster.pending_fault_count(), 0)
      << "scheduled faults never fired";
  EXPECT_NO_THROW(cluster.assert_faults_consumed());
}

}  // namespace imr::chaos
