// Control-plane messages between the master and persistent tasks.
//
// Encoded into NetMessage::control payloads so that they flow through the
// same costed fabric as data (category kControl).
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace imr {

enum class CtlType : uint8_t {
  kContinue = 1,   // master -> phase-0 reduce (and sync map): iteration
                   // `iter` decided, proceed to `iter + 1`
  kTerminate = 3,  // master -> all: stop; last-phase reduces dump final state
  kRollback = 4,   // master -> all: restart from checkpoint `iter`, new gen
  kKill = 5,       // master -> a migrated/failed pair: exit immediately
  kReport = 6,     // reduce -> master: iteration completion report (§3.4.2)
  kFailure = 7,    // task -> master: my worker failed (§3.4.1)
  kDone = 8,       // reduce -> master: final state written
  kAuxSignal = 9,  // aux reduce -> master: terminate signal (§5.3)
  // --- job sessions (DESIGN.md §8) ---
  kConvergedCkpt = 10,  // master -> reduce: converged; dump the session
                        // baseline checkpoint (converged-<session>) and ack
  kCkptAck = 11,        // reduce -> master: baseline checkpoint written
  kDelta = 12,          // master -> map: static-delta ops for your partition
                        // (ops ride in the message's record payload)
  kDeltaAck = 13,       // map -> master: ops applied; perturbed-key seeds in
                        // the record payload, refining verdict in workset_size
  kResume = 14,         // master -> map/reduce: start the next session epoch
                        // at iteration `iteration + 1`
};

struct CtlMsg {
  CtlType type = CtlType::kContinue;
  int32_t task = -1;      // sender task index (task -> master messages)
  int32_t iteration = 0;  // iteration the message refers to
  int32_t generation = 0; // job generation (bumped on rollback)
  int32_t worker = -1;    // reporting worker (reports, failure notices)
  double distance = 0.0;  // local distance (reports)
  int64_t duration_ns = 0;  // iteration processing time (reports)
  // Workset mode (DESIGN.md §7): number of state records this reduce task
  // CHANGED in the reported iteration — the master sums these and terminates
  // when the global workset drains to 0. Always 0 in bulk mode.
  int64_t workset_size = 0;  // kReport
  // Final state-record count of the task's partition; the master sums these
  // into RunReport::final_state_records for the InvariantChecker's
  // state-conservation rule.
  int64_t state_records = 0;  // kDone
  // Session epoch the message belongs to (0 = the initial run). Guards the
  // quiesce/resume handshakes the same way `generation` guards rollbacks: a
  // straggling ack from a previous epoch is ignored.
  int32_t session = 0;  // kConvergedCkpt, kCkptAck, kDelta, kDeltaAck, kResume
  // Resident-state byte estimate of the task's partition (sum of key+value
  // sizes), carried on reports while telemetry is enabled; 0 otherwise.
  int64_t state_bytes = 0;  // kReport

  Bytes encode() const;
  static CtlMsg decode(const Bytes& b);
};

}  // namespace imr
