// Restart-from-checkpoint resilience: the driver that survives hard
// node failures.
//
// run_resilient executes a gyre-style model run in *epochs*.  Within an
// epoch every rank steps its tile normally, committing a cut every
// `ckpt_every` steps into one of two alternating on-disk slots (double
// buffering: while one slot is being rewritten the other always holds a
// complete, mutually consistent set of rank files).  When a scheduled
// node kill fires, the dying node's ranks go silent at their next
// communication point; a surviving partner's receive escalates through
// the membership service to the plan-pure NodeDown verdict, and every
// other survivor unwinds its epoch once a peer it waits on has exited.
// The driver then plans the recovery, bumps the epoch (the fault plan
// schedules kills per epoch), and relaunches all ranks from the recovery
// cut in a new Runtime::run, whose mailboxes are new: no pre-failure
// message can be mistaken for restarted traffic.  After `max_restarts` aborted epochs it gives up
// with a typed RestartExhausted error -- it never hangs.
//
// One state format, one resume path: a cut is a tile_ckpt::Snapshot
// (the HYADES03 payload), encoded once per rank and cut.  Planning runs
// on the driver thread, which reads every durable tile a recovery
// resumes from and stages one snapshot per rank; each rank then decodes
// its snapshot and pays the landed rung's cost.
//
// Determinism: stepping is bit-deterministic and checkpoints are bit
// exact, so any survivable kill schedule finishes with final state
// bit-identical to the failure-free run; with no kills scheduled the
// epoch loop runs exactly once and adds no comm, clock, or accounting
// effects beyond the periodic checkpoint barrier.
//
// Elastic membership (RecoveryMode::kMigrate) replaces the
// restart-the-world epoch with *live tile migration*: every rank keeps a
// ring of its newest committed cut snapshots in memory next to the
// durable per-tile files, so after a NodeDown verdict the survivors
// rewind from memory while only the dead node's tiles are resumed from
// their newest durable checkpoints by adopter ranks re-homed onto
// surviving boards (neighbor-preferring placement, round-robin
// fallback).  The epoch still bumps and the relaunched run still starts
// with empty mailboxes, exactly as under restart, but the survivors pay
// no restart cost and no disk I/O, so recovery is strictly faster.  A scheduled NodeJoin
// hands the migrated tiles back to the replacement board at the first
// checkpoint cut at or past its step, rebalancing the load.  State
// evolution is placement-independent, so every recovery and rebalance
// finishes bit-identical to the failure-free run.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/runtime.hpp"
#include "cluster/trace.hpp"
#include "gcm/config.hpp"

namespace hyades::gcm {

// How the driver recovers from a NodeDown verdict: relaunch the world
// from the newest consistent slot (kEpochRestart), or rewind survivors
// in memory and re-load only the dead tiles (kMigrate).
enum class RecoveryMode { kEpochRestart, kMigrate };

struct ResilientConfig {
  std::string ckpt_prefix;  // required: durable checkpoint path prefix
  int ckpt_every = 8;       // steps between durable checkpoints (>= 1)
  int max_restarts = 3;     // aborted epochs tolerated before giving up
  std::uint64_t init_seed = 7;
  RecoveryMode recovery = RecoveryMode::kEpochRestart;

  // Depth of the in-memory snapshot ring (kMigrate only; >= 2).  Depth
  // 2 covers the one-cut skew collective barriers allow between live
  // ranks; deeper rings keep older cuts live so the older-cut rung can
  // reach further back under long detection latencies.  The durable
  // on-disk store stays two-slot regardless (a file-format property).
  int ring_depth = 2;

  // Test/chaos hook invoked on the driver thread when a NodeDown
  // verdict is caught, before any recovery planning -- the chaos
  // harness uses it to damage durable files deterministically (bit rot
  // after commit), exercising the degradation ladder.  Not called on
  // fault-free runs.
  std::function<void(int epoch, const cluster::NodeDownVerdict&)>
      pre_recovery;

  // Optional per-rank tracers (size >= nranks): ranks attach them so
  // node_down / restart spans land in the trace.  Not owned.
  std::vector<cluster::Tracer>* tracers = nullptr;

  // Optional per-rank hook invoked right after a rank finishes the last
  // step of the *completed* epoch (aborted epochs never reach it).
  // Tests use it to capture the final model state for bit-identity
  // checks; it must be thread-safe across ranks.
  std::function<void(cluster::RankContext&, class Model&)> on_complete;
};

// The degradation ladder's rungs, in the order recovery attempts them
// under kMigrate.  Epoch restart is the kEpochRestart mode's only rung
// and the ladder's last: when migration cannot be planned (no
// survivors, a corrupt adopted tile with no older cut, a ring miss), the
// driver restarts the world from the newest consistent slot, and when
// that fails too it gives up with a typed RecoveryExhausted.
enum class RecoveryRung {
  kMigrate = 0,          // newest common cut, survivors rewind in memory
  kMigrateOlderCut = 1,  // same plan, one durable cut further back
  kEpochRestart = 2,     // everyone reloads the newest consistent slot
};
[[nodiscard]] const char* to_string(RecoveryRung rung);

// One attempted rung of one recovery event: where it aimed and, when it
// failed, why the ladder fell through to the next rung.
struct RungAttempt {
  RecoveryRung rung = RecoveryRung::kMigrate;
  long step = -1;      // recovery step this rung targeted (-1: none found)
  bool ok = false;
  std::string reason;  // failure cause; empty when ok
};

// One recovery event, the one record of a recovery: the verdict that
// triggered it, the full ladder history (every attempt, in order; the
// last one succeeded unless the run ended in RecoveryExhausted), and how
// long it took.
struct RecoveryEvent {
  cluster::NodeDownVerdict verdict;
  std::vector<RungAttempt> attempts;
  // Virtual time from the verdict's detection to the last rank
  // completing its first post-recovery step -- the time the campaign was
  // not making forward progress.  Comparable across recovery modes
  // (bench_recovery plots exactly this).  A later verdict that aborts the
  // epoch caps it at that verdict's plan-pure instant, the later of the
  // epoch's start clock and its detection time (as
  // RecoveryError::gave_up_us), and ends it there outright if some rank
  // never finished its first step of the epoch.
  Microseconds recovery_us = 0;
  // The rung the recovery landed on (the last attempt's).
  [[nodiscard]] RecoveryRung landed() const {
    return attempts.empty() ? RecoveryRung::kMigrate : attempts.back().rung;
  }
  // Rungs fallen before landing: 0 for a first-choice recovery.
  [[nodiscard]] int downgrades() const {
    return attempts.empty() ? 0 : static_cast<int>(attempts.size()) - 1;
  }
};

// What a completed run reports.  The number of recoveries, their
// verdicts, resume steps and recovery times are all in `ladder`.
struct ResilientStats {
  int migrations = 0;   // dead tiles adopted live (kMigrate only)
  int rebalances = 0;   // tiles handed back to hot-joined boards
  std::vector<RecoveryEvent> ladder;  // one per recovery, in order
};

// Base of the typed recovery-error hierarchy: every way run_resilient
// gives up is a subclass carrying the context a campaign operator needs
// to triage -- the primary casualty, the recovery step and durable slot
// in question (-1 when not applicable), and the ladder rung being
// attempted when recovery became impossible, and the virtual time it
// gave up at.  Still a runtime_error, so pre-existing generic handlers
// keep working unchanged.
class RecoveryError : public std::runtime_error {
 public:
  RecoveryError(const std::string& what_msg, int failed_rank, long at_step,
                int in_slot, RecoveryRung at_rung, Microseconds gave_up_at_us)
      : std::runtime_error(what_msg),
        rank(failed_rank),
        step(at_step),
        slot(in_slot),
        rung(at_rung),
        gave_up_us(gave_up_at_us) {}
  int rank;           // primary casualty rank, or -1
  long step;          // recovery step in question, or -1
  int slot;           // durable slot in question, or -1
  RecoveryRung rung;  // rung under attempt when the error was raised
  // Virtual time of the give-up: the later of the final epoch's start
  // clock and its verdict's detection time, a pure function of the fault
  // plan.  The survivors' clocks measure something else: how far each
  // rank ran before a peer's exit ended its last wait, short of the
  // verdict or past it.  The farm charges gave_up_us as the failed
  // member's cost.
  Microseconds gave_up_us;
};

// Thrown when a run aborts more than max_restarts times: the failure is
// not survivable by restarting (e.g. the plan kills a node every epoch).
struct RestartExhausted : RecoveryError {
  RestartExhausted(int after_restarts, const cluster::NodeDownVerdict& v,
                   Microseconds gave_up_at_us)
      : RecoveryError(
            "run_resilient: giving up after " +
                std::to_string(after_restarts) +
                " restarts (last verdict: rank " + std::to_string(v.rank) +
                " down in epoch " + std::to_string(v.epoch) + " at t=" +
                std::to_string(v.detected_us) + " us)",
            v.rank, /*at_step=*/-1, /*in_slot=*/-1,
            RecoveryRung::kEpochRestart, gave_up_at_us),
        restarts(after_restarts), last_verdict(v) {}
  int restarts;
  cluster::NodeDownVerdict last_verdict;
};

// Thrown when every rung of the degradation ladder failed for one
// recovery event: migration could not be planned at any reachable cut
// AND no consistent, CRC-verified durable slot exists to restart the
// epoch from.  Carries the full ladder history so the error itself
// shows what was tried and why each rung fell through.
struct RecoveryExhausted : RecoveryError {
  RecoveryExhausted(const cluster::NodeDownVerdict& v,
                    std::vector<RungAttempt> ladder_history,
                    Microseconds gave_up_at_us)
      : RecoveryError(
            "run_resilient: recovery exhausted after " +
                std::to_string(ladder_history.size()) +
                " ladder rung(s) (verdict: rank " + std::to_string(v.rank) +
                ", " + std::to_string(v.ranks.size()) +
                " dead rank(s), epoch " + std::to_string(v.epoch) +
                "): " +
                (ladder_history.empty() ? std::string("no rung attempted")
                                        : ladder_history.back().reason),
            v.rank, /*at_step=*/-1, /*in_slot=*/-1,
            ladder_history.empty() ? RecoveryRung::kMigrate
                                   : ladder_history.back().rung,
            gave_up_at_us),
        verdict(v), history(std::move(ladder_history)) {}
  cluster::NodeDownVerdict verdict;
  std::vector<RungAttempt> history;
};

// Run `steps` model steps across all of rt's ranks (one tile per rank;
// mcfg.px * mcfg.py must equal rt's rank count), surviving scheduled
// node kills by restarting from the newest consistent checkpoint.
// Collective over the whole machine; returns once on the driver thread.
ResilientStats run_resilient(cluster::Runtime& rt, const ModelConfig& mcfg,
                             int steps, const ResilientConfig& rcfg);

}  // namespace hyades::gcm
