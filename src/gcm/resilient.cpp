#include "gcm/resilient.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/membership.hpp"
#include "comm/comm.hpp"
#include "gcm/decomp.hpp"
#include "gcm/model.hpp"
#include "gcm/tile_ckpt.hpp"

namespace hyades::gcm {

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kMigrate:
      return "migrate";
    case RecoveryRung::kMigrateOlderCut:
      return "migrate-older-cut";
    case RecoveryRung::kEpochRestart:
      return "epoch-restart";
  }
  return "?";
}

namespace {

// Durable slot of the committed cut at step `s`: the on-disk store is
// two alternating slots regardless of ring depth (a property of the
// HYADES03 double-buffered format, not of the in-memory ring).
int durable_slot(long s, int ckpt_every) {
  return static_cast<int>((s / ckpt_every) % 2);
}

// In-memory ring slot of the cut at step `s` for a ring of `depth`
// committed snapshots: consecutive cuts rotate through the depth.
std::size_t ring_slot(long s, int ckpt_every, int depth) {
  return static_cast<std::size_t>((s / ckpt_every) % depth);
}

// A rank's ring: its `ring_depth` newest committed cut snapshots, in
// the same HYADES03 encoding as the durable slots (kMigrate only).  The
// ring lets survivors rewind without touching disk: because each cut's
// save sits between collective barriers, no two live ranks can be more
// than one cut apart, so a two-deep ring always covers the newest
// recovery step every peer can reach -- deeper rings keep older cuts
// live for the older-cut ladder rung.
using Ring = std::vector<tile_ckpt::Snapshot>;

long newest_ring_step(const Ring& rr) {
  long newest = -1;
  for (const tile_ckpt::Snapshot& s : rr) newest = std::max(newest, s.step);
  return newest;
}

// The ring's snapshot of the cut at `step`, or nullptr.
const tile_ckpt::Snapshot* ring_cut(const Ring& rr, long step) {
  for (const tile_ckpt::Snapshot& s : rr) {
    if (s.step == step) return &s;
  }
  return nullptr;
}

}  // namespace

ResilientStats run_resilient(cluster::Runtime& rt, const ModelConfig& mcfg,
                             int steps, const ResilientConfig& rcfg) {
  if (rcfg.ckpt_prefix.empty()) {
    throw std::invalid_argument("run_resilient: ckpt_prefix is required");
  }
  if (rcfg.ckpt_every < 1) {
    throw std::invalid_argument("run_resilient: ckpt_every must be >= 1");
  }
  if (rcfg.max_restarts < 0) {
    throw std::invalid_argument("run_resilient: max_restarts must be >= 0");
  }
  if (rcfg.ring_depth < 2) {
    throw std::invalid_argument(
        "run_resilient: ring_depth must be >= 2 (barriers allow one cut of "
        "skew between live ranks)");
  }
  const int nranks = rt.config().nranks();
  const auto nr = static_cast<std::size_t>(nranks);
  if (rcfg.tracers != nullptr && rcfg.tracers->size() < nr) {
    throw std::invalid_argument("run_resilient: tracer list shorter than ranks");
  }

  // Clear both slots up front: a stale checkpoint left by an earlier run
  // (possibly of a different configuration) must never be mistaken for
  // this run's restart point.
  tile_ckpt::remove_slots(rcfg.ckpt_prefix, nranks);

  const bool migrate = rcfg.recovery == RecoveryMode::kMigrate;
  const cluster::FaultPlan* plan = rt.config().faults;
  const int ppp = rt.config().procs_per_smp;
  const int smp_count = rt.config().smp_count;

  // ---- driver-held recovery state -------------------------------------
  // Everything below is written by the driver between epochs or by a
  // rank thread in its own slot during an epoch; thread create/join
  // orders every cross-thread access.
  std::vector<Ring> ring;  // per-rank committed snapshots (kMigrate)
  if (migrate) {
    ring.assign(nr, Ring(static_cast<std::size_t>(rcfg.ring_depth)));
  }
  std::vector<int> host_map;  // evolving placement baseline; empty=identity
  std::set<int> dead_smps;    // boards lost and not yet replaced by a join
  int adopt_rr = 0;           // round-robin fallback cursor for adoption

  const auto host_of = [&](int r) {
    return host_map.empty() ? r / ppp : host_map[static_cast<std::size_t>(r)];
  };

  // Resumed-epoch instructions for the rank bodies, staged by the
  // planners: the cut every rank resumes from (-1 = fresh start), each
  // rank's snapshot of it (a survivor's own ring cut, or the durable tile
  // the driver read for an adopter or a restarted rank), which ranks
  // moved onto a new board, and the epoch's start clock.  The recovery
  // itself is st.ladder.back().
  long resume_step = -1;
  std::vector<tile_ckpt::Snapshot> resume(nr);
  std::vector<char> adopted(nr, 0);
  Microseconds clock_base = 0;

  // Recovery-time probe: each rank records the virtual clock after its
  // first completed step of an epoch (negative until it has); the driver
  // turns the max into the resumed recovery's recovery_us (detection ->
  // everyone stepping again).
  std::vector<Microseconds> probe(nr, -1.0);

  // Per-epoch completion flags: a rank marks its slot after its last
  // step.  When a kill takes down every board at once there is no
  // survivor left to escalate a verdict -- every rank fail-stops
  // silently and run() returns cleanly with nothing computed.  The
  // driver detects that (no rank completed) and synthesizes the
  // coalesced verdict the survivors would have thrown.
  std::vector<char> completed(nr, 0);

  ResilientStats st;

  const auto absorb_counts = [&] {
    for (const cluster::Accounting& a : rt.accounting()) {
      st.migrations += static_cast<int>(a.migrations);
      st.rebalances += static_cast<int>(a.rebalances);
    }
  };
  // Ends the recovery this epoch resumed from (none in epoch 0) at
  // `done`.
  const auto record_recovery = [&](Microseconds done) {
    if (st.ladder.empty()) return;
    RecoveryEvent& ev = st.ladder.back();
    ev.recovery_us = done - ev.verdict.detected_us;
  };
  const auto last_probe = [&] {
    return *std::max_element(probe.begin(), probe.end());
  };
  const auto all_probed = [&] {
    return std::none_of(probe.begin(), probe.end(),
                        [](Microseconds p) { return p < 0; });
  };
  // Read one durable tile a recovery will resume from.  The read checks
  // the header and the payload CRC, so a tile with rotted bits fails
  // here and degrades the rung instead of crashing a rank mid-resume.
  const auto read_tile = [&](const std::string& path,
                             tile_ckpt::Snapshot* out) {
    try {
      *out = tile_ckpt::read(path, mcfg);
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  };

  for (int epoch = 0;; ++epoch) {
    rt.set_epoch(epoch);
    rt.set_host_map(host_map);
    completed.assign(nr, 0);
    probe.assign(nr, -1.0);

    try {
      rt.run([&](cluster::RankContext& ctx) {
        const int rank = ctx.rank();
        const auto ri = static_cast<std::size_t>(rank);
        if (rcfg.tracers != nullptr) {
          ctx.set_tracer(&(*rcfg.tracers)[ri]);
        }
        try {
          comm::Comm comm(ctx);
          Model model(mcfg, comm);
          // Commit the cut at step `s`: encode the tile once, publish it
          // to its durable slot and keep it in the ring.
          const auto commit_cut = [&](long s) {
            tile_ckpt::Snapshot snap = tile_ckpt::encode(model.state());
            tile_ckpt::write(
                tile_ckpt::rank_path(
                    tile_ckpt::slot_prefix(rcfg.ckpt_prefix,
                                           durable_slot(s, rcfg.ckpt_every)),
                    rank),
                model.config(), snap);
            if (migrate) {
              ring[ri][ring_slot(s, rcfg.ckpt_every, rcfg.ring_depth)] =
                  std::move(snap);
            }
          };
          if (resume_step < 0) {
            model.initialize(rcfg.init_seed);
            // Durable step-0 checkpoint BEFORE the first communication:
            // even a kill firing in the first step restarts from a
            // complete, mutually consistent slot.
            commit_cut(0);
          } else {
            // Resume from the staged snapshot, then pay the landed rung's
            // cost: a restart charges every rank and names its span
            // "restart"; a migration charges only the adopters, under the
            // rung's name; a survivor rewinds for free.
            const RecoveryEvent& ev = st.ladder.back();
            tile_ckpt::decode(resume[ri], &model.state());
            const bool restart = ev.landed() == RecoveryRung::kEpochRestart;
            const bool moved = adopted[ri] != 0;
            const Microseconds began = ctx.clock().now();
            const Microseconds cost =
                moved && plan != nullptr ? plan->migrate_cost_us : 0.0;
            ctx.clock().advance_to(clock_base + cost);
            if (restart) {
              ctx.charge_restart(plan != nullptr ? plan->restart_cost_us
                                                 : 0.0);
            }
            if (moved) ctx.charge_migrate(cost);
            ctx.note_downgrades(ev.downgrades());
            if ((restart || moved) && ctx.tracer() != nullptr) {
              ctx.tracer()->record(restart ? "restart" : to_string(ev.landed()),
                                   cluster::SpanCat::kNodeDown, began,
                                   ctx.clock().now());
            }
            // Re-seed the ring at the recovery cut (fills a cleared ring;
            // a bit-exact overwrite on survivors).
            if (migrate) {
              ring[ri][ring_slot(resume_step, rcfg.ckpt_every,
                                 rcfg.ring_depth)] = std::move(resume[ri]);
            }
          }
          while (model.state().step < steps) {
            (void)model.step();
            const long s = model.state().step;
            if (probe[ri] < 0) probe[ri] = ctx.clock().now();
            if (s < steps && s % rcfg.ckpt_every == 0) {
              // The barrier makes the rotation a collective cut at step
              // s; double buffering covers an abort mid-rotation.
              model.comm().barrier();
              commit_cut(s);
              // Hot joins: every rank applies the same pure function of
              // (plan, step) to its local placement map, so the maps
              // stay consistent without any shared state.  A migrated
              // tile whose home board is back returns home; re-applying
              // is a no-op, so replayed epochs converge.
              if (migrate && plan != nullptr && plan->has_node_joins()) {
                for (const cluster::NodeJoin& j : plan->node_joins) {
                  if (j.smp < 0 || j.smp >= smp_count || j.at_step > s) {
                    continue;
                  }
                  const int lo = j.smp * ppp;
                  for (int q = lo; q < lo + ppp && q < nranks; ++q) {
                    if (ctx.host_smp_of(q) == j.smp) continue;
                    ctx.rehome_rank(q, j.smp);
                    if (q == rank) {
                      const Microseconds began = ctx.clock().now();
                      ctx.clock().advance(plan->rebalance_cost_us);
                      ctx.charge_rebalance(plan->rebalance_cost_us);
                      if (ctx.tracer() != nullptr) {
                        ctx.tracer()->record("rebalance",
                                             cluster::SpanCat::kNodeDown,
                                             began, ctx.clock().now());
                      }
                    }
                  }
                }
              }
            }
          }
          completed[ri] = 1;
          if (rcfg.on_complete) rcfg.on_complete(ctx, model);
        } catch (const cluster::RankFailStop&) {
          // This rank's node fail-stopped at a communication point: go
          // silent.  The rank's exit wakes the peers blocked on it (and
          // aborts its SMP barrier); they escalate through the
          // membership service.
        } catch (const cluster::NodeDownError&) {
          throw;  // collective epoch abort; Runtime::run surfaces it first
        } catch (const cluster::Deadlock&) {
          throw;  // a wait cycle is a bug, never a dying node's collateral
        } catch (const std::runtime_error&) {
          // A dying sibling's exit aborts the shared SMP barrier or ends
          // a receive (PeerExited); ranks of the killed node treat that
          // collateral as their own death.  Any other runtime_error on a
          // surviving node is a real failure.
          cluster::Membership* ms = ctx.membership();
          if (ms != nullptr && ms->scheduled_kill(ctx.rank()) != nullptr) {
            return;
          }
          throw;
        }
      });
      bool all_completed = true;
      for (char c : completed) all_completed = all_completed && c != 0;
      if (!all_completed) {
        // Every rank fail-stopped before finishing (steps are collective,
        // so completion is all-or-nothing): the whole machine went down
        // inside one detection window and nobody was left to escalate.
        // Synthesize the canonical coalesced verdict and recover through
        // the ladder like any other NodeDown event.
        if (plan == nullptr || !plan->has_node_kills()) {
          throw RecoveryError(
              "run_resilient: epoch " + std::to_string(epoch) +
                  " ended with no rank completing and no scheduled kill to "
                  "explain it",
              -1, -1, -1, RecoveryRung::kMigrate, clock_base);
        }
        throw cluster::NodeDownError(
            cluster::coalesce_expired_kills(*plan, epoch));
      }
      absorb_counts();
      record_recovery(last_probe());
      return st;
    } catch (const cluster::NodeDownError& e) {
      // Recovery is interrupted, or gives up, at a plan-pure time.
      const Microseconds gave_up = std::max(clock_base, e.verdict.detected_us);
      absorb_counts();
      // An aborted epoch's recovery still ended at the latest probe (or
      // at `gave_up`, if that came first) if every rank finished its first
      // step; otherwise it ends at `gave_up`.  Which ranks got that far
      // is plan-pure: a rank stops only when a peer it waits on has exited
      // with nothing queued for it.
      record_recovery(all_probed() ? std::min(last_probe(), gave_up)
                                   : gave_up);
      // Epochs 0..epoch have all aborted.
      if (epoch >= rcfg.max_restarts) {
        throw RestartExhausted(epoch + 1, e.verdict, gave_up);
      }
      // Chaos/test hook: damage durable state *before* planning, so the
      // planner sees exactly what a recovery after silent bit rot sees.
      if (rcfg.pre_recovery) rcfg.pre_recovery(epoch, e.verdict);

      RecoveryEvent ev;
      ev.verdict = e.verdict;
      adopted.assign(nr, 0);
      bool planned = false;

      if (migrate) {
        // ---- live migration: survivors rewind in memory, adopters ----
        // ---- resume the dead tiles' durable checkpoints.          ----
        // The verdict carries a dead *set*: every board hosting a
        // kill-named rank is down, together with every tile it hosts
        // (including tiles adopted during an earlier recovery).
        std::set<int> dead_boards;
        for (int vr : e.verdict.ranks) dead_boards.insert(host_of(vr));
        std::vector<char> is_dead(nr, 0);
        std::vector<int> dead;
        for (int r = 0; r < nranks; ++r) {
          if (dead_boards.count(host_of(r)) != 0) {
            is_dead[static_cast<std::size_t>(r)] = 1;
            dead.push_back(r);
          }
        }

        // One rung of migration planning: find the newest cut at or
        // below `ceiling` that every survivor's ring and every dead
        // rank's durable checkpoint can meet at, and stage every rank's
        // snapshot of it.  Any precondition miss fails the rung with its
        // reason -- the ladder decides what to do next, nothing aborts
        // the campaign.
        const auto try_migrate = [&](long ceiling, RungAttempt* att) -> bool {
          att->ok = false;
          att->step = -1;
          if (static_cast<int>(dead.size()) == nranks) {
            att->reason = "verdict takes every board down; nothing to migrate";
            return false;
          }
          long s_surv = -1;
          bool have_surv = false;
          for (int r = 0; r < nranks; ++r) {
            if (is_dead[static_cast<std::size_t>(r)] != 0) continue;
            const long newest =
                newest_ring_step(ring[static_cast<std::size_t>(r)]);
            if (newest < 0) {
              att->reason = "survivor rank " + std::to_string(r) +
                            " holds no committed snapshot";
              return false;
            }
            s_surv = have_surv ? std::min(s_surv, newest) : newest;
            have_surv = true;
          }
          const long cap = std::min(s_surv, ceiling);
          if (cap < 0) {
            att->reason = "no committed cut at or below step " +
                          std::to_string(ceiling);
            return false;
          }
          // Clamp by the dead tiles' newest durable checkpoints: a rank
          // that died inside a cut's barrier may have published one cut
          // less than the survivors reached.
          long s_recover = cap;
          for (int r : dead) {
            const tile_ckpt::TileHit hit =
                tile_ckpt::newest_rank_ckpt(rcfg.ckpt_prefix, r, cap);
            if (hit.step < 0) {
              att->reason = "dead rank " + std::to_string(r) +
                            " has no durable checkpoint at or below step " +
                            std::to_string(cap);
              return false;
            }
            s_recover = std::min(s_recover, hit.step);
          }
          att->step = s_recover;
          for (int r : dead) {
            const tile_ckpt::TileHit hit =
                tile_ckpt::newest_rank_ckpt(rcfg.ckpt_prefix, r, s_recover);
            if (hit.step != s_recover) {
              att->reason = "dead rank " + std::to_string(r) +
                            " has no durable checkpoint at recovery step " +
                            std::to_string(s_recover);
              return false;
            }
            if (!read_tile(hit.path, &resume[static_cast<std::size_t>(r)])) {
              att->reason = "dead rank " + std::to_string(r) +
                            " durable checkpoint at step " +
                            std::to_string(s_recover) +
                            " failed deep verification (corrupt)";
              return false;
            }
          }
          for (int r = 0; r < nranks; ++r) {
            const auto riv = static_cast<std::size_t>(r);
            if (is_dead[riv] != 0) continue;
            const tile_ckpt::Snapshot* cut = ring_cut(ring[riv], s_recover);
            if (cut == nullptr) {
              att->reason = "survivor rank " + std::to_string(r) +
                            " ring misses recovery cut " +
                            std::to_string(s_recover);
              return false;
            }
            resume[riv] = *cut;
          }
          att->ok = true;
          return true;
        };

        // Rung 1: migrate at the newest common cut.
        RungAttempt a1;
        a1.rung = RecoveryRung::kMigrate;
        planned = try_migrate(static_cast<long>(steps), &a1);
        ev.attempts.push_back(a1);
        // Rung 2: migrate from one durable cut further back (the newest
        // may be corrupt, or a dead rank may miss it entirely).
        if (!planned) {
          RungAttempt a2;
          a2.rung = RecoveryRung::kMigrateOlderCut;
          const long older_ceiling =
              (a1.step >= 0 ? a1.step : static_cast<long>(steps)) - 1;
          planned = try_migrate(older_ceiling, &a2);
          ev.attempts.push_back(a2);
        }

        if (planned) {
          const long s_recover = ev.attempts.back().step;
          for (int r : dead) adopted[static_cast<std::size_t>(r)] = 1;

          // Evolve the placement baseline.  First mirror the joins the
          // aborted epoch had already applied at cuts up to the recovery
          // step, so the baseline matches every rank's map at that cut;
          // then retire the dead boards and re-home their tiles.
          if (host_map.empty()) {
            host_map.resize(nr);
            for (int r = 0; r < nranks; ++r) {
              host_map[static_cast<std::size_t>(r)] = r / ppp;
            }
          }
          if (plan != nullptr) {
            for (const cluster::NodeJoin& j : plan->node_joins) {
              if (j.smp < 0 || j.smp >= smp_count || j.at_step > s_recover ||
                  dead_boards.count(j.smp) != 0) {
                continue;
              }
              dead_smps.erase(j.smp);
              const int lo = j.smp * ppp;
              for (int q = lo; q < lo + ppp && q < nranks; ++q) {
                host_map[static_cast<std::size_t>(q)] = j.smp;
              }
            }
          }
          dead_smps.insert(dead_boards.begin(), dead_boards.end());
          std::vector<int> alive;
          for (int smp = 0; smp < smp_count; ++smp) {
            if (dead_smps.count(smp) == 0) alive.push_back(smp);
          }
          // Adoption: prefer the board hosting a surviving halo neighbor
          // (the adopted tile's exchanges stay partly local), else
          // spread the orphans round-robin over the surviving boards.
          // `alive` cannot be empty here: a planned migration implies at
          // least one survivor, and its host is not a dead board.
          for (int r : dead) {
            int target = -1;
            const Decomp dec(mcfg, r);
            for (int nb : dec.neighbors) {
              if (nb < 0 || is_dead[static_cast<std::size_t>(nb)] != 0) {
                continue;
              }
              const int cand = host_map[static_cast<std::size_t>(nb)];
              if (dead_smps.count(cand) == 0) {
                target = cand;
                break;
              }
            }
            if (target < 0) {
              target =
                  alive[static_cast<std::size_t>(adopt_rr) % alive.size()];
              ++adopt_rr;
            }
            host_map[static_cast<std::size_t>(r)] = target;
            // The adopter board's in-memory ring never held this tile:
            // invalidate the dead rank's snapshots so a later failure
            // cannot rewind onto state that died with the board.
            for (tile_ckpt::Snapshot& snap :
                 ring[static_cast<std::size_t>(r)]) {
              snap = {};
            }
          }
          resume_step = s_recover;
          clock_base = e.verdict.detected_us;
        }
      }

      if (!planned) {
        // ---- epoch restart: the recovery mode's only rung, and the ----
        // ---- migrate ladder's last.                                ----
        // Everyone reloads the newest consistent slot whose every rank
        // file reads back intact.  Consistency (same step on every rank)
        // comes from the header scan; a corrupt payload passes the
        // header, so a slot with rotted bits degrades to the other slot,
        // recorded as a failed attempt.
        const tile_ckpt::SlotScan scans[2] = {
            tile_ckpt::scan_slot(rcfg.ckpt_prefix, 0, nranks),
            tile_ckpt::scan_slot(rcfg.ckpt_prefix, 1, nranks)};
        std::vector<int> order;
        for (int slot : {0, 1}) {
          if (scans[slot].consistent) order.push_back(slot);
        }
        std::sort(order.begin(), order.end(),
                  [&](int x, int y) { return scans[x].step > scans[y].step; });
        for (int slot : order) {
          const std::string sp = tile_ckpt::slot_prefix(rcfg.ckpt_prefix, slot);
          int bad_rank = -1;
          for (int r = 0; r < nranks && bad_rank < 0; ++r) {
            if (!read_tile(tile_ckpt::rank_path(sp, r),
                           &resume[static_cast<std::size_t>(r)])) {
              bad_rank = r;
            }
          }
          if (bad_rank >= 0) {
            ev.attempts.push_back(
                {RecoveryRung::kEpochRestart, scans[slot].step, false,
                 "slot " + std::to_string(slot) + " at step " +
                     std::to_string(scans[slot].step) + ": rank " +
                     std::to_string(bad_rank) +
                     " durable checkpoint failed deep verification"});
            continue;
          }
          resume_step = scans[slot].step;
          ev.attempts.push_back(
              {RecoveryRung::kEpochRestart, resume_step, true, ""});
          planned = true;
          break;
        }
        if (order.empty()) {
          ev.attempts.push_back(
              {RecoveryRung::kEpochRestart, -1, false,
               "no consistent checkpoint slot to restart from"});
        }
        if (!planned) throw RecoveryExhausted(e.verdict, ev.attempts, gave_up);
        // The operator replaced the boards: placement returns to
        // identity, no board is dead in the restarted epoch, and the
        // rings restart from the reload cut (cleared here; each rank
        // re-seeds its own at resume).
        host_map.clear();
        dead_smps.clear();
        for (Ring& rr : ring) {
          for (tile_ckpt::Snapshot& snap : rr) snap = {};
        }
        clock_base = e.verdict.detected_us +
                     (plan != nullptr ? plan->restart_cost_us : 0.0);
      }
      st.ladder.push_back(std::move(ev));
    }
  }
}

}  // namespace hyades::gcm
