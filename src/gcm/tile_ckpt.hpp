// The checkpoint module: the single owner of a tile's restartable-state
// encoding, of durable tile-checkpoint file naming and of the HYADES03
// wire format.
//
// A Snapshot is one tile's restartable state in memory: the step and the
// HYADES03 payload (the prognostic fields, the Adams-Bashforth n-1
// tendencies, the non-hydrostatic pressure and the surface pressure, in
// that order).  Every other State field is recomputed by the next step
// before it is read, so a decoded snapshot continues bit-identically.
// The resilient driver's in-memory ring and its durable slots hold the
// same bytes: each cut is encoded once, written to its slot and kept in
// the ring.
//
// A file is a snapshot behind a self-describing header ("HYADES03":
// magic, config words, step, payload byte count, CRC-32), published
// atomically (written to "<path>.tmp", verified by reading the temporary
// back, then renamed).  Every failure path removes the temporary, so a
// failed write never strands a ".tmp" next to the live slot files.  One
// header reader serves every read: it checks the byte count against the
// bytes the file holds before it allocates anything.
//
// Path discipline (enforced by hyades-lint's ckpt-path rule): nothing
// outside this module composes checkpoint file names -- callers hold an
// opaque prefix and go through slot_prefix()/rank_path().  That is what
// lets the elastic-membership driver reason about per-tile recovery
// points (newest_rank_ckpt) without ad-hoc string surgery spread over
// gcm/ and farm/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gcm/config.hpp"
#include "gcm/state.hpp"

namespace hyades::gcm::tile_ckpt {

// "<prefix>.a" / "<prefix>.b": the two alternating durable slots the
// resilient driver rotates through (double buffering).
[[nodiscard]] std::string slot_prefix(const std::string& prefix, int slot);

// "<prefix>.rank<N>": the per-tile file of one group rank.
[[nodiscard]] std::string rank_path(const std::string& prefix,
                                    int group_rank);

// One tile's restartable state: the step and the HYADES03 payload bytes.
struct Snapshot {
  long step = -1;
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] Snapshot encode(const State& s);

// Restore `s` from `snap`.  Throws std::runtime_error, leaving `s`
// untouched, when the payload size does not match s's fields.
void decode(const Snapshot& snap, State* s);

// Publish `snap` to `path` atomically: write "<path>.tmp", read it back
// and compare, rename.  Throws std::runtime_error on any failure --
// after removing the temporary.
void write(const std::string& path, const ModelConfig& cfg,
           const Snapshot& snap);

// Read the snapshot at `path`, verifying magic, config words, payload
// byte count and CRC.  Throws std::runtime_error on any damage,
// including a missing file.
[[nodiscard]] Snapshot read(const std::string& path, const ModelConfig& cfg);

// write(path, cfg, encode(s)).
void save(const std::string& path, const ModelConfig& cfg, const State& s);

// decode(read(path, cfg), s): `s` is touched only once everything
// checked out.
void load(const std::string& path, const ModelConfig& cfg, State* s);

// Read the step counter out of a checkpoint header without reading the
// payload.  Throws if the file is missing or its header is not HYADES03.
[[nodiscard]] long peek_step(const std::string& path);

// Whether read(path, cfg) succeeds; never throws.  peek_step only reads
// the header, so a bit-flipped payload passes it but fails this.
[[nodiscard]] bool verify(const std::string& path, const ModelConfig& cfg);

// A slot is usable as a collective restart point only when every rank's
// file exists, parses, and reports the same step.
struct SlotScan {
  bool consistent = false;
  long step = -1;
};
[[nodiscard]] SlotScan scan_slot(const std::string& prefix, int slot,
                                 int nranks);

// The newest durable checkpoint of one rank's tile with step <=
// max_step, searching both slots.  step == -1 when neither slot holds a
// usable file -- per-tile recovery (live migration) loads exactly one
// tile this way, without requiring whole-slot consistency.
struct TileHit {
  std::string path;
  long step = -1;
};
[[nodiscard]] TileHit newest_rank_ckpt(const std::string& prefix, int rank,
                                       long max_step);

// Remove every rank file of both slots (ignores missing files).
void remove_slots(const std::string& prefix, int nranks);

// Test-only fault injection: invoked with the temporary file's path
// after the write and before the read-back, so tests can corrupt or
// delete the temporary and assert the failure paths clean up.  Pass
// nullptr to clear.  Not thread-safe; set it only around
// single-threaded test saves.
void set_test_corrupt_hook(std::function<void(const std::string&)> hook);

}  // namespace hyades::gcm::tile_ckpt
