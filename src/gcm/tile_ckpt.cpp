#include "gcm/tile_ckpt.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arctic/crc.hpp"

namespace hyades::gcm::tile_ckpt {

namespace {
// "HYADES03": version 3 adds the self-describing header -- payload byte
// count and a CRC-32 (the same arctic polynomial the fabric uses end to
// end) -- so a truncated or bit-flipped file fails fast at load instead
// of silently seeding a diverged restart.
constexpr std::uint64_t kCheckpointMagic = 0x4859414445533033ull;

std::function<void(const std::string&)>& corrupt_hook() {
  static std::function<void(const std::string&)> hook;
  return hook;
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

std::string hex_u64(std::uint64_t v) {
  std::ostringstream ss;
  ss << "0x" << std::hex << v;
  return ss.str();
}

struct ConfigWord {
  const char* name;
  std::uint64_t value;
};

std::array<ConfigWord, 7> config_words(const ModelConfig& cfg) {
  return {{{"nx", static_cast<std::uint64_t>(cfg.nx)},
           {"ny", static_cast<std::uint64_t>(cfg.ny)},
           {"nz", static_cast<std::uint64_t>(cfg.nz)},
           {"px", static_cast<std::uint64_t>(cfg.px)},
           {"py", static_cast<std::uint64_t>(cfg.py)},
           {"halo", static_cast<std::uint64_t>(cfg.halo)},
           {"isomorph",
            static_cast<std::uint64_t>(cfg.isomorph == Isomorph::kOcean ? 0
                                                                        : 1)}}};
}

// The payload field order is part of the format: the prognostic fields,
// the Adams-Bashforth n-1 tendencies, the non-hydrostatic pressure, and
// the surface pressure.
std::array<const Array3D<double>*, 11> payload_fields(const State& s) {
  return {&s.u,      &s.v,      &s.w,      &s.theta,  &s.salt, &s.gu_nm1,
          &s.gv_nm1, &s.gt_nm1, &s.gs_nm1, &s.gw_nm1, &s.phi_nh};
}

std::array<Array3D<double>*, 11> payload_fields(State& s) {
  return {&s.u,      &s.v,      &s.w,      &s.theta,  &s.salt, &s.gu_nm1,
          &s.gv_nm1, &s.gt_nm1, &s.gs_nm1, &s.gw_nm1, &s.phi_nh};
}

// Remove the temporary and rethrow-style throw: every save failure path
// funnels through here so a failed publish never strands a ".tmp".
[[noreturn]] void fail_save(const std::string& tmp, const std::string& msg) {
  std::remove(tmp.c_str());
  throw std::runtime_error(msg);
}

}  // namespace

std::string slot_prefix(const std::string& prefix, int slot) {
  return prefix + (slot == 0 ? ".a" : ".b");
}

std::string rank_path(const std::string& prefix, int group_rank) {
  return prefix + ".rank" + std::to_string(group_rank);
}

void save(const std::string& path, const ModelConfig& cfg, const State& s) {
  // Serialize the state payload in memory first, so the header can carry
  // its byte count and CRC-32.
  std::vector<std::uint8_t> payload;
  const auto append = [&payload](const double* p, std::size_t n) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(p);
    payload.insert(payload.end(), b, b + n * sizeof(double));
  };
  for (const Array3D<double>* f : payload_fields(s)) {
    append(f->data(), f->size());
  }
  append(s.ps.data(), s.ps.size());
  const std::uint32_t crc = arctic::crc32(payload);

  // Atomic publish: write the whole file under a temporary name, verify
  // it, then rename onto the real path.  A crash mid-write leaves the
  // previous complete checkpoint in place, never a half-written file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) fail_save(tmp, "save_checkpoint: cannot open " + tmp);
    write_u64(os, kCheckpointMagic);
    for (const ConfigWord& w : config_words(cfg)) write_u64(os, w.value);
    write_u64(os, static_cast<std::uint64_t>(s.step));
    write_u64(os, static_cast<std::uint64_t>(payload.size()));
    write_u64(os, static_cast<std::uint64_t>(crc));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    os.close();
    if (!os) fail_save(tmp, "save_checkpoint: write failed: " + tmp);
  }
  if (corrupt_hook()) corrupt_hook()(tmp);
  // Post-write verify: re-read the temporary and check header + CRC
  // before publishing.  A full disk, a torn write, or (in tests) the
  // corrupt hook all surface here -- and the temporary is removed.
  {
    std::ifstream is(tmp, std::ios::binary);
    if (!is) fail_save(tmp, "save_checkpoint: cannot re-read " + tmp);
    const std::uint64_t magic = read_u64(is);
    if (!is || magic != kCheckpointMagic) {
      fail_save(tmp, "save_checkpoint: verify failed (bad magic) in " + tmp);
    }
    for (int i = 0; i < 7; ++i) (void)read_u64(is);  // config words
    (void)read_u64(is);                              // step
    const std::uint64_t bytes = read_u64(is);
    const std::uint64_t crc_stored = read_u64(is);
    if (!is || bytes != payload.size()) {
      fail_save(tmp,
                "save_checkpoint: verify failed (truncated header) in " + tmp);
    }
    std::vector<std::uint8_t> back(payload.size());
    is.read(reinterpret_cast<char*>(back.data()),
            static_cast<std::streamsize>(back.size()));
    if (!is || static_cast<std::uint64_t>(is.gcount()) != payload.size()) {
      fail_save(tmp,
                "save_checkpoint: verify failed (truncated payload) in " + tmp);
    }
    const std::uint32_t crc_back = arctic::crc32(back);
    if (crc_back != crc || crc_back != static_cast<std::uint32_t>(crc_stored)) {
      fail_save(tmp, "save_checkpoint: verify failed (CRC mismatch, wrote " +
                         hex_u64(crc) + ", read back " + hex_u64(crc_back) +
                         ") in " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail_save(tmp,
              "save_checkpoint: cannot rename " + tmp + " onto " + path);
  }
}

void load(const std::string& path, const ModelConfig& cfg, State* s) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_checkpoint: cannot open " + path);
  const std::uint64_t magic = read_u64(is);
  if (!is || magic != kCheckpointMagic) {
    throw std::runtime_error("load_checkpoint: bad magic in " + path +
                             " (got " + hex_u64(magic) + ", want HYADES03 " +
                             hex_u64(kCheckpointMagic) + ")");
  }
  for (const ConfigWord& w : config_words(cfg)) {
    const std::uint64_t got = read_u64(is);
    if (!is) {
      throw std::runtime_error("load_checkpoint: truncated header in " + path);
    }
    if (got != w.value) {
      throw std::runtime_error(
          "load_checkpoint: configuration mismatch in " + path + ": " +
          w.name + " is " + std::to_string(got) + " in the file, model has " +
          std::to_string(w.value));
    }
  }
  const std::uint64_t step = read_u64(is);
  const std::uint64_t payload_bytes = read_u64(is);
  const std::uint64_t crc_stored = read_u64(is);
  if (!is) {
    throw std::runtime_error("load_checkpoint: truncated header in " + path);
  }

  std::size_t expect_bytes = 0;
  for (const Array3D<double>* f : payload_fields(*s)) {
    expect_bytes += f->size() * sizeof(double);
  }
  expect_bytes += s->ps.size() * sizeof(double);
  if (payload_bytes != expect_bytes) {
    throw std::runtime_error(
        "load_checkpoint: payload size mismatch in " + path + ": header says " +
        std::to_string(payload_bytes) + " bytes, model state needs " +
        std::to_string(expect_bytes));
  }

  std::vector<std::uint8_t> payload(payload_bytes);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != payload_bytes) {
    throw std::runtime_error(
        "load_checkpoint: truncated " + path + " (payload has " +
        std::to_string(is.gcount() > 0 ? is.gcount() : 0) + " of " +
        std::to_string(payload_bytes) + " bytes)");
  }
  const std::uint32_t crc = arctic::crc32(payload);
  if (crc != static_cast<std::uint32_t>(crc_stored)) {
    throw std::runtime_error(
        "load_checkpoint: CRC mismatch in " + path + " (stored " +
        hex_u64(crc_stored) + ", computed " + hex_u64(crc) +
        "): the checkpoint is corrupt");
  }

  // Header and payload verified; only now touch the model state.
  s->step = static_cast<long>(step);
  std::size_t off = 0;
  const auto extract = [&payload, &off](double* p, std::size_t n) {
    std::memcpy(p, payload.data() + off, n * sizeof(double));
    off += n * sizeof(double);
  };
  for (Array3D<double>* f : payload_fields(*s)) {
    extract(f->data(), f->size());
  }
  extract(s->ps.data(), s->ps.size());
}

bool verify(const std::string& path, const ModelConfig& cfg) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  const std::uint64_t magic = read_u64(is);
  if (!is || magic != kCheckpointMagic) return false;
  for (const ConfigWord& w : config_words(cfg)) {
    const std::uint64_t got = read_u64(is);
    if (!is || got != w.value) return false;
  }
  (void)read_u64(is);  // step
  const std::uint64_t payload_bytes = read_u64(is);
  const std::uint64_t crc_stored = read_u64(is);
  if (!is) return false;
  std::vector<std::uint8_t> payload(payload_bytes);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != payload_bytes) {
    return false;
  }
  return arctic::crc32(payload) == static_cast<std::uint32_t>(crc_stored);
}

long peek_step(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("peek_step: cannot open " + path);
  }
  const std::uint64_t magic = read_u64(is);
  if (!is || magic != kCheckpointMagic) {
    throw std::runtime_error("peek_step: bad magic in " + path +
                             " (got " + hex_u64(magic) + ", want HYADES03 " +
                             hex_u64(kCheckpointMagic) + ")");
  }
  for (int i = 0; i < 7; ++i) (void)read_u64(is);  // config words
  const std::uint64_t step = read_u64(is);
  if (!is) {
    throw std::runtime_error("peek_step: truncated header in " + path);
  }
  return static_cast<long>(step);
}

SlotScan scan_slot(const std::string& prefix, int slot, int nranks) {
  SlotScan scan;
  long step = -1;
  for (int r = 0; r < nranks; ++r) {
    long s = -1;
    try {
      s = peek_step(rank_path(slot_prefix(prefix, slot), r));
    } catch (const std::runtime_error&) {
      return scan;  // missing or unreadable file
    }
    if (r == 0) {
      step = s;
    } else if (s != step) {
      return scan;  // mixed steps: abort caught the slot mid-rotation
    }
  }
  scan.consistent = step >= 0;
  scan.step = step;
  return scan;
}

TileHit newest_rank_ckpt(const std::string& prefix, int rank, long max_step) {
  TileHit best;
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = rank_path(slot_prefix(prefix, slot), rank);
    long step = -1;
    try {
      step = peek_step(path);
    } catch (const std::runtime_error&) {
      continue;  // slot never written (or torn): not a candidate
    }
    if (step <= max_step && step > best.step) {
      best.path = path;
      best.step = step;
    }
  }
  return best;
}

void remove_slots(const std::string& prefix, int nranks) {
  for (int slot = 0; slot < 2; ++slot) {
    for (int r = 0; r < nranks; ++r) {
      std::remove(rank_path(slot_prefix(prefix, slot), r).c_str());
    }
  }
}

void set_test_corrupt_hook(std::function<void(const std::string&)> hook) {
  corrupt_hook() = std::move(hook);
}

}  // namespace hyades::gcm::tile_ckpt
