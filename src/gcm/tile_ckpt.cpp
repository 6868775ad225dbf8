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
template <typename S>  // State or const State
auto payload_fields(S& s) {
  return std::array{&s.u,      &s.v,      &s.w,      &s.theta,
                    &s.salt,   &s.gu_nm1, &s.gv_nm1, &s.gt_nm1,
                    &s.gs_nm1, &s.gw_nm1, &s.phi_nh};
}

std::size_t payload_bytes(const State& s) {
  std::size_t n = s.ps.size();
  for (const Array3D<double>* f : payload_fields(s)) n += f->size();
  return n * sizeof(double);
}

// Remove the temporary and rethrow-style throw: every save failure path
// funnels through here so a failed publish never strands a ".tmp".
[[noreturn]] void fail_save(const std::string& tmp, const std::string& msg) {
  std::remove(tmp.c_str());
  throw std::runtime_error(msg);
}

struct Header {
  long step = 0;
  std::uint64_t bytes = 0;  // payload bytes
  std::uint32_t crc = 0;
};

// The one HYADES03 header parser.  A full read (`cfg` given) also checks
// the config words, and the payload byte count against the bytes the
// file holds: no CRC covers the header, so a damaged count is refused
// here, before anything is allocated.  peek_step passes no `cfg`; it
// needs only the step.  Errors are std::runtime_errors prefixed `who`.
Header read_header(std::istream& is, const std::string& path,
                   const ModelConfig* cfg, const std::string& who) {
  const std::uint64_t magic = read_u64(is);
  if (!is || magic != kCheckpointMagic) {
    throw std::runtime_error(who + ": bad magic in " + path + " (got " +
                             hex_u64(magic) + ", want HYADES03 " +
                             hex_u64(kCheckpointMagic) + ")");
  }
  std::array<std::uint64_t, 10> words{};  // config words, step, bytes, CRC
  for (std::uint64_t& w : words) w = read_u64(is);
  if (!is) throw std::runtime_error(who + ": truncated header in " + path);
  const Header h{static_cast<long>(words[7]), words[8],
                 static_cast<std::uint32_t>(words[9])};
  if (cfg == nullptr) return h;
  const std::array<ConfigWord, 7> want = config_words(*cfg);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (words[i] != want[i].value) {
      throw std::runtime_error(
          who + ": configuration mismatch in " + path + ": " + want[i].name +
          " is " + std::to_string(words[i]) + " in the file, model has " +
          std::to_string(want[i].value));
    }
  }
  const std::streampos payload_at = is.tellg();
  is.seekg(0, std::ios::end);
  const auto held = static_cast<std::uint64_t>(is.tellg() - payload_at);
  is.seekg(payload_at);
  if (!is || h.bytes != held) {
    throw std::runtime_error(
        who + ": payload size mismatch in " + path + ": header says " +
        std::to_string(h.bytes) + " bytes, the file holds " +
        std::to_string(held));
  }
  return h;
}

Snapshot read_as(const std::string& path, const ModelConfig& cfg,
                 const std::string& who) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error(who + ": cannot open " + path);
  const Header h = read_header(is, path, &cfg, who);
  Snapshot snap;
  snap.step = h.step;
  snap.payload.resize(h.bytes);
  is.read(reinterpret_cast<char*>(snap.payload.data()),
          static_cast<std::streamsize>(snap.payload.size()));
  if (!is) throw std::runtime_error(who + ": cannot read " + path);
  const std::uint32_t crc = arctic::crc32(snap.payload);
  if (crc != h.crc) {
    throw std::runtime_error(who + ": CRC mismatch in " + path +
                             " (stored " + hex_u64(h.crc) + ", computed " +
                             hex_u64(crc) + "): the checkpoint is corrupt");
  }
  return snap;
}

}  // namespace

std::string slot_prefix(const std::string& prefix, int slot) {
  return prefix + (slot == 0 ? ".a" : ".b");
}

std::string rank_path(const std::string& prefix, int group_rank) {
  return prefix + ".rank" + std::to_string(group_rank);
}

Snapshot encode(const State& s) {
  Snapshot snap;
  snap.step = s.step;
  snap.payload.reserve(payload_bytes(s));
  const auto append = [&snap](const double* p, std::size_t n) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(p);
    snap.payload.insert(snap.payload.end(), b, b + n * sizeof(double));
  };
  for (const Array3D<double>* f : payload_fields(s)) {
    append(f->data(), f->size());
  }
  append(s.ps.data(), s.ps.size());
  return snap;
}

void decode(const Snapshot& snap, State* s) {
  const std::size_t want = payload_bytes(*s);
  if (snap.payload.size() != want) {
    throw std::runtime_error(
        "decode: payload size mismatch: the snapshot holds " +
        std::to_string(snap.payload.size()) +
        " bytes, the model state needs " + std::to_string(want));
  }
  s->step = snap.step;
  std::size_t off = 0;
  const auto extract = [&snap, &off](double* p, std::size_t n) {
    std::memcpy(p, snap.payload.data() + off, n * sizeof(double));
    off += n * sizeof(double);
  };
  for (Array3D<double>* f : payload_fields(*s)) {
    extract(f->data(), f->size());
  }
  extract(s->ps.data(), s->ps.size());
}

void write(const std::string& path, const ModelConfig& cfg,
           const Snapshot& snap) {
  // Atomic publish: write the whole file under a temporary name, verify
  // it, then rename onto the real path.  A crash mid-write leaves the
  // previous complete checkpoint in place, never a half-written file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) fail_save(tmp, "save_checkpoint: cannot open " + tmp);
    write_u64(os, kCheckpointMagic);
    for (const ConfigWord& w : config_words(cfg)) write_u64(os, w.value);
    write_u64(os, static_cast<std::uint64_t>(snap.step));
    write_u64(os, static_cast<std::uint64_t>(snap.payload.size()));
    write_u64(os, static_cast<std::uint64_t>(arctic::crc32(snap.payload)));
    os.write(reinterpret_cast<const char*>(snap.payload.data()),
             static_cast<std::streamsize>(snap.payload.size()));
    os.close();
    if (!os) fail_save(tmp, "save_checkpoint: write failed: " + tmp);
  }
  if (corrupt_hook()) corrupt_hook()(tmp);
  // Post-write verify: read the temporary back through the loader's own
  // checks before publishing.  A full disk, a torn write, or (in tests)
  // the corrupt hook all surface here -- and the temporary is removed.
  Snapshot back;
  try {
    back = read_as(tmp, cfg, "save_checkpoint: verify failed");
  } catch (const std::runtime_error& e) {
    fail_save(tmp, e.what());
  }
  if (back.step != snap.step || back.payload != snap.payload) {
    fail_save(tmp, "save_checkpoint: verify failed (read back differs) in " +
                       tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail_save(tmp,
              "save_checkpoint: cannot rename " + tmp + " onto " + path);
  }
}

Snapshot read(const std::string& path, const ModelConfig& cfg) {
  return read_as(path, cfg, "load_checkpoint");
}

void save(const std::string& path, const ModelConfig& cfg, const State& s) {
  write(path, cfg, encode(s));
}

void load(const std::string& path, const ModelConfig& cfg, State* s) {
  decode(read(path, cfg), s);
}

long peek_step(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("peek_step: cannot open " + path);
  return read_header(is, path, nullptr, "peek_step").step;
}

bool verify(const std::string& path, const ModelConfig& cfg) {
  try {
    (void)read(path, cfg);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
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
