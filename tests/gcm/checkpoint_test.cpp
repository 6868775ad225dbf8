#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <vector>

#include "gcm/model.hpp"
#include "gcm/tile_ckpt.hpp"
#include "support/rng.hpp"
#include "tests/gcm/gcm_test_util.hpp"

namespace hyades::gcm {
namespace {

using testing::run_ranks;
using testing::small_ocean;

std::string prefix_for(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void cleanup(const std::string& prefix, int ranks) {
  for (int r = 0; r < ranks; ++r) {
    std::remove((prefix + ".rank" + std::to_string(r)).c_str());
  }
}

TEST(Checkpoint, RestartContinuesBitIdentically) {
  const ModelConfig cfg = small_ocean(2, 2);
  const std::string prefix = prefix_for("hyades_ckpt_a");

  // Reference: 10 uninterrupted steps.
  std::mutex mu;
  double ref_ke = 0, ref_theta = 0;
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    m.run(10);
    if (comm.group_rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ref_ke = m.kinetic_energy();
      ref_theta = m.total_theta_volume();
    } else {
      (void)m.kinetic_energy();
      (void)m.total_theta_volume();
    }
  });

  // Interrupted: 6 steps, checkpoint, fresh models restart for 4 more.
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    m.run(6);
    m.save_checkpoint(prefix);
  });
  run_ranks(4, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.load_checkpoint(prefix);
    EXPECT_EQ(m.state().step, 6);
    m.run(4);
    const double ke = m.kinetic_energy();
    const double th = m.total_theta_volume();
    if (comm.group_rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_EQ(ke, ref_ke);  // bitwise
      EXPECT_EQ(th, ref_theta);
    }
  });
  cleanup(prefix, 4);
}

TEST(Checkpoint, MismatchedConfigRejected) {
  const std::string prefix = prefix_for("hyades_ckpt_b");
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    m.initialize();
    m.save_checkpoint(prefix);
  });
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    ModelConfig other = small_ocean(1, 1);
    other.nz = 3;  // differs from the checkpoint
    other.validate();
    Model m(other, comm);
    EXPECT_THROW(m.load_checkpoint(prefix), std::runtime_error);
  });
  cleanup(prefix, 1);
}

TEST(Checkpoint, MissingFileRejected) {
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    EXPECT_THROW(m.load_checkpoint("/nonexistent/path/ckpt"),
                 std::runtime_error);
  });
}

TEST(Checkpoint, TruncatedFileRejected) {
  const std::string prefix = prefix_for("hyades_ckpt_c");
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    m.initialize();
    m.save_checkpoint(prefix);
  });
  // Truncate the file to half.
  const std::string path = prefix + ".rank0";
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    EXPECT_THROW(m.load_checkpoint(prefix), std::runtime_error);
  });
  cleanup(prefix, 1);
}

TEST(Checkpoint, BitFlippedPayloadRejectedByCrc) {
  // A single flipped bit anywhere in the payload must trip the CRC with
  // a message that says so -- a checkpoint that loads garbage silently
  // would poison a restarted run.
  const std::string prefix = prefix_for("hyades_ckpt_d");
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    m.initialize();
    m.run(3);
    m.save_checkpoint(prefix);
  });
  const std::string path = tile_ckpt::rank_path(prefix, 0);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto size = std::filesystem::file_size(path);
    f.seekg(static_cast<std::streamoff>(size) - 17);  // deep in the payload
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(size) - 17);
    f.write(&byte, 1);
  }
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    try {
      m.load_checkpoint(prefix);
      FAIL() << "bit-flipped checkpoint loaded without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
          << "error should name the CRC: " << e.what();
    }
  });
  cleanup(prefix, 1);
}

TEST(Checkpoint, DiskRoundTripIntoFreshModelIsBitIdentical) {
  // Save after a few steps, load into a brand-new (never initialized)
  // model, and require every prognostic value to round-trip through the
  // disk format bit-exactly -- compared as hexfloat strings so any
  // mismatch shows the exact bit pattern.
  const ModelConfig cfg = small_ocean(1, 1);
  const std::string prefix = prefix_for("hyades_ckpt_e");
  std::vector<double> want;
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);
    m.initialize();
    m.run(5);
    m.save_checkpoint(prefix);
    const State& s = m.state();
    want.assign(s.u.data(), s.u.data() + s.u.size());
    want.insert(want.end(), s.theta.data(), s.theta.data() + s.theta.size());
    want.insert(want.end(), s.ps.data(), s.ps.data() + s.ps.size());
  });
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(cfg, comm);  // fresh: no initialize(), state is all zeros
    m.load_checkpoint(prefix);
    EXPECT_EQ(m.state().step, 5);
    const State& s = m.state();
    std::vector<double> got(s.u.data(), s.u.data() + s.u.size());
    got.insert(got.end(), s.theta.data(), s.theta.data() + s.theta.size());
    got.insert(got.end(), s.ps.data(), s.ps.data() + s.ps.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      std::ostringstream w, g;
      w << std::hexfloat << want[i];
      g << std::hexfloat << got[i];
      ASSERT_EQ(g.str(), w.str()) << "value " << i << " changed on disk";
    }
  });
  cleanup(prefix, 1);
}

TEST(Checkpoint, BadMagicRejectedAndStepParserWorks) {
  const std::string prefix = prefix_for("hyades_ckpt_f");
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    m.initialize();
    m.run(7);
    m.save_checkpoint(prefix);
  });
  const std::string path = tile_ckpt::rank_path(prefix, 0);
  // The header parser reads the step without touching any model.
  EXPECT_EQ(tile_ckpt::peek_step(path), 7);
  // Corrupt the magic: the loader must refuse before reading anything
  // else, and say what it expected.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const char junk = 'X';
    f.seekp(2);
    f.write(&junk, 1);
  }
  try {
    (void)tile_ckpt::peek_step(path);
    FAIL() << "bad-magic header parsed without error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("peek_step: bad magic", 0), 0u)
        << e.what();
  }
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    try {
      m.load_checkpoint(prefix);
      FAIL() << "bad-magic checkpoint loaded without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
          << "error should name the magic: " << e.what();
    }
  });
  cleanup(prefix, 1);
}

TEST(Checkpoint, SaveIsAtomicNoTmpFileSurvives) {
  // save_checkpoint writes to a `.tmp` sibling and renames; after a
  // successful save the temporary must be gone and the final file
  // complete.  A crash mid-write can strand a .tmp but never a partial
  // final file -- loaders only ever see complete checkpoints.
  const std::string prefix = prefix_for("hyades_ckpt_g");
  run_ranks(1, [&](cluster::RankContext&, comm::Comm& comm) {
    Model m(small_ocean(1, 1), comm);
    m.initialize();
    m.save_checkpoint(prefix);
  });
  const std::string path = tile_ckpt::rank_path(prefix, 0);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  cleanup(prefix, 1);
}

// A one-tile State whose every field, payload or not, holds seeded
// noise, at step 42.
State seeded_state(const ModelConfig& cfg) {
  const Decomp dec(cfg, 0);
  State s;
  s.allocate(dec, cfg.nz);
  SplitMix64 rng(20251019);
  for (Array3D<double>* f :
       {&s.u, &s.v, &s.w, &s.theta, &s.salt, &s.gu, &s.gv, &s.gt, &s.gs,
        &s.gw, &s.gu_nm1, &s.gv_nm1, &s.gt_nm1, &s.gs_nm1, &s.gw_nm1, &s.phi,
        &s.phi_nh}) {
    for (double& x : *f) x = rng.next_double() - 0.5;
  }
  for (std::size_t i = 0; i < s.ps.size(); ++i) {
    s.ps.data()[i] = rng.next_double() - 0.5;
  }
  s.step = 42;
  return s;
}

TEST(TileCkpt, SavedFileIsLockedAndReadsBackAsTheEncoding) {
  // The HYADES03 bytes are a format, not an implementation detail: the
  // file save() writes for a fixed state is locked to the FNV-1a digest
  // captured before the in-memory snapshot existed, and reading it back
  // yields exactly encode() of the state.
  const ModelConfig cfg = small_ocean(1, 1);
  const State s = seeded_state(cfg);
  const std::string path = tile_ckpt::rank_path(prefix_for("hyades_ckpt_h"), 0);
  tile_ckpt::save(path, cfg, s);

  std::ifstream is(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                                std::istreambuf_iterator<char>());
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 86488u);
  EXPECT_EQ(digest, 0xe92982ade0370b0cULL);

  const tile_ckpt::Snapshot want = tile_ckpt::encode(s);
  const tile_ckpt::Snapshot got = tile_ckpt::read(path, cfg);
  EXPECT_EQ(got.step, 42);
  EXPECT_EQ(got.step, want.step);
  EXPECT_TRUE(got.payload == want.payload);
  // An 11-word header, then the payload up to the file's last byte.
  EXPECT_EQ(bytes.size(), 11 * sizeof(std::uint64_t) + want.payload.size());
  std::remove(path.c_str());
}

TEST(TileCkpt, DecodeRefusesAWrongSizedPayloadWithoutTouchingTheState) {
  const ModelConfig cfg = small_ocean(1, 1);
  const State s = seeded_state(cfg);
  tile_ckpt::Snapshot snap = tile_ckpt::encode(s);
  snap.payload.pop_back();

  State t;
  t.allocate(Decomp(cfg, 0), cfg.nz);
  t.step = 5;
  EXPECT_THROW(tile_ckpt::decode(snap, &t), std::runtime_error);
  EXPECT_EQ(t.step, 5);
  for (const double x : t.u) ASSERT_EQ(x, 0.0);
  for (const double x : t.theta) ASSERT_EQ(x, 0.0);

  tile_ckpt::decode(tile_ckpt::encode(s), &t);
  EXPECT_EQ(t.step, 42);
  EXPECT_EQ(std::memcmp(t.u.data(), s.u.data(), s.u.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(t.ps.data(), s.ps.data(),
                        s.ps.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace hyades::gcm
