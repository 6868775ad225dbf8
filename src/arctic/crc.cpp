#include "arctic/crc.hpp"

#include <array>

namespace hyades::arctic {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slice-by-8 tables: kTables[0] is the byte-at-a-time table, and
// kTables[s][b] is the CRC register after byte b followed by s zero
// bytes, so eight table lookups advance the register by eight bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[s - 1][i];
      t[s][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// The little-endian word at p, whatever p's alignment.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prev) {
  std::uint32_t c = prev ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_words(std::span<const std::uint32_t> words,
                          std::uint32_t prev) {
  // A word's bytes enter low first, four table lookups a word.
  std::uint32_t c = prev ^ 0xFFFFFFFFu;
  for (std::uint32_t w : words) {
    c ^= w;
    c = kTables[3][c & 0xFFu] ^ kTables[2][(c >> 8) & 0xFFu] ^
        kTables[1][(c >> 16) & 0xFFu] ^ kTables[0][c >> 24];
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hyades::arctic
