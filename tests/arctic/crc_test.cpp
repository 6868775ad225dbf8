#include "arctic/crc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/rng.hpp"

namespace hyades::arctic {
namespace {

// The CRC-32 definition, one bit at a time: the reference the table
// method must equal.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> bytes_of(const char* s) {
  std::vector<std::uint8_t> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(Crc32, KnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, MatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  // Lengths 0..300 cover the eight-byte blocks and every tail; offsets
  // 0..7 put the blocks at every alignment.
  SplitMix64 rng(0xc3c32u);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "length " << len << ", offset " << offset;
    }
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto all = bytes_of("the quick brown fox");
  const auto head = bytes_of("the quick ");
  const auto tail = bytes_of("brown fox");
  EXPECT_EQ(crc32(tail, crc32(head)), crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = bytes_of("arctic switch fabric");
  const std::uint32_t good = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      data[i] ^= static_cast<std::uint8_t>(1u << b);
      EXPECT_NE(crc32(data), good) << "undetected flip at " << i << ":" << b;
      data[i] ^= static_cast<std::uint8_t>(1u << b);
    }
  }
}

TEST(Crc32, WordInterfaceIncrementalMatchesOneShot) {
  // The packet CRC chains crc32_words over header words then payload;
  // any split of the stream must give the one-shot result.
  const std::vector<std::uint32_t> all = {0x0BADF00Du, 0xCAFEBABEu, 7u, 0u,
                                          0xFFFFFFFFu, 0x80000001u};
  const std::uint32_t one_shot = crc32_words(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::vector<std::uint32_t> head(all.begin(),
                                          all.begin() + static_cast<long>(split));
    const std::vector<std::uint32_t> tail(all.begin() + static_cast<long>(split),
                                          all.end());
    EXPECT_EQ(crc32_words(tail, crc32_words(head)), one_shot)
        << "split at word " << split;
  }
}

TEST(Crc32, WordInterfaceMatchesByteInterface) {
  const std::vector<std::uint32_t> words = {0xDEADBEEFu, 0x12345678u};
  std::vector<std::uint8_t> bytes(8);
  std::memcpy(bytes.data(), words.data(), 8);  // little-endian host
  EXPECT_EQ(crc32_words(words), crc32(bytes));
}

}  // namespace
}  // namespace hyades::arctic
