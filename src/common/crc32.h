#ifndef TKLUS_COMMON_CRC32_H_
#define TKLUS_COMMON_CRC32_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace tklus {

// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
// persisted byte: 4 KiB database pages, 512-byte simulated-DFS chunks, WAL
// frames and the footer of each saved artifact file. DFS chunk checks sit
// on the query path (every postings fetch verifies the chunks it reads),
// so the kernel is slicing-by-8: eight table lookups retire eight input
// bytes. Output is bit-identical to the byte-at-a-time form, so checksums
// written by older builds still verify. (SSE4.2 `crc32` computes the
// Castagnoli polynomial, CRC-32C, and would not.)
namespace crc32_internal {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][b] advances the CRC of
// byte b through k further zero bytes, so one 8-byte step is an XOR of
// eight lookups.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace crc32_internal

// Incremental form: pass the previous return value as `seed` to extend a
// running checksum across multiple buffers. Starts from 0.
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_internal::kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; p += 8, len -= 8) {
      uint32_t lo = 0;
      uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace tklus

#endif  // TKLUS_COMMON_CRC32_H_
