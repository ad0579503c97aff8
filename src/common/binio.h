// Little-endian byte codec and FNV-1a checksum shared by every on-disk
// format (trace v2, sample plans — see docs/FILE_FORMATS.md). One
// definition keeps the formats' byte order and checksum function in
// lockstep: .mplan binding validation cross-references the trace v2
// checksum, so the two files must never diverge on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace malec::binio {

// Little-endian hosts move whole words (one unaligned load or store); any
// other host, or a compiler that does not say, takes the byte loops, which
// are correct everywhere.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kLittleEndianHost = true;
#else
inline constexpr bool kLittleEndianHost = false;
#endif

inline void put64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (kLittleEndianHost) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
inline void put32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (kLittleEndianHost) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
inline std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}
inline std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// FNV-1a 64-bit offset basis — pass as the initial `h` to fnv1a().
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold `n` bytes into a running FNV-1a 64-bit hash.
inline std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace malec::binio
