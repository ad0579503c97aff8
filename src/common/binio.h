// Little-endian byte codec and the checksums of the on-disk formats (see
// docs/FILE_FORMATS.md): FNV-1a, and the trace v3 record fold. One
// definition keeps the formats' byte order and checksum functions in
// lockstep: .mplan binding validation and checkpoint source sections
// cross-reference the trace record checksum, so the trace writer, the
// trace reader and those files must never diverge on it.
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

/// Bytes in one encoded trace record (docs/FILE_FORMATS.md, "Record"):
/// seq, vaddr, kind, size, dep_distance, addr_dep_distance.
inline constexpr std::size_t kTraceRecordBytes = 8 + 8 + 1 + 1 + 4 + 4;

/// The SplitMix64 finaliser: a bijection that avalanches every input bit.
/// Pure u64 math — identical on every platform.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Trace v3 record digest: each of the record's little-endian words —
/// bytes 0-7, 8-15 and 16-23, and the u16 at 24 — times its own odd
/// constant and avalanched on its own, then the four summed. Each term is a
/// bijection of its word, so a change confined to one word always changes
/// the digest; the terms are nonlinear, so no fixed pattern of bit flips
/// across words cancels out in the sum.
inline std::uint64_t traceRecordDigest(const std::uint8_t* rec) {
  const std::uint64_t tail =
      static_cast<std::uint64_t>(rec[24]) |
      static_cast<std::uint64_t>(rec[25]) << 8;
  return mix64(get64(rec) * 0x9e3779b97f4a7c15ull) +
         mix64(get64(rec + 8) * 0xc2b2ae3d27d4eb4full) +
         mix64(get64(rec + 16) * 0x165667b19e3779f9ull) +
         mix64(tail * 0xd6e8feb86659fd93ull);
}

/// Fold `n` encoded records into a running trace v3 checksum: one xor and
/// one multiply per record, `s = (s ^ digest(rec)) * kFnvPrime`, from
/// kFnvOffset. The digests are independent, so they overlap in the CPU.
inline std::uint64_t foldTraceRecords(std::uint64_t s, const std::uint8_t* p,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i, p += kTraceRecordBytes)
    s = (s ^ traceRecordDigest(p)) * kFnvPrime;
  return s;
}

}  // namespace malec::binio
