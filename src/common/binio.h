// Little-endian byte codec and the checksums of the on-disk formats (see
// docs/FILE_FORMATS.md): ByteWriter/ByteReader, the one encoder and the one
// bounded decoder of every binary payload (.mckpt and the other StateIO
// files, result blobs, binding hashes); FNV-1a; and the
// trace v3 record fold. One definition keeps the formats' byte order and
// checksum functions in lockstep: .mplan binding validation and checkpoint
// source sections cross-reference the trace record checksum, so the trace
// writer, the trace reader and those files must never diverge on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// Appends the primitive encoding of docs/FILE_FORMATS.md ("Primitive
/// encoding") to a growing buffer: fixed-width little-endian integers,
/// doubles as their IEEE-754 bits, raw bytes, and strings as a length in
/// the format's own width (str32/str64) then the bytes.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put32(grow(4), v); }
  void u64(std::uint64_t v) { put64(grow(8), v); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }
  void bytes(std::string_view s) {
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void str32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s);
  }
  void str64(std::string_view s) {
    u64(s.size());
    bytes(s);
  }
  /// Overwrite the u64 at byte offset `at`, already written — for a length
  /// known only after the bytes it counts.
  void patch64(std::size_t at, std::uint64_t v) {
    put64(buf_.data() + at, v);
  }

  /// Drop everything written; the buffer keeps its capacity for reuse.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// FNV-1a over everything written — a binding hash over an encoding.
  [[nodiscard]] std::uint64_t fnv1a() const {
    return binio::fnv1a(kFnvOffset, buf_.data(), buf_.size());
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounded reader over the bytes [p, p + n): the inverse of ByteWriter.
/// Every read checks its length against remaining() before it copies or
/// allocates, so a forged length costs nothing. The first overrun clears
/// ok() for good; from then on every read returns zero/empty and consumes
/// nothing, so a decoder may read a whole record and test ok() once.
class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - at_; }
  /// Mark the input malformed (a decoder's own semantic check failed).
  void fail() { ok_ = false; }

  /// The next `n` bytes, consumed; nullptr (and ok() false) when fewer
  /// than `n` remain.
  const std::uint8_t* take(std::uint64_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* q = p_ + at_;
    at_ += static_cast<std::size_t>(n);
    return q;
  }

  std::uint8_t u8() {
    const std::uint8_t* q = take(1);
    return q != nullptr ? *q : 0;
  }
  std::uint32_t u32() {
    const std::uint8_t* q = take(4);
    return q != nullptr ? get32(q) : 0;
  }
  std::uint64_t u64() {
    const std::uint8_t* q = take(8);
    return q != nullptr ? get64(q) : 0;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// Copy `n` bytes out; false (nothing copied) on overrun.
  bool bytes(std::uint8_t* dst, std::uint64_t n) {
    const std::uint8_t* q = take(n);
    if (q != nullptr && n != 0)
      std::memcpy(dst, q, static_cast<std::size_t>(n));
    return ok_;
  }
  /// `len` bytes as a string — the caller read `len` in its format's width.
  std::string str(std::uint64_t len) {
    const std::uint8_t* q = take(len);
    if (q == nullptr) return {};
    return std::string(reinterpret_cast<const char*>(q),
                       static_cast<std::size_t>(len));
  }

 private:
  const std::uint8_t* p_ = nullptr;
  std::size_t n_ = 0;
  std::size_t at_ = 0;
  bool ok_ = true;
};

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
