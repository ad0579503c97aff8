#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/binio.h"
#include "phase/sample_plan.h"
#include "trace/synth_generator.h"
#include "trace/workloads.h"

namespace malec::trace {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(TraceIo, RoundTrip) {
  const std::string path = tmpPath("roundtrip.mtrace");
  std::vector<InstrRecord> recs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    InstrRecord r;
    r.seq = i;
    r.kind = static_cast<InstrKind>(i % 3);
    r.vaddr = 0x1000 + i * 8;
    r.size = 8;
    r.dep_distance = static_cast<std::uint32_t>(i % 5);
    r.addr_dep_distance = static_cast<std::uint32_t>(i % 7);
    recs.push_back(r);
  }
  {
    TraceWriter w(path);
    ASSERT_TRUE(w.ok());
    for (const auto& r : recs) w.write(r);
    EXPECT_TRUE(w.close());
    EXPECT_EQ(w.written(), 100u);
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.total(), 100u);
  InstrRecord r;
  std::size_t i = 0;
  while (rd.next(r)) {
    EXPECT_EQ(r.seq, recs[i].seq);
    EXPECT_EQ(static_cast<int>(r.kind), static_cast<int>(recs[i].kind));
    EXPECT_EQ(r.vaddr, recs[i].vaddr);
    EXPECT_EQ(r.size, recs[i].size);
    EXPECT_EQ(r.dep_distance, recs[i].dep_distance);
    EXPECT_EQ(r.addr_dep_distance, recs[i].addr_dep_distance);
    ++i;
  }
  EXPECT_EQ(i, recs.size());
  std::remove(path.c_str());
}

TEST(TraceIo, ReaderResetReplays) {
  const std::string path = tmpPath("reset.mtrace");
  {
    TraceWriter w(path);
    InstrRecord r;
    r.kind = InstrKind::kLoad;
    r.vaddr = 42;
    r.size = 8;  // loads must carry a valid access size since v2
    w.write(r);
    w.close();
  }
  TraceReader rd(path);
  InstrRecord r;
  ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.next(r));
  rd.reset();
  ASSERT_TRUE(rd.next(r));
  EXPECT_EQ(r.vaddr, 42u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileNotOk) {
  TraceReader rd("/nonexistent/path/x.mtrace");
  EXPECT_FALSE(rd.ok());
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = tmpPath("bad.mtrace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[32] = "this is not a trace file";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  std::remove(path.c_str());
}

TEST(TraceIo, GeneratorCaptureReplayEquivalence) {
  // Capture a synthetic stream and verify the replay drives identically.
  const std::string path = tmpPath("capture.mtrace");
  const auto wl = workloadByName("eon");
  const AddressLayout layout;
  SyntheticTraceGenerator gen(wl, layout, 2000, 11);
  {
    TraceWriter w(path);
    InstrRecord r;
    while (gen.next(r)) w.write(r);
    w.close();
  }
  gen.reset();
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord a, b;
  while (gen.next(a)) {
    ASSERT_TRUE(rd.next(b));
    EXPECT_EQ(a.vaddr, b.vaddr);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_FALSE(rd.next(b));
  std::remove(path.c_str());
}

// --- v3 format, validation and failure-mode regressions ---------------------

namespace detail {

constexpr std::size_t kHeaderBytesV2 = 52;
constexpr std::size_t kRecordBytes = 26;

/// `n` deterministic records: other, load, store in turn.
std::vector<InstrRecord> makeRecords(std::uint64_t n) {
  std::vector<InstrRecord> recs;
  for (std::uint64_t i = 0; i < n; ++i) {
    InstrRecord r;
    r.seq = i;
    r.kind = static_cast<InstrKind>(i % 3);
    r.vaddr = 0x4000 + i * 16;
    r.size = r.isMem() ? 8 : 0;
    recs.push_back(r);
  }
  return recs;
}

/// Write `recs` to `path` with TraceWriter (the current format).
void writeRecords(const std::string& path,
                  const std::vector<InstrRecord>& recs) {
  TraceWriter w(path);
  EXPECT_TRUE(w.ok());
  for (const InstrRecord& r : recs) w.write(r);
  EXPECT_TRUE(w.close());
}

/// Write makeRecords(n) to `path`; returns the records.
std::vector<InstrRecord> writeTrace(const std::string& path, std::uint64_t n) {
  std::vector<InstrRecord> recs = makeRecords(n);
  writeRecords(path, recs);
  return recs;
}

/// Overwrite one byte at `offset`.
void corruptByte(const std::string& path, long offset, std::uint8_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(value, f);
  std::fclose(f);
}

void truncateTo(const std::string& path, long size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

}  // namespace detail

TEST(TraceIoV3, WriterProducesV3WithLayout) {
  const std::string path = tmpPath("v3layout.mtrace");
  AddressLayout::Params params;
  params.page_bytes = 16 * 1024;  // non-default, must round-trip
  {
    TraceWriter w(path, AddressLayout(params));
    InstrRecord r;
    r.kind = InstrKind::kLoad;
    r.vaddr = 64;
    r.size = 8;
    w.write(r);
    ASSERT_TRUE(w.close());
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.version(), 3u);
  EXPECT_EQ(rd.version(), kTraceVersion);
  ASSERT_TRUE(rd.hasLayout());
  EXPECT_EQ(rd.layoutParams().page_bytes, 16u * 1024);
  EXPECT_EQ(rd.layoutParams().addr_bits, params.addr_bits);
  EXPECT_EQ(rd.layoutParams().l1_banks, params.l1_banks);
  std::remove(path.c_str());
}

TEST(TraceIoV3, TruncatedFileIsHardErrorAtOpen) {
  const std::string path = tmpPath("trunc.mtrace");
  detail::writeTrace(path, 50);
  // Chop off the tail of the last record: the header still promises 50.
  detail::truncateTo(path, static_cast<long>(detail::kHeaderBytesV2 +
                                             49 * detail::kRecordBytes + 7));
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("truncated"), std::string::npos) << rd.error();
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  std::remove(path.c_str());
}

TEST(TraceIoV3, TrailingGarbageIsHardErrorAtOpen) {
  const std::string path = tmpPath("tail.mtrace");
  detail::writeTrace(path, 10);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  std::fputc('x', f);
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  std::remove(path.c_str());
}

TEST(TraceIoV3, BadKindByteRejectedAtRead) {
  const std::string path = tmpPath("badkind.mtrace");
  detail::writeTrace(path, 20);
  // Record 7's kind byte -> 9 (no such InstrKind).
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        7 * detail::kRecordBytes + 16),
                      9);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  std::size_t served = 0;
  while (rd.next(r)) ++served;
  EXPECT_EQ(served, 7u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("invalid instruction kind"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV3, BadSizeByteRejectedAtRead) {
  const std::string path = tmpPath("badsize.mtrace");
  detail::writeTrace(path, 20);
  // Record 1 is a load (kind = 1 % 3); zero its size byte.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        1 * detail::kRecordBytes + 17),
                      0);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  std::size_t served = 0;
  while (rd.next(r)) ++served;
  EXPECT_EQ(served, 1u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("invalid access size"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV3, PayloadCorruptionCaughtByChecksum) {
  const std::string path = tmpPath("checksum.mtrace");
  detail::writeTrace(path, 30);
  // Flip an address byte: every record still decodes as valid, only the
  // checksum can notice.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        12 * detail::kRecordBytes + 9),
                      0xAB);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  while (rd.next(r)) {
  }
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("checksum"), std::string::npos) << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV3, FinishChecksumVerifiesBeyondACap) {
  const std::string path = tmpPath("cap_corrupt.mtrace");
  detail::writeTrace(path, 40);
  // Corrupt an address byte deep in the file — far beyond the few records
  // a capped replay serves, so only finishChecksum() can catch it.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        35 * detail::kRecordBytes + 9),
                      0xEE);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.finishChecksum());
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("checksum"), std::string::npos) << rd.error();
  rd.reset();  // sticky here too
  EXPECT_FALSE(rd.next(r));
  std::remove(path.c_str());
}

TEST(TraceIoV3, FinishChecksumCleanLeavesStreamReplayable) {
  const std::string path = tmpPath("cap_clean.mtrace");
  detail::writeTrace(path, 40);
  TraceReader rd(path);
  InstrRecord r;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rd.next(r));
  EXPECT_TRUE(rd.finishChecksum());
  EXPECT_TRUE(rd.ok());
  EXPECT_FALSE(rd.next(r));  // finish leaves the reader at end-of-stream
  rd.reset();
  EXPECT_EQ(drain(rd).size(), 40u);
  EXPECT_TRUE(rd.ok());
  EXPECT_TRUE(rd.finishChecksum());  // fully-drained stream: no-op
  std::remove(path.c_str());
}

TEST(TraceIoV3, FailureIsStickyAcrossReset) {
  const std::string path = tmpPath("sticky.mtrace");
  detail::writeTrace(path, 5);
  detail::corruptByte(
      path, static_cast<long>(detail::kHeaderBytesV2 + 16), 9);  // kind
  TraceReader rd(path);
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  EXPECT_FALSE(rd.ok());
  rd.reset();  // must NOT resurrect the stream
  EXPECT_FALSE(rd.ok());
  EXPECT_FALSE(rd.next(r));
  EXPECT_FALSE(rd.error().empty());
  std::remove(path.c_str());
}

TEST(TraceIoV3, EmptyTraceIsCleanEof) {
  const std::string path = tmpPath("empty.mtrace");
  {
    TraceWriter w(path);
    ASSERT_TRUE(w.close());
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.total(), 0u);
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  EXPECT_TRUE(rd.ok());  // end of stream, not an error
  EXPECT_TRUE(rd.error().empty());
  std::remove(path.c_str());
}

// --- background verifier: skip(), runningChecksum(), thread lifecycle -------

namespace detail {

/// The file's payload bytes (everything after the v2 header).
std::vector<std::uint8_t> payloadOf(const std::string& path) {
  std::vector<std::uint8_t> bytes(std::filesystem::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderBytesV2);
  return bytes;
}

/// The v3 record digest, written byte by byte from docs/FILE_FORMATS.md
/// ("Checksum (v3)"), independently of binio.
std::uint64_t referenceDigest(const std::uint8_t* rec) {
  auto word = [rec](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(rec[at + i]) << (8 * i);
    return v;
  };
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  return mix(word(0, 8) * 0x9e3779b97f4a7c15ull) +
         mix(word(8, 8) * 0xc2b2ae3d27d4eb4full) +
         mix(word(16, 8) * 0x165667b19e3779f9ull) +
         mix(word(24, 2) * 0xd6e8feb86659fd93ull);
}

/// The v3 running checksum over the first `n` records, from the spec.
std::uint64_t referenceSum(const std::vector<std::uint8_t>& payload,
                           std::uint64_t n) {
  std::uint64_t s = 0xcbf29ce484222325ull;
  for (std::uint64_t i = 0; i < n; ++i)
    s = (s ^ referenceDigest(payload.data() + i * kRecordBytes)) *
        0x100000001b3ull;
  return s;
}

/// The v2 running checksum: byte FNV-1a over the first `n` records.
std::uint64_t fnvSum(const std::vector<std::uint8_t>& payload,
                     std::uint64_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n * kRecordBytes; ++i) {
    h ^= payload[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Walk a 10,000-record trace and check runningChecksum() against `sum`,
/// the reference fold of the file's version, at block edges (4096 records)
/// reached by next(), at positions reached by skip() alone (whose block
/// the reader has not loaded yet), and after a seekTo(), which restarts the
/// verifier from (n, sum) so its blocks then start at n.
void expectRunningChecksums(
    const std::string& path,
    std::uint64_t (*sum)(const std::vector<std::uint8_t>&, std::uint64_t)) {
  const std::vector<std::uint8_t> payload = payloadOf(path);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  ASSERT_EQ(rd.total(), 10'000u);
  EXPECT_EQ(rd.expectedChecksum(), sum(payload, 10'000));
  InstrRecord r;
  for (const std::uint64_t at : {0u, 4095u, 4096u, 4097u}) {
    while (rd.consumed() < at) ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(rd.runningChecksum(), sum(payload, at)) << at;
  }
  for (const std::uint64_t at : {8191u, 8192u, 9999u, 10'000u}) {
    ASSERT_TRUE(rd.skip(at - rd.consumed()));
    EXPECT_EQ(rd.runningChecksum(), sum(payload, at)) << at;
  }
  EXPECT_TRUE(rd.ok()) << rd.error();
  ASSERT_TRUE(rd.seekTo(5000, sum(payload, 5000)));
  EXPECT_EQ(rd.runningChecksum(), sum(payload, 5000));
  for (const std::uint64_t at : {5001u, 9095u, 9096u, 9097u}) {
    while (rd.consumed() < at) ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(rd.runningChecksum(), sum(payload, at)) << at;
  }
  while (rd.next(r)) {
  }
  EXPECT_TRUE(rd.ok()) << rd.error();  // end-of-stream check passed
  EXPECT_EQ(rd.runningChecksum(), rd.expectedChecksum());
}

/// Threads of this process (Linux); -1 where /proc is unavailable.
long threadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  long n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

/// Error and position a reader reaches by draining `path` with next().
std::pair<std::string, std::uint64_t> nextFailure(const std::string& path) {
  TraceReader rd(path);
  InstrRecord r;
  while (rd.next(r)) {
  }
  EXPECT_FALSE(rd.ok());
  return {rd.error(), rd.consumed()};
}

}  // namespace detail

TEST(TraceIoVerifier, SkipOverBadBytesFailsLikeNext) {
  // Kind byte (record 5000, second block) and size byte (record 1, first
  // block): skip() must stop at the same record with the same message as
  // a next() loop would, whether it crosses the bad record in one call or
  // lands just before it first.
  struct Case {
    const char* name;
    std::uint64_t record;
    std::size_t byte;
    std::uint8_t value;
  };
  const Case cases[] = {{"skip_kind.mtrace", 5000, 16, 9},
                        {"skip_size.mtrace", 1, 17, 0}};
  for (const Case& c : cases) {
    const std::string path = tmpPath(c.name);
    detail::writeTrace(path, 10'000);
    detail::corruptByte(path,
                        static_cast<long>(detail::kHeaderBytesV2 +
                                          c.record * detail::kRecordBytes +
                                          c.byte),
                        c.value);
    const auto [want_error, want_pos] = detail::nextFailure(path);
    EXPECT_EQ(want_pos, c.record);
    {
      TraceReader rd(path);
      EXPECT_FALSE(rd.skip(10'000));
      EXPECT_FALSE(rd.ok());
      EXPECT_EQ(rd.error(), want_error);
      EXPECT_EQ(rd.consumed(), want_pos);
    }
    {
      TraceReader rd(path);
      EXPECT_TRUE(rd.skip(c.record));  // up to, not over, the bad record
      EXPECT_TRUE(rd.ok()) << rd.error();
      EXPECT_FALSE(rd.skip(1));
      EXPECT_EQ(rd.error(), want_error);
      EXPECT_EQ(rd.consumed(), want_pos);
    }
    std::remove(path.c_str());
  }
}

TEST(TraceIoVerifier, SkipToTheEndChecksTheChecksumLikeNext) {
  const std::string path = tmpPath("skip_sum.mtrace");
  detail::writeTrace(path, 9000);
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        8000 * detail::kRecordBytes + 9),
                      0xAB);
  const auto [want_error, want_pos] = detail::nextFailure(path);
  TraceReader rd(path);
  InstrRecord r;
  ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.skip(9000));
  EXPECT_EQ(rd.error(), want_error);
  EXPECT_EQ(rd.consumed(), want_pos);
  EXPECT_NE(rd.error().find("checksum"), std::string::npos) << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoVerifier, SkipServesTheSameStreamAsNext) {
  const std::string path = tmpPath("skip_same.mtrace");
  const std::vector<InstrRecord> recs = detail::writeTrace(path, 9000);
  TraceReader rd(path);
  InstrRecord r;
  EXPECT_TRUE(rd.skip(0));
  EXPECT_TRUE(rd.skip(4100));  // lands inside the second block
  ASSERT_TRUE(rd.next(r));
  EXPECT_EQ(r.seq, recs[4100].seq);
  EXPECT_EQ(r.vaddr, recs[4100].vaddr);
  EXPECT_TRUE(rd.skip(3));     // inside the block just read
  ASSERT_TRUE(rd.next(r));
  EXPECT_EQ(r.seq, 4104u);
  EXPECT_FALSE(rd.skip(100'000));  // runs out: false, but not an error
  EXPECT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.consumed(), 9000u);
  EXPECT_FALSE(rd.next(r));
  rd.reset();
  EXPECT_EQ(drain(rd).size(), 9000u);
  EXPECT_TRUE(rd.ok());
  std::remove(path.c_str());
}

TEST(TraceIoVerifier, RunningChecksumMatchesTheReferenceFold) {
  const std::string path = tmpPath("runsum.mtrace");
  detail::writeTrace(path, 10'000);
  detail::expectRunningChecksums(path, detail::referenceSum);
  std::remove(path.c_str());
}

TEST(TraceIoVerifier, FinishChecksumRejectsAnInvalidRecordBeyondACap) {
  // A crafted file: the checksum matches, but an unread record carries a
  // kind byte no producer emits. The capped replay never decodes it; the
  // verifier still refuses it.
  const std::string path = tmpPath("crafted.mtrace");
  {
    TraceWriter w(path);
    for (std::uint64_t i = 0; i < 50; ++i) {
      InstrRecord r;
      r.seq = i;
      r.kind = i == 40 ? static_cast<InstrKind>(7) : InstrKind::kOther;
      w.write(r);
    }
    ASSERT_TRUE(w.close());
  }
  TraceReader rd(path);
  InstrRecord r;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.finishChecksum());
  EXPECT_NE(rd.error().find("invalid instruction kind byte 7 at record 40"),
            std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoVerifier, HeaderOnlyOpenSpawnsNoThread) {
  // Asked of the reader itself, not counted in /proc/self/task: a
  // sanitizer runtime starts threads of its own at moments of its choosing.
  const std::string path = tmpPath("nothread.mtrace");
  detail::writeTrace(path, 100);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.total(), 100u);
  EXPECT_EQ(rd.version(), kTraceVersion);
  EXPECT_TRUE(rd.hasLayout());
  EXPECT_NE(rd.expectedChecksum(), 0u);
  EXPECT_FALSE(rd.verifierStarted());
  InstrRecord r;
  ASSERT_TRUE(rd.next(r));  // first data access starts the verifier
  EXPECT_TRUE(rd.verifierStarted());
  ASSERT_TRUE(rd.seekTo(50, 0));  // a restart stops it until the next access
  EXPECT_FALSE(rd.verifierStarted());
  ASSERT_TRUE(rd.skip(1));
  EXPECT_TRUE(rd.verifierStarted());
  std::remove(path.c_str());
}

TEST(TraceIoVerifier, DestroyingAReaderMidStreamJoinsCleanly) {
  // Big enough (about 8 MB) that the verifier is still busy when the
  // reader goes away — mid-stream, after a seekTo, and straight after a
  // restart that never got to run.
  const std::string path = tmpPath("midstream.mtrace");
  detail::writeTrace(path, 300'000);
  const long before = detail::threadCount();
  InstrRecord r;
  for (int round = 0; round < 3; ++round) {
    {
      TraceReader rd(path);
      for (int i = 0; i < 10; ++i) ASSERT_TRUE(rd.next(r));
    }
    {
      TraceReader rd(path);
      ASSERT_TRUE(rd.skip(1000));
      ASSERT_TRUE(rd.seekTo(200'000, 0));  // the sum is never compared
      ASSERT_TRUE(rd.next(r));
      EXPECT_EQ(r.seq, 200'000u);
    }
    {
      TraceReader rd(path);
      ASSERT_TRUE(rd.next(r));
      rd.reset();
      ASSERT_TRUE(rd.seekTo(5, 0));
    }
  }
  if (before >= 0) {
    EXPECT_EQ(detail::threadCount(), before);
  }
  std::remove(path.c_str());
}

// --- v3 checksum definition, and v2 read compatibility ----------------------

namespace detail {

/// The known-answer records of docs/FILE_FORMATS.md ("Checksum (v3)").
std::vector<InstrRecord> knownAnswerRecords() {
  std::vector<InstrRecord> recs(3);
  recs[0].seq = 0;
  recs[0].vaddr = 0x1000;
  recs[0].kind = InstrKind::kLoad;
  recs[0].size = 8;
  recs[1].seq = 1;
  recs[1].vaddr = 0x0123456789abcdefull;
  recs[1].kind = InstrKind::kStore;
  recs[1].size = 4;
  recs[1].dep_distance = 3;
  recs[1].addr_dep_distance = 0xA1B2C3D4u;
  recs[2].seq = 2;
  recs[2].kind = InstrKind::kOther;
  recs[2].dep_distance = 1;
  return recs;
}

/// Write `recs` as the v2 writer laid a file out: the 52-byte header with
/// version 2 and byte-serial FNV-1a over the payload.
void writeV2Trace(const std::string& path,
                  const std::vector<InstrRecord>& recs) {
  std::vector<std::uint8_t> payload(recs.size() * kRecordBytes);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    std::uint8_t* p = payload.data() + i * kRecordBytes;
    binio::put64(p + 0, recs[i].seq);
    binio::put64(p + 8, recs[i].vaddr);
    p[16] = static_cast<std::uint8_t>(recs[i].kind);
    p[17] = recs[i].size;
    binio::put32(p + 18, recs[i].dep_distance);
    binio::put32(p + 22, recs[i].addr_dep_distance);
  }
  const AddressLayout layout;
  const std::uint32_t params[] = {
      layout.addrBits(),      layout.pageBytes(), layout.lineBytes(),
      layout.subBlockBytes(), layout.l1Bytes(),   layout.l1Assoc(),
      layout.l1Banks()};
  std::uint8_t hdr[kHeaderBytesV2] = {};
  binio::put32(hdr + 0, kTraceMagic);
  binio::put32(hdr + 4, kTraceVersionV2);
  binio::put64(hdr + 8, recs.size());
  binio::put64(hdr + 16, fnvSum(payload, recs.size()));
  for (std::size_t i = 0; i < 7; ++i) binio::put32(hdr + 24 + 4 * i, params[i]);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(hdr, 1, sizeof hdr, f), sizeof hdr);
  ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f),
            payload.size());
  std::fclose(f);
}

}  // namespace detail

TEST(TraceIoV3, ChecksumKnownAnswer) {
  // Pinned here and in docs/FILE_FORMATS.md: any change to the digest, the
  // fold or the record encoding moves these values.
  const std::string path = tmpPath("known_answer.mtrace");
  detail::writeRecords(path, detail::knownAnswerRecords());
  const std::vector<std::uint8_t> payload = detail::payloadOf(path);
  ASSERT_EQ(payload.size(), 3 * detail::kRecordBytes);
  const std::uint64_t digests[] = {0xf89ac4eacf0cf3a1ull,
                                   0xd195442a9da1af06ull,
                                   0x6b73851e97416019ull};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint8_t* rec = payload.data() + i * detail::kRecordBytes;
    EXPECT_EQ(binio::traceRecordDigest(rec), digests[i]) << i;
    EXPECT_EQ(detail::referenceDigest(rec), digests[i]) << i;
  }
  EXPECT_EQ(detail::referenceSum(payload, 3), 0x117192d5598cf9c5ull);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.expectedChecksum(), 0x117192d5598cf9c5ull);
  EXPECT_EQ(drain(rd).size(), 3u);
  EXPECT_TRUE(rd.ok()) << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV3, AnyOneOrTwoBitFlipsChangeTheChecksum) {
  // Exhaustive over the known-answer file: every single bit and every pair
  // of bits of its 3 × 208 payload bits, within a word, across the words of
  // one record and across records. A digest that mixed the words linearly
  // would fail here (two flipped top bits cancel in a sum).
  const std::string path = tmpPath("flip2.mtrace");
  detail::writeRecords(path, detail::knownAnswerRecords());
  std::vector<std::uint8_t> payload = detail::payloadOf(path);
  std::remove(path.c_str());
  const std::size_t bits = payload.size() * 8;
  const std::uint64_t clean =
      binio::foldTraceRecords(binio::kFnvOffset, payload.data(), 3);
  auto flip = [&payload](std::size_t bit) {
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  std::size_t tried = 0, collided = 0;
  std::string first;
  for (std::size_t a = 0; a < bits; ++a) {
    flip(a);
    for (std::size_t b = a; b < bits; ++b) {
      if (b != a) flip(b);
      ++tried;
      if (binio::foldTraceRecords(binio::kFnvOffset, payload.data(), 3) ==
              clean &&
          collided++ == 0)
        first = "bits " + std::to_string(a) + " and " + std::to_string(b);
      if (b != a) flip(b);
    }
    flip(a);
  }
  EXPECT_EQ(tried, bits * (bits + 1) / 2);
  EXPECT_EQ(collided, 0u) << "first: " << first;
}

TEST(TraceIoV3, EveryByteOfARecordIsHashed) {
  const std::string path = tmpPath("flip.mtrace");
  detail::writeTrace(path, 3);
  const std::vector<std::uint8_t> payload = detail::payloadOf(path);
  const std::uint8_t* rec = payload.data() + detail::kRecordBytes;
  // Flipping any one byte position of the file's record 1 fails the
  // checksum. Record 1 is a load of size 8: the flipped kind and size bytes
  // (0 and 9) still decode, so only the checksum can notice.
  for (std::size_t byte = 0; byte < detail::kRecordBytes; ++byte) {
    detail::writeTrace(path, 3);
    detail::corruptByte(path,
                        static_cast<long>(detail::kHeaderBytesV2 +
                                          detail::kRecordBytes + byte),
                        static_cast<std::uint8_t>(rec[byte] ^ 1));
    const auto [error, pos] = detail::nextFailure(path);
    EXPECT_NE(error.find("record checksum mismatch"), std::string::npos)
        << "byte " << byte << ": " << error;
    EXPECT_EQ(pos, 3u) << "byte " << byte;
  }
  std::remove(path.c_str());
}

TEST(TraceIoV2, ReadCompat) {
  const std::string path = tmpPath("v2.mtrace");
  const std::vector<InstrRecord> recs = detail::makeRecords(10'000);
  detail::writeV2Trace(path, recs);
  // The running checksum follows the v2 rule at every position the v3
  // test probes.
  detail::expectRunningChecksums(path, detail::fnvSum);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.version(), kTraceVersionV2);
  EXPECT_TRUE(rd.hasLayout());
  const std::vector<InstrRecord> back = drain(rd);
  EXPECT_TRUE(rd.ok()) << rd.error();
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].seq, recs[i].seq);
    EXPECT_EQ(back[i].vaddr, recs[i].vaddr);
    EXPECT_EQ(static_cast<int>(back[i].kind),
              static_cast<int>(recs[i].kind));
    EXPECT_EQ(back[i].size, recs[i].size);
  }
  std::remove(path.c_str());
}

TEST(TraceIoV2, CorruptionFailsWhereV3Fails) {
  // The same flipped address byte in a v2 and a v3 file of the same
  // records: next(), skip() and finishChecksum() each fail at the same call
  // and record, with the same message.
  const std::string path = tmpPath("v2v3corrupt.mtrace");
  const std::vector<InstrRecord> recs = detail::makeRecords(9000);
  const long at = static_cast<long>(detail::kHeaderBytesV2 +
                                    8000 * detail::kRecordBytes + 9);
  struct Outcome {
    std::string next_error, skip_error, finish_error;
    std::uint64_t next_pos = 0, skip_pos = 0;
  };
  auto probe = [&] {
    Outcome o;
    std::tie(o.next_error, o.next_pos) = detail::nextFailure(path);
    {
      TraceReader rd(path);
      InstrRecord r;
      EXPECT_TRUE(rd.next(r));
      EXPECT_FALSE(rd.skip(9000));
      o.skip_error = rd.error();
      o.skip_pos = rd.consumed();
    }
    {
      TraceReader rd(path);
      InstrRecord r;
      for (int i = 0; i < 5; ++i) EXPECT_TRUE(rd.next(r));
      EXPECT_FALSE(rd.finishChecksum());
      o.finish_error = rd.error();
    }
    return o;
  };
  detail::writeRecords(path, recs);
  detail::corruptByte(path, at, 0xAB);
  const Outcome v3 = probe();
  detail::writeV2Trace(path, recs);
  detail::corruptByte(path, at, 0xAB);
  const Outcome v2 = probe();
  EXPECT_NE(v3.next_error.find("record checksum mismatch"), std::string::npos)
      << v3.next_error;
  EXPECT_EQ(v3.next_pos, 9000u);
  EXPECT_EQ(v2.next_error, v3.next_error);
  EXPECT_EQ(v2.next_pos, v3.next_pos);
  EXPECT_EQ(v2.skip_error, v3.skip_error);
  EXPECT_EQ(v2.skip_pos, v3.skip_pos);
  EXPECT_EQ(v2.finish_error, v3.finish_error);
  std::remove(path.c_str());
}

TEST(TraceIoV2, PlanBindsToMatchingV2AndV3Traces) {
  const std::vector<InstrRecord> recs = detail::makeRecords(100);
  const std::string v2_path = tmpPath("bind_v2.mtrace");
  const std::string v3_path = tmpPath("bind_v3.mtrace");
  detail::writeV2Trace(v2_path, recs);
  detail::writeRecords(v3_path, recs);
  const TraceReader v2(v2_path), v3(v3_path);
  ASSERT_TRUE(v2.ok()) << v2.error();
  ASSERT_TRUE(v3.ok()) << v3.error();
  auto planFor = [](const TraceReader& rd) {
    phase::SamplePlan plan;
    plan.interval_size = 10;
    plan.trace_records = rd.total();
    plan.trace_checksum = rd.expectedChecksum();
    return plan;
  };
  EXPECT_TRUE(phase::planBindsTo(planFor(v2), v2));
  EXPECT_TRUE(phase::planBindsTo(planFor(v3), v3));
  // The same records under the other version's checksum are another file.
  EXPECT_NE(v2.expectedChecksum(), v3.expectedChecksum());
  EXPECT_FALSE(phase::planBindsTo(planFor(v2), v3));
  EXPECT_FALSE(phase::planBindsTo(planFor(v3), v2));
  phase::SamplePlan edited = planFor(v3);
  edited.trace_checksum ^= 1;
  EXPECT_FALSE(phase::planBindsTo(edited, v3));
  phase::SamplePlan shorter = planFor(v3);
  shorter.trace_records = 99;
  EXPECT_FALSE(phase::planBindsTo(shorter, v3));
  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
}

TEST(TraceIoV1, ReadCompat) {
  // Hand-craft a v1 file (16-byte header, no checksum, no layout) the way
  // the pre-v2 writer laid it out; the reader must still serve it.
  const std::string path = tmpPath("v1.mtrace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) std::fputc((v >> (8 * i)) & 0xFF, f);
  };
  auto put64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      std::fputc(static_cast<int>((v >> (8 * i)) & 0xFF), f);
  };
  put32(kTraceMagic);
  put32(kTraceVersionV1);
  put64(3);  // record count
  for (std::uint64_t i = 0; i < 3; ++i) {
    put64(i);              // seq
    put64(0x1000 + i * 8); // vaddr
    std::fputc(1, f);      // kind = load
    std::fputc(8, f);      // size
    put32(0);
    put32(0);
  }
  std::fclose(f);

  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.version(), 1u);
  EXPECT_FALSE(rd.hasLayout());
  EXPECT_EQ(rd.total(), 3u);
  InstrRecord r;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(r.seq, i);
    EXPECT_EQ(r.vaddr, 0x1000 + i * 8);
    EXPECT_TRUE(r.isLoad());
  }
  EXPECT_FALSE(rd.next(r));
  EXPECT_TRUE(rd.ok());
  rd.reset();  // clean-EOF reset still replays
  ASSERT_TRUE(rd.next(r));
  EXPECT_EQ(r.seq, 0u);
  std::remove(path.c_str());
}

TEST(TraceIoV1, TruncationCaughtAtOpenToo) {
  const std::string path = tmpPath("v1trunc.mtrace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) std::fputc((v >> (8 * i)) & 0xFF, f);
  };
  put32(kTraceMagic);
  put32(kTraceVersionV1);
  for (int i = 0; i < 8; ++i) std::fputc(i == 0 ? 7 : 0, f);  // count = 7
  // ... but zero records follow.
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("truncated"), std::string::npos) << rd.error();
  std::remove(path.c_str());
}

TEST(LimitedTraceSource, CapsAndResets) {
  std::vector<InstrRecord> v(5);
  for (std::size_t i = 0; i < v.size(); ++i) v[i].vaddr = i + 1;
  LimitedTraceSource src(std::make_unique<VectorTraceSource>(v), 3);
  EXPECT_EQ(drain(src).size(), 3u);
  src.reset();
  InstrRecord r;
  ASSERT_TRUE(src.next(r));
  EXPECT_EQ(r.vaddr, 1u);
  EXPECT_EQ(drain(src).size(), 2u);
}

TEST(VectorTraceSource, ServesAndResets) {
  std::vector<InstrRecord> v(3);
  v[0].vaddr = 1;
  v[1].vaddr = 2;
  v[2].vaddr = 3;
  VectorTraceSource src(v);
  InstrRecord r;
  EXPECT_TRUE(src.next(r));
  EXPECT_EQ(r.vaddr, 1u);
  const auto rest = drain(src);
  EXPECT_EQ(rest.size(), 2u);
  src.reset();
  EXPECT_EQ(drain(src).size(), 3u);
}

}  // namespace
}  // namespace malec::trace
