// The checkpoint determinism contract (docs/ARCHITECTURE.md): a run that
// checkpoints and a fresh stack that restores the checkpoint and continues
// must be bit-identical — full RunOutput and energy report — to the run
// that never stopped, for every Table-I preset, on synthetic and
// trace-backed workloads, at several mid-run boundaries, serial and under
// runManyParallel. Plus the strict `.mckpt` rejection matrix mirroring
// test_sample_plan: truncation, corruption, bad magic, version skew,
// foreign trace binding, configuration mismatch and forged element counts
// are all hard errors.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "core/event_queue.h"
#include "mem/memory_hierarchy.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "tlb/page_table.h"
#include "trace/workloads.h"
#include "waydet/segmented_wt.h"

namespace malec::sim {
namespace {

// Checkpoint audit matrix: every class in the tree that declares
// saveState/loadState must be listed here, and every name listed here must
// still exist as a stateful class. scripts/check_lint.sh diffs this list
// both ways against `malec_lint --list-stateful`, so adding a new stateful
// component without extending this file's coverage fails CI (and so does
// deleting a component while leaving a stale row). Keep sorted.
// lint-checkpoint-matrix-begin
constexpr const char* kCheckpointAuditedClasses[] = {
    "BaselineInterface",
    "CoreModel",
    "EnergyAccount",
    "EventQueue",
    "InputBuffer",
    "L1Cache",
    "L2Cache",
    "LastEntryRegister",
    "LoadQueue",
    "LruPolicy",
    "MalecInterface",
    "MemoryHierarchy",
    "MergeBuffer",
    "PageTable",
    "RandomPolicy",
    "SecondChancePolicy",
    "SegmentedWayTable",
    "StoreBuffer",
    "SyntheticTraceGenerator",
    "Tlb",
    "TranslationEngine",
    "WayTable",
    "Wdu",
};
// lint-checkpoint-matrix-end

TEST(CheckpointMatrix, AuditedClassListIsSortedAndUnique) {
  const std::vector<std::string> names(std::begin(kCheckpointAuditedClasses),
                                       std::end(kCheckpointAuditedClasses));
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i])
        << "kCheckpointAuditedClasses must stay sorted and duplicate-free";
  }
}

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

RunConfig baseConfig(const char* bench, core::InterfaceConfig cfg,
                     std::uint64_t instrs, std::uint64_t seed = 1) {
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = std::move(cfg);
  rc.system = defaultSystem();
  rc.instructions = instrs;
  rc.seed = seed;
  return rc;
}

void expectBitIdentical(const RunOutput& a, const RunOutput& b) {
  // Exhaustive field-by-field comparison (every counter plus the byte-exact
  // energy table) from sim/differential.h.
  EXPECT_EQ(diffOutputs(a, b), "");
}

/// One matrix cell: run straight through; run again writing a checkpoint
/// every `every` instructions (must not perturb anything); resume the last
/// written checkpoint in a fresh stack and continue. All three bit-equal.
void expectCheckpointRoundTrip(const RunConfig& rc, std::uint64_t every,
                               const char* tag) {
  const std::string ckpt = tmpPath(tag) + ".mckpt";
  const RunOutput straight = runOne(rc);

  RunConfig writing = rc;
  writing.ckpt_out = ckpt;
  writing.ckpt_every = every;
  const RunOutput with_ckpt = runOne(writing);
  expectBitIdentical(straight, with_ckpt);

  RunConfig resuming = rc;
  resuming.start_ckpt = ckpt;
  const RunOutput resumed = runOne(resuming);
  expectBitIdentical(straight, resumed);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, StateIoRoundTrip) {
  const std::string path = tmpPath("roundtrip.mckpt");
  ckpt::StateWriter w;
  w.beginSection("alpha");
  w.u8(0x7F);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159);
  w.str("hello checkpoint");
  w.endSection();
  w.beginSection("beta");
  w.u64(42);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.hasSection("alpha"));
  EXPECT_TRUE(r.hasSection("beta"));
  EXPECT_FALSE(r.hasSection("gamma"));
  // Sections are addressable in any order.
  r.openSection("beta");
  EXPECT_EQ(r.u64(), 42u);
  r.endSection();
  r.openSection("alpha");
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello checkpoint");
  r.endSection();
  std::remove(path.c_str());
}

// --- StateWriter stale-temp reaping -----------------------------------------

TEST(StateIo, WriteReapsStaleTempsButSparesLiveWriters) {
  const std::string path = tmpPath("reap.mckpt");
  // A temp left by a dead pid (1 is never free, so fabricate an absurd
  // one far past any real pid) must be swept; a temp owned by a LIVE
  // process — ours — must survive: it is a racing healthy writer.
  const std::string stale = path + ".tmp.999999999.0";
  const std::string live =
      path + ".tmp." + std::to_string(::getpid()) + ".777";
  { std::ofstream(stale) << "stale"; }
  { std::ofstream(live) << "live"; }

  ckpt::StateWriter w;
  w.beginSection("s");
  w.u32(1);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(live));
  std::remove(live.c_str());
  std::remove(path.c_str());
}

// --- StateWriter's container bytes, memory bound and failure path ----------

// The whole file of a three-section checkpoint, one section empty, built
// by hand from docs/FILE_FORMATS.md: the header, then each section inline.
TEST(StateIo, ContainerKnownAnswerBytes) {
  const std::string path = tmpPath("kat.mckpt");
  ckpt::StateWriter w;
  w.beginSection("a");
  w.u32(0x01020304);
  w.endSection();
  w.beginSection("empty");
  w.endSection();
  w.beginSection("bc");
  w.u8(0xAB);
  w.str("xy");
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  const std::vector<std::uint8_t> want = {
      0x50, 0x4B, 0x43, 0x4D,                          // magic "MCKP"
      0x01, 0x00, 0x00, 0x00,                          // version 1
      0x3B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload bytes: 59
      0x03, 0x00, 0x00, 0x00,                          // section count
      0x00, 0x00, 0x00, 0x00,                          // reserved
      0xCB, 0x5E, 0x56, 0x82, 0xE0, 0xEA, 0xFE, 0xFD,  // FNV-1a of the payload
      // section "a": name length, name, body length, u32 body
      0x01, 0x00, 0x00, 0x00, 'a',
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x03, 0x02, 0x01,
      // section "empty": no body
      0x05, 0x00, 0x00, 0x00, 'e', 'm', 'p', 't', 'y',
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // section "bc": u8, then a str with its u64 length
      0x02, 0x00, 0x00, 0x00, 'b', 'c',
      0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xAB,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'x', 'y'};
  std::vector<std::uint8_t> got;
  {
    std::ifstream in(path, std::ios::binary);
    got.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

/// Peak resident set of this process (VmHWM) in KiB; -1 when unknown.
long peakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      long kib = -1;
      fields >> kib;
      return kib;
    }
  }
  return -1;
}

// StateWriter holds only the open section: writing 64 MiB of checkpoint in
// 1 MiB sections must not raise the peak RSS by more than a few sections.
// Run in a child process so the parent's earlier peaks cannot hide growth.
TEST(StateIoDeathTest, WriterPeakMemoryStaysNearOneSection) {
  if (peakRssKiB() < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  const std::string path = tmpPath("rss.mckpt");
  const auto writeAndMeasure = [&path] {
    constexpr std::size_t kMiB = std::size_t{1} << 20;
    const std::vector<std::uint8_t> chunk(kMiB, 0x5A);
    ckpt::StateWriter w;
    const long before = peakRssKiB();
    for (int s = 0; s < 64; ++s) {
      char name[8];
      std::snprintf(name, sizeof name, "s%02d", s);
      w.beginSection(name);
      w.bytes(chunk.data(), chunk.size());
      w.endSection();
    }
    std::string err;
    const bool wrote = w.writeTo(path, err);
    const long grew = peakRssKiB() - before;
    std::remove(path.c_str());
    std::fprintf(stderr, "wrote=%d VmHWM grew by %ld KiB %s\n", wrote ? 1 : 0,
                 grew, err.c_str());
    std::exit(wrote && grew < 8 * 1024 ? 0 : 1);
  };
  EXPECT_EXIT(writeAndMeasure(), ::testing::ExitedWithCode(0),
              "wrote=1 VmHWM grew by");
}

/// This process's open file descriptors as "fd -> target" (empty when
/// /proc is absent), leaving out the one that lists them.
std::vector<std::string> openFds() {
  std::vector<std::string> fds;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd", ec)) {
    const std::string target =
        std::filesystem::read_symlink(e.path(), ec).string();
    if (ec || target.rfind("/proc/", 0) == 0) continue;
    fds.push_back(e.path().filename().string() + " -> " + target);
  }
  std::sort(fds.begin(), fds.end());
  return fds;
}

TEST(StateIo, WriteIntoMissingDirectoryFailsAndLeavesNothing) {
  const std::vector<std::string> fds_before = openFds();
  if (fds_before.empty()) GTEST_SKIP() << "no /proc/self/fd";
  const std::string dir = tmpPath("no_such_dir");
  std::filesystem::remove_all(dir);
  {
    ckpt::StateWriter w;
    w.beginSection("s");
    w.u64(1);
    w.endSection();
    // The spool is one extra descriptor, and it is already unlinked.
    const std::vector<std::string> fds_open = openFds();
    std::vector<std::string> added;
    std::set_difference(fds_open.begin(), fds_open.end(), fds_before.begin(),
                        fds_before.end(), std::back_inserter(added));
    ASSERT_EQ(added.size(), 1u);
    EXPECT_NE(added[0].find("(deleted)"), std::string::npos) << added[0];

    std::string err;
    EXPECT_FALSE(w.writeTo(dir + "/x.mckpt", err));
    EXPECT_NE(err.find("no_such_dir/x.mckpt.tmp."), std::string::npos) << err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  // Closing the writer released the spool.
  EXPECT_EQ(openFds(), fds_before);
}

// A spool append that fails (here: the file-size limit) is sticky: later
// sections are dropped and writeTo reports the first failure.
TEST(StateIoDeathTest, SpoolFailureIsStickyAndReported) {
  const std::string path = tmpPath("fsize.mckpt");
  const auto writeOverLimit = [&path] {
    std::signal(SIGXFSZ, SIG_IGN);  // fail the write with EFBIG instead
    const rlimit lim{rlim_t{1} << 20, rlim_t{1} << 20};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) std::exit(2);
    const std::vector<std::uint8_t> chunk(std::size_t{3} << 19, 0x5A);
    ckpt::StateWriter w;
    for (const char* name : {"one", "two", "three"}) {
      w.beginSection(name);
      w.bytes(chunk.data(), chunk.size());
      w.endSection();
    }
    std::string err;
    const bool wrote = w.writeTo(path, err);
    const bool left = std::filesystem::exists(path);
    std::fprintf(stderr, "wrote=%d left=%d %s\n", wrote ? 1 : 0, left ? 1 : 0,
                 err.c_str());
    std::exit(0);
  };
  EXPECT_EXIT(writeOverLimit(), ::testing::ExitedWithCode(0),
              "wrote=0 left=0 cannot write '.*fsize.mckpt': cannot append to "
              "the checkpoint spool file");
}

// --- the shared byte codec under every StateIO file --------------------------

TEST(ByteCodec, WriterKnownAnswerBytes) {
  binio::ByteWriter w;
  w.u8(0x7F);
  w.u32(0xDEADBEEF);
  w.u64(0);  // patched below
  w.f64(1.0);
  w.str32("ab");
  w.str64("c");
  w.patch64(5, 0x0123456789ABCDEFull);
  const std::vector<std::uint8_t> want = {
      0x7F,                                            // u8
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32, LE
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // patched u64, LE
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0, IEEE bits
      0x02, 0x00, 0x00, 0x00, 'a',  'b',               // str32
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'c'};  // str64
  ASSERT_EQ(std::vector<std::uint8_t>(w.data(), w.data() + w.size()), want);

  binio::ByteReader r(want.data(), want.size());
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_EQ(r.str(r.u32()), "ab");
  EXPECT_EQ(r.str(r.u64()), "c");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodec, ReaderFailsAndStaysFailedOnTruncation) {
  const std::uint8_t six[6] = {1, 0, 0, 0, 2, 0};
  binio::ByteReader r(six, sizeof six);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 0u);  // 2 bytes left: fails, consumes nothing
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 2u);
  // Sticky: the 2 bytes that are there are not served any more.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.take(0), nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(ByteCodec, LengthPastRemainingFailsWithoutAllocating) {
  const std::uint8_t four[4] = {'a', 'b', 'c', 'd'};
  // A forged 2^62 length would throw (or exhaust memory) if the reader
  // sized anything by it before the check.
  binio::ByteReader r(four, sizeof four);
  EXPECT_EQ(r.str(std::uint64_t{1} << 62), "");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 4u);
  binio::ByteReader b(four, sizeof four);
  std::uint8_t dst[8] = {};
  EXPECT_FALSE(b.bytes(dst, 5));
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(dst[0], 0u);
}

TEST(CheckpointDeathTest, ForgedStringLengthAbortsAtTheSection) {
  const std::string path = tmpPath("forgedstr.mckpt");
  ckpt::StateWriter w;
  w.beginSection("alpha");
  w.u64(std::uint64_t{1} << 40);  // a str() length with no bytes behind it
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("alpha");
  EXPECT_EQ(r.remaining(), 8u);
  EXPECT_DEATH((void)r.str(), "read past a section end");
  std::remove(path.c_str());
}

// The determinism matrix, synthetic half: every Table-I preset, several
// checkpoint boundaries. (The WDU variant rides along — it carries the one
// piece of state no other preset exercises.)
TEST(Checkpoint, SyntheticRoundTripAcrossTableIPresets) {
  const std::uint64_t n = 6'000;
  int i = 0;
  for (const auto& cfg : {presetBase1ldst(), presetBase2ld1st(),
                          presetMalec(), presetMalecWdu(16)}) {
    const RunConfig rc = baseConfig("gcc", cfg, n, 3);
    const std::string tag = "synth_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, n / 3, tag.c_str());
  }
}

// Several mid-run boundaries: the final checkpoint written with interval E
// sits at the last E-boundary the run crossed, so sweeping E sweeps the
// resume point.
TEST(Checkpoint, ResumesFromSeveralBoundaries) {
  const std::uint64_t n = 6'000;
  const RunConfig rc = baseConfig("mcf", presetMalec(), n, 7);
  int i = 0;
  for (const std::uint64_t every : {1'000ull, 2'500ull, 5'500ull}) {
    const std::string tag = "bound_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, every, tag.c_str());
  }
}

// The trace-backed half of the matrix, including a capped replay (the
// LimitedTraceSource position must restore too).
TEST(Checkpoint, TraceReplayRoundTripAcrossTableIPresets) {
  const std::string path = tmpPath("ck_trace.mtrace");
  const std::uint64_t n = 6'000;
  captureTrace(baseConfig("gcc", presetMalec(), n), path);
  int i = 0;
  for (const auto& cfg :
       {presetBase1ldst(), presetBase2ld1st(), presetMalec()}) {
    RunConfig rc = baseConfig("gcc", cfg, 0);
    rc.workload = traceWorkload(path);
    const std::string tag = "trace_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, n / 3, tag.c_str());
  }
  RunConfig capped = baseConfig("gcc", presetMalec(), 4'000);
  capped.workload = traceWorkload(path);
  expectCheckpointRoundTrip(capped, 1'500, "trace_ck_capped");
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeIsBitIdenticalUnderRunManyParallel) {
  const std::uint64_t n = 5'000;
  const std::string ckpt = tmpPath("par_ck.mckpt");
  const RunConfig rc = baseConfig("gap", presetMalec(), n, 11);
  RunConfig writing = rc;
  writing.ckpt_out = ckpt;
  writing.ckpt_every = 2'000;
  const RunOutput straight = runOne(writing);

  RunConfig resuming = rc;
  resuming.start_ckpt = ckpt;
  // A mixed pool: fresh runs and resumed runs side by side.
  const auto outs = runManyParallel({rc, resuming, resuming, rc}, 4);
  ASSERT_EQ(outs.size(), 4u);
  for (const auto& o : outs) expectBitIdentical(straight, o);
  std::remove(ckpt.c_str());
}

// The component-state audit covers the SegmentedWayTable too, although no
// preset routes it into a full run: its chunk pool must survive a
// checkpoint like every other way structure.
TEST(Checkpoint, SegmentedWayTableStateRoundTrip) {
  const std::string path = tmpPath("swt.mckpt");
  waydet::SegmentedWayTable::Params p;
  p.slots = 8;
  p.lines_per_page = 32;
  p.lines_per_chunk = 8;
  p.chunks = 6;
  waydet::SegmentedWayTable a(p);
  for (std::uint32_t i = 0; i < 24; ++i)
    a.record(i % p.slots, (i * 7) % p.lines_per_page, i, i % 3);

  ckpt::StateWriter w;
  w.beginSection("swt");
  a.saveState(w);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  waydet::SegmentedWayTable b(p);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("swt");
  b.loadState(r);
  r.endSection();
  EXPECT_EQ(a.residentChunks(), b.residentChunks());
  EXPECT_EQ(a.chunkAllocations(), b.chunkAllocations());
  EXPECT_EQ(a.chunkEvictions(), b.chunkEvictions());
  for (std::uint32_t s = 0; s < p.slots; ++s)
    for (std::uint32_t l = 0; l < p.lines_per_page; ++l)
      for (std::uint32_t salt = 0; salt < 4; ++salt)
        EXPECT_EQ(a.lookup(s, l, salt), b.lookup(s, l, salt));
  std::remove(path.c_str());
}

// --- the strict .mckpt rejection matrix -------------------------------------

/// Write a checkpoint mid-run and return its path (caller removes).
std::string writeCheckpoint(const RunConfig& rc, const char* name) {
  RunConfig writing = rc;
  writing.ckpt_out = tmpPath(name);
  writing.ckpt_every = rc.instructions / 2;
  (void)runOne(writing);
  return writing.ckpt_out;
}

void flipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  const int orig = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);
  std::fclose(f);
}

// A crafted section-name length near 2^32 must fail the bounds check, not
// wrap it (32-bit add) and read gigabytes past the payload buffer.
TEST(Checkpoint, HugeSectionNameLengthIsRejectedNotOverflowed) {
  const std::string path = tmpPath("hugename.mckpt");
  std::uint8_t payload[16] = {};
  payload[0] = 0xF8;  // u32 name_len = 0xFFFFFFF8 (LE)
  payload[1] = 0xFF;
  payload[2] = 0xFF;
  payload[3] = 0xFF;
  std::uint8_t hdr[32] = {};
  hdr[0] = 0x50;  // magic "MCKP" LE
  hdr[1] = 0x4B;
  hdr[2] = 0x43;
  hdr[3] = 0x4D;
  hdr[4] = 1;               // version
  hdr[8] = sizeof payload;  // payload bytes
  hdr[16] = 1;              // one section
  // Valid checksum so only the section-table scan can reject the file.
  std::uint64_t sum = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : payload) sum = (sum ^ b) * 0x100000001b3ull;
  for (int i = 0; i < 8; ++i)
    hdr[24 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(hdr, 1, sizeof hdr, f);
  std::fwrite(payload, 1, sizeof payload, f);
  std::fclose(f);
  ckpt::StateReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("section table overruns"), std::string::npos);
  std::remove(path.c_str());
}

// Forged-count fixtures: read a checkpoint, overwrite one u64 field in a
// section body, and recompute the payload checksum, so only the component's
// own count bound can reject the file.
constexpr std::size_t kCkptHeader = 32;

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::vector<std::uint8_t> file;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return file;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    file.insert(file.end(), buf, buf + n);
  std::fclose(f);
  return file;
}

/// File offset of section `name`'s body, or 0 when it is absent.
std::size_t sectionBodyAt(const std::vector<std::uint8_t>& file,
                          const std::string& name) {
  if (file.size() <= kCkptHeader) return 0;
  binio::ByteReader sections(file.data() + kCkptHeader,
                             file.size() - kCkptHeader);
  while (sections.ok() && sections.remaining() > 0) {
    const std::string got = sections.str(sections.u32());
    const std::uint64_t len = sections.u64();
    if (got == name) return file.size() - sections.remaining();
    (void)sections.take(len);
  }
  return 0;
}

void forgeU64AndReseal(const std::string& path, std::vector<std::uint8_t> file,
                       std::size_t at, std::uint64_t value) {
  ASSERT_LE(at + 8, file.size());
  for (int i = 0; i < 8; ++i)
    file[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  const std::uint64_t sum =
      binio::fnv1a(binio::kFnvOffset, file.data() + kCkptHeader,
                   file.size() - kCkptHeader);
  for (int i = 0; i < 8; ++i)
    file[24 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
  std::fclose(f);
}

// The checksum only proves the bytes are the writer's: a checkpoint whose
// first dependency producer's list length was forged to 2^40 (checksum
// recomputed) must be refused at the count, not sized into a bad_alloc.
TEST(CheckpointDeathTest, ForgedDependencyCountAbortsBeforeAllocating) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "forgeddeps.mckpt");
  const std::vector<std::uint8_t> file = readBytes(path);

  // Walk CoreModel's field order (tools/lint/schemas/CoreModel.schema) to
  // the first producer's dependency count.
  const std::size_t core_at = sectionBodyAt(file, "core");
  ASSERT_NE(core_at, 0u) << "no core section";
  constexpr std::size_t kRecordBytes = 8 + 1 + 8 + 1 + 4 + 4;
  binio::ByteReader core(file.data() + core_at, file.size() - core_at);
  (void)core.u64();                                  // head_seq
  const std::uint64_t rob_n = core.u64();
  (void)core.take(rob_n * (kRecordBytes + 2));       // entries + flags
  (void)core.take(1 + 8 + 8);                        // trace_done, now, base
  if (core.u8() != 0) (void)core.take(kRecordBytes); // staged record
  ASSERT_GT(core.u64(), 0u) << "checkpoint holds no dependency list";
  (void)core.u64();                                  // producer seq
  ASSERT_TRUE(core.ok());
  forgeU64AndReseal(path, file, file.size() - core.remaining(),
                    std::uint64_t{1} << 40);

  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "dependency count 1099511627776");
  std::remove(path.c_str());
}

// The same forgery on a SegmentedWayTable section: its first chunk's code
// count (tools/lint/schemas/SegmentedWayTable.schema) forged to 2^40 must
// be refused against the geometry's lines_per_chunk before it sizes the
// chunk's code vector.
TEST(CheckpointDeathTest, ForgedSegmentedWtCodeCountAbortsBeforeAllocating) {
  const std::string path = tmpPath("forgedswt.mckpt");
  waydet::SegmentedWayTable::Params p;
  p.slots = 8;
  p.lines_per_page = 32;
  p.lines_per_chunk = 8;
  p.chunks = 6;
  waydet::SegmentedWayTable a(p);
  a.record(1, 3, 0, 1);
  ckpt::StateWriter w;
  w.beginSection("swt");
  a.saveState(w);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  const std::vector<std::uint8_t> file = readBytes(path);
  const std::size_t swt_at = sectionBodyAt(file, "swt");
  ASSERT_NE(swt_at, 0u) << "no swt section";
  // pool size, then chunk 0: valid, slot, index, lru, code count.
  forgeU64AndReseal(path, file, swt_at + 8 + 1 + 4 + 4 + 8,
                    std::uint64_t{1} << 40);

  waydet::SegmentedWayTable b(p);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("swt");
  EXPECT_DEATH(b.loadState(r),
               "segmented-WT chunk code count 1099511627776, this geometry "
               "holds 8");
  std::remove(path.c_str());
}

/// Write `c`'s state as the one section `name` of a checkpoint at `path`
/// and return the file's bytes.
template <class Component>
std::vector<std::uint8_t> saveOneSection(const std::string& path,
                                         const char* name,
                                         const Component& c) {
  ckpt::StateWriter w;
  w.beginSection(name);
  c.saveState(w);
  w.endSection();
  std::string err;
  EXPECT_TRUE(w.writeTo(path, err)) << err;
  return readBytes(path);
}

/// Forge the u64 at `offset` into section `name`'s body of the checkpoint
/// `file` and reseal it at `path`.
void forgeInSection(const std::string& path,
                    const std::vector<std::uint8_t>& file, const char* name,
                    std::size_t offset, std::uint64_t value) {
  const std::size_t at = sectionBodyAt(file, name);
  ASSERT_NE(at, 0u) << "no " << name << " section";
  forgeU64AndReseal(path, file, at + offset, value);
}

// Every count a loadState loops on is bounded by the section's bytes left,
// and a forged one is refused by name — not as a read past the section end.
TEST(CheckpointDeathTest, ForgedEventQueueCountAbortsAtTheCount) {
  const std::string path = tmpPath("forgedeq.mckpt");
  core::EventQueue q;
  q.push(5, 1);
  q.push(9, 2);
  const auto file = saveOneSection(path, "eq", q);
  forgeInSection(path, file, "eq", 0, std::uint64_t{1} << 40);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("eq");
  core::EventQueue restored;
  EXPECT_DEATH(restored.loadState(r),
               "event queue count 1099511627776 exceeds the 32 bytes left");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForgedOutstandingMissCountAbortsAtTheCount) {
  const std::string path = tmpPath("forgedmh.mckpt");
  mem::L1Cache l1{mem::L1Cache::Params{}};
  mem::L2Cache l2{mem::L2Cache::Params{}};
  mem::MemoryHierarchy hier{l1, l2, mem::MemoryHierarchy::Params{}};
  (void)hier.missAccess(0x1000, 0, false);
  const auto file = saveOneSection(path, "mem", hier);
  forgeInSection(path, file, "mem", 0, std::uint64_t{1} << 40);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("mem");
  EXPECT_DEATH(hier.loadState(r),
               "outstanding-miss count 1099511627776 exceeds the 49 bytes "
               "left");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForgedPageTableCountAbortsAtTheCount) {
  const std::string path = tmpPath("forgedpt.mckpt");
  tlb::PageTable pt;
  for (PageId v = 0; v < 3; ++v) (void)pt.translate(v * 7);
  const auto file = saveOneSection(path, "pt", pt);
  forgeInSection(path, file, "pt", 0, std::uint64_t{1} << 40);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("pt");
  tlb::PageTable restored;
  EXPECT_DEATH(restored.loadState(r),
               "page-table mapping count 1099511627776 exceeds the 32 bytes "
               "left");
  std::remove(path.c_str());
}

// PageTable entries are sorted (vpage, ppage) u32 pairs after the u64
// count; forging the second pair from the first's halves repeats a page,
// and a frame past the table's frame count is refused too.
TEST(CheckpointDeathTest, RepeatedOrOutOfRangePageTableMappingsAbort) {
  const std::string path = tmpPath("duppt.mckpt");
  tlb::PageTable pt;
  const PageId p0 = pt.translate(10);
  const PageId p1 = pt.translate(20);
  const auto file = saveOneSection(path, "pt", pt);
  const auto pair = [](PageId v, PageId p) {
    return static_cast<std::uint64_t>(v) | static_cast<std::uint64_t>(p) << 32;
  };
  const auto expectRefused = [&](std::uint64_t second_pair, const char* why) {
    forgeInSection(path, file, "pt", 16, second_pair);
    ckpt::StateReader r(path);
    ASSERT_TRUE(r.ok()) << r.error();
    r.openSection("pt");
    tlb::PageTable restored;
    EXPECT_DEATH(restored.loadState(r), why);
  };
  expectRefused(pair(10, p1), "page-table virtual page 10 is mapped twice");
  expectRefused(pair(20, p0),
                "page-table frame [0-9]+ is mapped twice in a table of 2 "
                "pages");
  expectRefused(pair(20, 65536),
                "page-table frame 65536 is outside the 65536 physical pages");
  std::remove(path.c_str());
}

// More pages than frames is the one state where translate() shares frames;
// such a table must still restore.
TEST(Checkpoint, OversubscribedPageTableRoundTrips) {
  const std::string path = tmpPath("overpt.mckpt");
  tlb::PageTable pt(4);
  for (PageId v = 0; v < 7; ++v) (void)pt.translate(v);
  (void)saveOneSection(path, "pt", pt);
  tlb::PageTable restored(4);
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("pt");
  restored.loadState(r);
  r.endSection();
  EXPECT_EQ(restored.walks(), pt.walks());
  for (PageId v = 0; v < 7; ++v) EXPECT_EQ(restored.translate(v), pt.translate(v));
  EXPECT_EQ(restored.walks(), pt.walks());
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, MissingCheckpointAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.start_ckpt = "/nonexistent/x.mckpt";
  EXPECT_DEATH((void)runOne(rc), "cannot open");
}

TEST(CheckpointDeathTest, TruncatedCheckpointAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "trunc.mckpt");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() - 9, f);
  std::fclose(f);
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "truncated or corrupt");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, CorruptPayloadAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "corrupt.mckpt");
  flipByteAt(path, 32 + 100);  // somewhere inside the payload
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "checksum mismatch");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForeignFileAborts) {
  const std::string path = tmpPath("foreign.mckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = "this is not a checkpoint at all, not even close";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "not a MALEC checkpoint");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, VersionSkewAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "version.mckpt");
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 4, SEEK_SET);
  std::fputc(9, f);  // version 9
  std::fclose(f);
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "unsupported checkpoint version");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, DifferentConfigurationAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "cfg.mckpt");
  RunConfig other = baseConfig("gcc", presetBase1ldst(), 2'000);
  other.start_ckpt = path;
  EXPECT_DEATH((void)runOne(other), "different run configuration");
  // A changed seed or budget is the same class of mismatch.
  RunConfig reseeded = baseConfig("gcc", presetMalec(), 2'000, 99);
  reseeded.start_ckpt = path;
  EXPECT_DEATH((void)runOne(reseeded), "different run configuration");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForeignTraceBindingAborts) {
  // Checkpoint a replay of trace A, then try to resume it on trace B (same
  // path contents requirement: count+checksum, exactly like .mplan).
  const std::string trace_a = tmpPath("bind_a.mtrace");
  const std::string trace_b = tmpPath("bind_b.mtrace");
  captureTrace(baseConfig("gcc", presetMalec(), 3'000), trace_a);
  captureTrace(baseConfig("gcc", presetMalec(), 3'000, 5), trace_b);
  RunConfig rc = baseConfig("gcc", presetMalec(), 0);
  rc.workload = traceWorkload(trace_a);
  const std::string path = tmpPath("bind.mckpt");
  RunConfig writing = rc;
  writing.ckpt_out = path;
  writing.ckpt_every = 1'000;
  (void)runOne(writing);
  RunConfig foreign = rc;
  foreign.workload = traceWorkload(trace_b);
  foreign.workload.name = rc.workload.name;  // same name, different bytes
  foreign.start_ckpt = path;
  EXPECT_DEATH((void)runOne(foreign), "different trace");
  std::remove(path.c_str());
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
}

TEST(CheckpointDeathTest, OutputPathWithoutIntervalAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_out = tmpPath("nointerval.mckpt");
  EXPECT_DEATH((void)runOne(rc), "needs an interval .* set ckpt_every");
}

TEST(CheckpointDeathTest, IntervalWithoutOutputPathAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_every = 500;  // cadence with nowhere to write
  EXPECT_DEATH((void)runOne(rc), "nowhere to write");
}

TEST(CheckpointDeathTest, IntervalBeyondTheRunAborts) {
  // A fresh run that asked for checkpoints but never crossed one interval
  // must fail loudly — the user would otherwise discover the missing file
  // only at resume time, after the expensive run is gone.
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_out = tmpPath("beyond.mckpt");
  rc.ckpt_every = 1'000'000;
  EXPECT_DEATH((void)runOne(rc), "no checkpoint was written");
}

}  // namespace
}  // namespace malec::sim
