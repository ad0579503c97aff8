#include "trace/trace_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include "common/binio.h"
#include "common/check.h"

namespace malec::trace {

using binio::fnv1a;
using binio::get32;
using binio::get64;
using binio::kFnvOffset;
using binio::put32;
using binio::put64;

namespace {

/// Fixed-width on-disk record (little-endian, packed manually for
/// portability — no struct punning).
constexpr std::size_t kRecordBytes = binio::kTraceRecordBytes;

/// Records staged/read per stdio call. 4096 records = ~104 KiB blocks —
/// three orders of magnitude fewer libc calls than one fwrite/fread per
/// 26-byte record.
constexpr std::uint64_t kBlockRecords = 4096;
constexpr std::size_t kBlockBytes = kBlockRecords * kRecordBytes;
/// The verifier reads each block in chunks of this many records (13 KiB),
/// which keeps its buffer, the reader's only extra memory, small.
constexpr std::uint64_t kChunkRecords = 512;
static_assert(kBlockRecords % kChunkRecords == 0);

constexpr std::size_t kHeaderBytesV1 = 16;  // magic, version, count
constexpr std::size_t kHeaderBytesV2 = 52;  // v2, v3: + checksum, layout
constexpr long kCountOffset = 8;
constexpr std::size_t kNumLayoutParams = 7;

/// Largest access size accepted for a memory record; the modelled machine
/// never issues accesses wider than two 64-byte lines' worth.
constexpr std::uint32_t kMaxAccessSize = 128;

/// How far (in records) the verifier may run ahead of the furthest
/// position the reader has asked for: about 26 MB, far enough to cover a
/// sampled replay's next fast-forward while the current segment simulates,
/// near enough that a capped run over a huge capture does not hash the
/// whole file for nothing.
constexpr std::uint64_t kLeadRecords = 256 * kBlockRecords;

constexpr std::uint64_t kNoRecord = std::numeric_limits<std::uint64_t>::max();

void encode(const InstrRecord& r, std::uint8_t* buf) {
  put64(buf + 0, r.seq);
  put64(buf + 8, r.vaddr);
  buf[16] = static_cast<std::uint8_t>(r.kind);
  buf[17] = r.size;
  put32(buf + 18, r.dep_distance);
  put32(buf + 22, r.addr_dep_distance);
}

/// False for kind/size bytes no valid producer emits — an out-of-range
/// kind would otherwise become an enum that isMem() happily treats as a
/// memory op. The one validation rule for next(), skip() and the verifier.
bool recordValid(const std::uint8_t* buf) {
  const std::uint8_t kind = buf[16];
  if (kind > static_cast<std::uint8_t>(InstrKind::kStore)) return false;
  const std::uint8_t size = buf[17];
  return kind == static_cast<std::uint8_t>(InstrKind::kOther) ||
         (size != 0 && size <= kMaxAccessSize);
}

/// Why recordValid() rejected `buf`.
std::string invalidReason(const std::uint8_t* buf) {
  const std::uint8_t kind = buf[16];
  if (kind > static_cast<std::uint8_t>(InstrKind::kStore))
    return "invalid instruction kind byte " + std::to_string(kind);
  return "invalid access size " + std::to_string(buf[17]) +
         " for a memory record (expect 1.." + std::to_string(kMaxAccessSize) +
         ")";
}

/// Decodes one record that passed recordValid().
void decode(const std::uint8_t* buf, InstrRecord& r) {
  r.seq = get64(buf + 0);
  r.vaddr = get64(buf + 8);
  r.kind = static_cast<InstrKind>(buf[16]);
  r.size = buf[17];
  r.dep_distance = get32(buf + 18);
  r.addr_dep_distance = get32(buf + 22);
}

/// Fold records [p, p + n records) into the running checksum `s` by the rule
/// of trace format `version`: v3 folds one digest per record, v2 runs FNV-1a
/// over the bytes, v1 carries no checksum. The one place the reader tells
/// the versions' checksums apart.
std::uint64_t foldRecords(std::uint32_t version, std::uint64_t s,
                          const std::uint8_t* p, std::uint64_t n) {
  const auto count = static_cast<std::size_t>(n);
  if (version == kTraceVersion) return binio::foldTraceRecords(s, p, count);
  if (version == kTraceVersionV2) return fnv1a(s, p, count * kRecordBytes);
  return s;
}

/// pread() exactly `n` bytes at `off`; false on I/O error or end of file.
bool readAt(int fd, std::uint8_t* p, std::size_t n, std::uint64_t off) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
    off += static_cast<std::uint64_t>(got);
  }
  return true;
}

}  // namespace

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const AddressLayout& layout) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    error_ = "cannot open '" + path + "' for writing";
    return;
  }
  std::uint8_t hdr[kHeaderBytesV2] = {};
  put32(hdr + 0, kTraceMagic);
  put32(hdr + 4, kTraceVersion);
  put64(hdr + 8, 0);   // record count, patched on close
  put64(hdr + 16, 0);  // checksum, patched on close
  const std::uint32_t params[kNumLayoutParams] = {
      layout.addrBits(), layout.pageBytes(),  layout.lineBytes(),
      layout.subBlockBytes(), layout.l1Bytes(), layout.l1Assoc(),
      layout.l1Banks()};
  for (std::size_t i = 0; i < kNumLayoutParams; ++i)
    put32(hdr + 24 + 4 * i, params[i]);
  if (std::fwrite(hdr, 1, sizeof hdr, f_) != sizeof hdr) {
    error_ = "cannot write header of '" + path + "'";
    return;
  }
  checksum_ = kFnvOffset;
  buf_.reserve(kBlockBytes);
  ok_ = true;
}

TraceWriter::~TraceWriter() {
  if (f_ != nullptr) close();
}

void TraceWriter::fail(std::string msg) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(msg);
}

bool TraceWriter::flushBlock() {
  if (buf_.empty()) return true;
  if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
    fail("short write while flushing a record block");
    return false;
  }
  buf_.clear();
  return true;
}

void TraceWriter::write(const InstrRecord& r) {
  if (!ok_) return;
  const std::size_t at = buf_.size();
  buf_.resize(at + kRecordBytes);
  encode(r, buf_.data() + at);
  checksum_ = binio::foldTraceRecords(checksum_, buf_.data() + at, 1);
  ++count_;
  if (buf_.size() >= kBlockBytes) flushBlock();
}

bool TraceWriter::close() {
  if (f_ == nullptr) return ok_;
  if (ok_) flushBlock();
  if (ok_) {
    // An unpatched header promises 0 records — the file would fail every
    // later open, so a patch failure must fail close() too.
    if (std::fseek(f_, kCountOffset, SEEK_SET) != 0) {
      fail("cannot seek back to patch the header");
    } else {
      std::uint8_t patch[16];
      put64(patch + 0, count_);
      put64(patch + 8, checksum_);
      if (std::fwrite(patch, 1, sizeof patch, f_) != sizeof patch)
        fail("cannot patch the header record count");
    }
  }
  if (std::fclose(f_) != 0) fail("close failed");
  f_ = nullptr;
  return ok_;
}

// --- TraceReader::Verifier --------------------------------------------------

/// The background half of a TraceReader: streams records [origin, total)
/// through its own chunk buffer, validates each record, folds the record
/// checksum (foldRecords) and publishes the running checksum at every block
/// boundary. The file descriptor is shared read-only (pread never moves an
/// offset). Everything the thread needs is allocated here, on the reader's
/// thread.
class TraceReader::Verifier {
 public:
  Verifier(int fd, std::uint64_t header_bytes, std::uint32_t version,
           std::uint64_t total, std::uint64_t origin, std::uint64_t origin_sum)
      : fd_(fd),
        header_bytes_(header_bytes),
        version_(version),
        total_(total),
        origin_(origin),
        origin_sum_(origin_sum),
        chunk_(kChunkRecords * kRecordBytes),
        verified_(origin),
        demand_(origin) {
    sums_.reserve((total - origin) / kBlockRecords + 2);
    sums_.push_back(origin_sum);
    thread_ = std::thread([this] { run(); });
  }
  ~Verifier() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  /// Let the verifier run up to kLeadRecords past record `n`.
  void want(std::uint64_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    raiseDemand(n);
  }
  /// Block until records [origin, n) are verified; false if the verifier
  /// stopped short (a read failed).
  bool waitFor(std::uint64_t n) {
    std::unique_lock<std::mutex> lk(mu_);
    raiseDemand(n);
    cv_.wait(lk, [&] { return verified_ >= n || done_; });
    return verified_ >= n;
  }
  /// Running checksum at record min(origin + k * kBlockRecords, total);
  /// only after waitFor() reached that record.
  std::uint64_t sumAtBlock(std::uint64_t k) {
    std::lock_guard<std::mutex> lk(mu_);
    return sums_[k];
  }
  /// First invalid record among the verified ones (kNoRecord if none), and
  /// why it is invalid.
  std::uint64_t firstInvalid(std::string& why) {
    std::lock_guard<std::mutex> lk(mu_);
    if (bad_at_ != kNoRecord) why = invalidReason(bad_record_);
    return bad_at_;
  }

 private:
  void raiseDemand(std::uint64_t n) {
    if (n <= demand_) return;
    demand_ = n;
    cv_.notify_all();
  }

  void run() {
    try {
      verify();
    } catch (...) {
      // Nothing in verify() allocates; should anything still throw, the
      // verifier stops short and every waiter fails its reader.
    }
    std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
    cv_.notify_all();
  }

  void verify() {
    std::uint64_t pos = origin_;
    std::uint64_t sum = origin_sum_;
    std::unique_lock<std::mutex> lk(mu_);
    while (pos < total_) {
      cv_.wait(lk, [&] { return stop_ || pos < demand_ + kLeadRecords; });
      if (stop_) return;
      lk.unlock();
      const std::uint64_t end = std::min(pos + kBlockRecords, total_);
      std::uint64_t bad = kNoRecord;
      std::uint8_t bad_record[kRecordBytes] = {};
      for (std::uint64_t at = pos; at < end; at += kChunkRecords) {
        const std::uint64_t n = std::min(kChunkRecords, end - at);
        const std::size_t bytes = static_cast<std::size_t>(n) * kRecordBytes;
        if (!readAt(fd_, chunk_.data(), bytes,
                    header_bytes_ + at * kRecordBytes))
          return;
        for (std::uint64_t i = 0; i < n && bad == kNoRecord; ++i) {
          const std::uint8_t* rec = chunk_.data() + i * kRecordBytes;
          if (recordValid(rec)) continue;
          bad = at + i;
          std::memcpy(bad_record, rec, kRecordBytes);
        }
        sum = foldRecords(version_, sum, chunk_.data(), n);
      }
      lk.lock();
      if (bad != kNoRecord && bad_at_ == kNoRecord) {
        bad_at_ = bad;
        std::memcpy(bad_record_, bad_record, kRecordBytes);
      }
      pos = end;
      verified_ = pos;
      sums_.push_back(sum);  // within the reserved capacity
      cv_.notify_all();
    }
  }

  const int fd_;
  const std::uint64_t header_bytes_;
  const std::uint32_t version_;
  const std::uint64_t total_;
  const std::uint64_t origin_;
  const std::uint64_t origin_sum_;
  std::vector<std::uint8_t> chunk_;  // the verifier thread's own buffer

  std::mutex mu_;
  std::condition_variable cv_;
  // Guarded by mu_.
  bool stop_ = false;
  bool done_ = false;
  std::uint64_t verified_;
  std::uint64_t demand_;
  std::vector<std::uint64_t> sums_;
  std::uint64_t bad_at_ = kNoRecord;
  std::uint8_t bad_record_[kRecordBytes] = {};

  std::thread thread_;
};

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    error_ = "cannot open '" + path + "'";
    return;
  }
  std::uint8_t hdr[kHeaderBytesV2];
  if (!readAt(fd_, hdr, kHeaderBytesV1, 0)) {
    error_ = "'" + path + "' is too short to hold a trace header";
    return;
  }
  if (get32(hdr + 0) != kTraceMagic) {
    error_ = "'" + path + "' is not a MALEC trace (bad magic)";
    return;
  }
  version_ = get32(hdr + 4);
  if (version_ != kTraceVersionV1 && version_ != kTraceVersionV2 &&
      version_ != kTraceVersion) {
    error_ = "'" + path + "' has unsupported trace version " +
             std::to_string(version_);
    return;
  }
  total_ = get64(hdr + 8);
  header_bytes_ = version_ == kTraceVersionV1 ? kHeaderBytesV1 : kHeaderBytesV2;
  if (hasChecksum()) {
    if (!readAt(fd_, hdr + kHeaderBytesV1, kHeaderBytesV2 - kHeaderBytesV1,
                kHeaderBytesV1)) {
      error_ = "'" + path + "' is truncated inside the v" +
               std::to_string(version_) + " header";
      return;
    }
    checksum_expect_ = get64(hdr + 16);
    std::uint32_t params[kNumLayoutParams];
    for (std::size_t i = 0; i < kNumLayoutParams; ++i)
      params[i] = get32(hdr + 24 + 4 * i);
    layout_params_.addr_bits = params[0];
    layout_params_.page_bytes = params[1];
    layout_params_.line_bytes = params[2];
    layout_params_.sub_block_bytes = params[3];
    layout_params_.l1_bytes = params[4];
    layout_params_.l1_assoc = params[5];
    layout_params_.l1_banks = params[6];
    has_layout_ = true;
  }

  // A header count that disagrees with the file size means the capture was
  // cut short (or bytes were appended) — fail at open instead of serving a
  // partial stream as if it were complete. 64-bit arithmetic throughout:
  // Simpoint-scale captures dwarf a 32-bit `long`.
  std::error_code ec;
  const std::uintmax_t fs_size = std::filesystem::file_size(path, ec);
  if (ec) {
    error_ = "cannot stat '" + path + "': " + ec.message();
    return;
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(fs_size);
  const std::uint64_t expect =
      header_bytes_ + total_ * static_cast<std::uint64_t>(kRecordBytes);
  if (file_size != expect) {
    error_ = "'" + path + "' is truncated or corrupt: header promises " +
             std::to_string(total_) + " records (" + std::to_string(expect) +
             " bytes) but the file holds " + std::to_string(file_size) +
             " bytes";
    return;
  }
  origin_sum_ = kFnvOffset;
  ok_ = true;
}

TraceReader::~TraceReader() {
  verifier_.reset();  // joins the thread before its descriptor goes away
  if (fd_ >= 0) ::close(fd_);
}

void TraceReader::fail(std::string msg) {
  ok_ = false;
  if (error_.empty()) error_ = "'" + path_ + "': " + std::move(msg);
}

TraceReader::Verifier& TraceReader::verifier() {
  if (!verifier_)
    verifier_ = std::make_unique<Verifier>(fd_, header_bytes_, version_,
                                           total_, origin_, origin_sum_);
  return *verifier_;
}

bool TraceReader::awaitVerified(std::uint64_t n) {
  if (verifier().waitFor(n)) return true;
  fail("short read while verifying the record checksum");
  return false;
}

bool TraceReader::loadBlock() {
  buf_first_ = origin_ + (read_ - origin_) / kBlockRecords * kBlockRecords;
  buf_end_ = std::min(buf_first_ + kBlockRecords, total_);
  buf_.resize(static_cast<std::size_t>(buf_end_ - buf_first_) * kRecordBytes);
  if (!readAt(fd_, buf_.data(), buf_.size(),
              header_bytes_ + buf_first_ * kRecordBytes)) {
    // Unreachable for a file that passed the open-time size check unless it
    // shrank underneath us — still a hard error, not a quiet short stream.
    buf_end_ = buf_first_;
    fail("short read mid-stream (file changed after open?)");
    return false;
  }
  verifier().want(buf_end_);
  return true;
}

bool TraceReader::verifyEnd() {
  if (!awaitVerified(total_)) return false;
  const std::uint64_t blocks =
      (total_ - origin_ + kBlockRecords - 1) / kBlockRecords;
  if (verifier_->sumAtBlock(blocks) != checksum_expect_) {
    fail("record checksum mismatch — the payload is corrupt");
    return false;
  }
  std::string why;
  const std::uint64_t bad = verifier_->firstInvalid(why);
  if (bad != kNoRecord) {
    fail(why + " at record " + std::to_string(bad));
    return false;
  }
  return true;
}

bool TraceReader::next(InstrRecord& out) {
  if (!ok_ || read_ >= total_) return false;
  if (read_ >= buf_end_ && !loadBlock()) return false;
  const std::uint8_t* rec = buf_.data() + (read_ - buf_first_) * kRecordBytes;
  if (!recordValid(rec)) {
    fail(invalidReason(rec) + " at record " + std::to_string(read_));
    return false;
  }
  decode(rec, out);
  ++read_;
  if (read_ == total_ && hasChecksum() && !verifyEnd())
    return false;
  return true;
}

bool TraceReader::skip(std::uint64_t n) {
  if (!ok_) return false;
  if (n == 0) return true;
  if (read_ >= total_) return false;
  const std::uint64_t target = total_ - read_ < n ? total_ : read_ + n;
  if (!awaitVerified(target)) return false;
  std::string why;
  const std::uint64_t bad = verifier_->firstInvalid(why);
  if (bad < target) {
    read_ = bad;
    fail(why + " at record " + std::to_string(bad));
    return false;
  }
  const bool all = target - read_ == n;
  read_ = target;
  if (read_ == total_ && hasChecksum() && !verifyEnd())
    return false;
  return all;
}

std::uint64_t TraceReader::runningChecksum() {
  if (!ok_ || !hasChecksum() || read_ == origin_)
    return origin_sum_;
  // The verifier publishes the checksum at its block boundaries; fold the
  // records between the last boundary and read_ from buf_, which holds
  // that same (origin-aligned) block.
  const std::uint64_t k = (read_ - origin_) / kBlockRecords;
  const std::uint64_t first = origin_ + k * kBlockRecords;
  if (!awaitVerified(first)) return origin_sum_;
  const std::uint64_t sum = verifier_->sumAtBlock(k);
  if (read_ == first) return sum;
  if ((buf_first_ != first || buf_end_ <= first) && !loadBlock())
    return origin_sum_;
  return foldRecords(version_, sum, buf_.data(), read_ - first);
}

bool TraceReader::finishChecksum() {
  if (!ok_ || !hasChecksum() || read_ >= total_) return ok_;
  read_ = total_;  // now at end-of-stream: next() is false, reset() replays
  return verifyEnd();
}

void TraceReader::restartAt(std::uint64_t n, std::uint64_t checksum_run) {
  verifier_.reset();
  origin_ = n;
  origin_sum_ = checksum_run;
  read_ = n;
  buf_first_ = 0;
  buf_end_ = 0;
}

bool TraceReader::seekTo(std::uint64_t n, std::uint64_t checksum_run) {
  if (!ok_) return false;
  if (n > total_) {
    fail("checkpoint position " + std::to_string(n) + " exceeds the " +
         std::to_string(total_) + "-record stream");
    return false;
  }
  restartAt(n, checksum_run);
  return true;
}

void TraceReader::reset() {
  // Sticky failure: rewinding must not resurrect a reader that reported an
  // I/O or corruption error — a replay loop would re-serve bad data.
  if (!ok_) return;
  restartAt(0, kFnvOffset);
}

std::vector<InstrRecord> drain(TraceSource& src) {
  std::vector<InstrRecord> v;
  InstrRecord r;
  while (src.next(r)) v.push_back(r);
  return v;
}

}  // namespace malec::trace
