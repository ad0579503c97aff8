#include "ckpt/state_io.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/binio.h"
#include "common/check.h"

namespace malec::ckpt {

using binio::get32;
using binio::get64;
using binio::put32;
using binio::put64;

namespace {

/// Header: magic, version, payload byte count, section count, reserved,
/// payload checksum — 32 bytes (see docs/FILE_FORMATS.md).
constexpr std::size_t kHeaderBytes = 32;

std::uint64_t checksum(const std::uint8_t* p, std::size_t n) {
  return binio::fnv1a(binio::kFnvOffset, p, n);
}

/// Reap temp files a crashed (or SIGKILLed) writer left next to `path`:
/// anything matching `<basename>.tmp.<pid>.<serial>` whose pid no longer
/// exists. A temp belonging to a LIVE process is another writer mid-write
/// of the same checkpoint — racing but healthy — and must be left alone;
/// its atomic rename will win or lose on its own. Cleanup failures are
/// deliberately silent: stale temps waste disk, they never corrupt.
void removeStaleTemps(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::filesystem::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const char* rest = name.c_str() + prefix.size();
    char* end = nullptr;
    errno = 0;
    // Scanning arbitrary directory entries: a non-numeric name means
    // "not one of our temps, skip" — never an error, so strict parsing
    // (which aborts) is the wrong tool here.
    // lint:allow(strict-parse: non-numeric filename means skip, not abort)
    const long pid = std::strtol(rest, &end, 10);
    if (errno != 0 || end == rest || *end != '.' || pid <= 0) continue;
    // Signal 0 probes existence without sending anything. EPERM means the
    // pid exists but belongs to someone else — also alive, keep the file.
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace

// --- StateWriter ------------------------------------------------------------

void StateWriter::beginSection(const std::string& name) {
  MALEC_CHECK_MSG(open_len_at_ == kNone,
                  "checkpoint sections must not nest");
  MALEC_CHECK_MSG(!name.empty(), "checkpoint section needs a name");
  for (const std::string& n : names_) {
    if (n == name) {
      const std::string msg = "duplicate checkpoint section '" + name + "'";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
  }
  names_.push_back(name);
  // Inline section header: u32 name length, name bytes, u64 body length
  // (patched in endSection), body bytes.
  section_.str32(name);
  section_.u64(0);
  open_len_at_ = section_.size() - 8;
  ++sections_;
}

void StateWriter::endSection() {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "no checkpoint section is open");
  section_.patch64(open_len_at_, section_.size() - (open_len_at_ + 8));
  open_len_at_ = kNone;
  spool(section_.data(), section_.size());
  section_.clear();
}

void StateWriter::spool(const std::uint8_t* p, std::size_t n) {
  if (!spool_error_.empty()) return;
  if (spool_ == nullptr) {
    spool_.reset(std::tmpfile());
    if (spool_ == nullptr) {
      spool_error_ = std::string("cannot create the checkpoint spool file: ") +
                     std::strerror(errno);
      return;
    }
  }
  if (std::fwrite(p, 1, n, spool_.get()) != n) {
    spool_error_ = std::string("cannot append to the checkpoint spool file: ") +
                   std::strerror(errno);
    return;
  }
  payload_bytes_ += n;
  checksum_ = binio::fnv1a(checksum_, p, n);
}

std::string StateWriter::copySpoolTo(std::FILE* out,
                                     const std::string& short_write) const {
  if (spool_ == nullptr) return {};  // no sections: an empty payload
  std::FILE* in = spool_.get();
  if (std::fseek(in, 0, SEEK_SET) != 0)
    return "cannot rewind the checkpoint spool file";
  std::vector<std::uint8_t> chunk(std::size_t{1} << 16);
  std::string fail;
  for (std::uint64_t left = payload_bytes_; left > 0 && fail.empty();) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size()));
    if (std::fread(chunk.data(), 1, n, in) != n)
      fail = "short read from the checkpoint spool file";
    else if (std::fwrite(chunk.data(), 1, n, out) != n)
      fail = short_write;
    left -= n;
  }
  // Later sections append: leave the spool positioned at its end (a stdio
  // update stream must seek between a read and a write anyway).
  if (std::fseek(in, 0, SEEK_END) != 0 && fail.empty())
    fail = "cannot reposition the checkpoint spool file";
  return fail;
}

binio::ByteWriter& StateWriter::body() {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "write outside a checkpoint section");
  return section_;
}

void StateWriter::u8(std::uint8_t v) { body().u8(v); }
void StateWriter::u32(std::uint32_t v) { body().u32(v); }
void StateWriter::u64(std::uint64_t v) { body().u64(v); }
void StateWriter::f64(double v) { body().f64(v); }

void StateWriter::str(const std::string& s) { body().str64(s); }

void StateWriter::bytes(const std::uint8_t* p, std::size_t n) {
  body().bytes(p, n);
}

bool StateWriter::writeTo(const std::string& path, std::string& err) const {
  MALEC_CHECK_MSG(open_len_at_ == kNone,
                  "cannot write a checkpoint with an open section");
  if (!spool_error_.empty()) {
    err = "cannot write '" + path + "': " + spool_error_;
    return false;
  }
  std::uint8_t hdr[kHeaderBytes] = {};
  put32(hdr + 0, magic_);
  put32(hdr + 4, version_);
  put64(hdr + 8, payload_bytes_);
  put32(hdr + 16, static_cast<std::uint32_t>(sections_));
  put32(hdr + 20, 0);  // reserved
  put64(hdr + 24, checksum_);

  // Temp + rename: a reader (possibly in another process of a parallel
  // sweep) must only ever see a complete checkpoint under `path`. The temp
  // name is unique per writer — with a shared name, two racing writers of
  // the same checkpoint (e.g. parallel first-runs populating one warmup
  // cache) would interleave writes into one inode and expose a torn file
  // under `path`; with unique temps the last atomic rename simply wins.
  // A process killed mid-write leaves its unique temp behind forever —
  // sweep one up per write so checkpoint directories do not accumulate
  // dead `.tmp.*` files.
  removeStaleTemps(path);
  static std::atomic<std::uint64_t> temp_serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    err = "cannot open '" + tmp + "' for writing";
    return false;
  }
  // Flush AND fsync before the rename replaces the previous checkpoint:
  // this is a crash-recovery feature, so a power loss right after the
  // rename must not leave the only checkpoint as unflushed page cache —
  // the old file is only given up once the new bytes are durable.
  const std::string short_write = "short write to '" + tmp + "'";
  std::string fail = std::fwrite(hdr, 1, sizeof hdr, f) == sizeof hdr
                         ? copySpoolTo(f, short_write)
                         : short_write;
  if (fail.empty() && (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0))
    fail = short_write;
  if (std::fclose(f) != 0 && fail.empty()) fail = short_write;
  if (!fail.empty()) {
    err = fail;
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    err = "cannot rename '" + tmp + "' to '" + path + "': " + ec.message();
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// --- StateReader ------------------------------------------------------------

StateReader::StateReader(const std::string& path, std::uint32_t magic,
                         std::uint32_t expect_version, const char* kind)
    : path_(path), kind_(kind) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error_ = "cannot open '" + path + "'";
    return;
  }
  std::uint8_t hdr[kHeaderBytes];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) {
    std::fclose(f);
    error_ = "'" + path + "' is too short to hold a " + kind_ + " header";
    return;
  }
  if (get32(hdr + 0) != magic) {
    std::fclose(f);
    error_ = "'" + path + "' is not a MALEC " + kind_ + " (bad magic)";
    return;
  }
  const std::uint32_t version = get32(hdr + 4);
  if (version != expect_version) {
    std::fclose(f);
    error_ = "'" + path + "' has unsupported " + kind_ + " version " +
             std::to_string(version);
    return;
  }
  const std::uint64_t payload_bytes = get64(hdr + 8);
  const std::uint32_t sections = get32(hdr + 16);
  const std::uint64_t expect_sum = get64(hdr + 24);

  // File size must match the header's payload length exactly — truncated
  // or appended-to checkpoints are hard errors, like every MALEC format.
  std::error_code ec;
  const std::uintmax_t fs_size = std::filesystem::file_size(path, ec);
  if (ec) {
    std::fclose(f);
    error_ = "cannot stat '" + path + "': " + ec.message();
    return;
  }
  if (static_cast<std::uint64_t>(fs_size) != kHeaderBytes + payload_bytes) {
    std::fclose(f);
    error_ = "'" + path + "' is truncated or corrupt: header promises " +
             std::to_string(kHeaderBytes + payload_bytes) +
             " bytes but the file holds " + std::to_string(fs_size) +
             " bytes";
    return;
  }

  payload_.resize(static_cast<std::size_t>(payload_bytes));
  const bool read_ok =
      std::fread(payload_.data(), 1, payload_.size(), f) == payload_.size();
  std::fclose(f);
  if (!read_ok) {
    error_ = "short read from '" + path + "'";
    return;
  }
  if (checksum(payload_.data(), payload_.size()) != expect_sum) {
    error_ = "'" + path + "': state checksum mismatch — the " + kind_ +
             " is corrupt";
    return;
  }

  // Scan the section table; every structural inconsistency that survived
  // the checksum (i.e. a buggy producer) still fails here.
  binio::ByteReader table(payload_.data(), payload_.size());
  for (std::uint32_t s = 0; s < sections; ++s) {
    Section sec;
    sec.name = table.str(table.u32());
    const std::uint64_t body = table.u64();
    if (!table.ok()) {
      error_ = "'" + path + "': section table overruns the payload";
      return;
    }
    sec.offset = payload_.size() - table.remaining();
    sec.size = static_cast<std::size_t>(body);
    if (table.take(body) == nullptr) {
      error_ = "'" + path + "': section '" + sec.name +
               "' overruns the payload";
      return;
    }
    sections_.push_back(std::move(sec));
  }
  if (table.remaining() != 0) {
    error_ = "'" + path + "': trailing bytes after the last section";
    return;
  }
  ok_ = true;
}

bool StateReader::hasSection(const std::string& name) const {
  for (const Section& s : sections_)
    if (s.name == name) return true;
  return false;
}

void StateReader::openSection(const std::string& name) {
  MALEC_CHECK_MSG(ok_, "cannot read sections of a failed checkpoint");
  MALEC_CHECK_MSG(!section_open_,
                  "previous checkpoint section was not closed");
  for (const Section& s : sections_) {
    if (s.name != name) continue;
    cur_ = binio::ByteReader(payload_.data() + s.offset, s.size);
    section_open_ = true;
    return;
  }
  const std::string msg = kind_ + " '" + path_ + "' has no section '" +
                          name + "' — it was written by an incompatible or "
                          "differently-configured run";
  MALEC_CHECK_MSG(false, msg.c_str());
}

void StateReader::endSection() {
  MALEC_CHECK_MSG(section_open_, "no checkpoint section is open");
  if (cur_.remaining() != 0) {
    const std::string msg =
        kind_ + " '" + path_ + "': " + std::to_string(cur_.remaining()) +
        " unconsumed bytes at section end — save/load order mismatch";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  section_open_ = false;
}

std::size_t StateReader::remaining() const {
  MALEC_CHECK_MSG(section_open_, "no checkpoint section is open");
  return cur_.remaining();
}

void StateReader::check() const {
  MALEC_CHECK_MSG(section_open_, "read outside a checkpoint section");
  if (!cur_.ok()) {
    const std::string msg = kind_ + " '" + path_ +
                            "': read past a section end — save/load order "
                            "mismatch";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
}

std::uint8_t StateReader::u8() {
  const std::uint8_t v = cur_.u8();
  check();
  return v;
}

std::uint32_t StateReader::u32() {
  const std::uint32_t v = cur_.u32();
  check();
  return v;
}

std::uint64_t StateReader::u64() {
  const std::uint64_t v = cur_.u64();
  check();
  return v;
}

double StateReader::f64() {
  const double v = cur_.f64();
  check();
  return v;
}

std::string StateReader::str() {
  std::string s = cur_.str(cur_.u64());
  check();
  return s;
}

void StateReader::bytes(std::uint8_t* p, std::size_t n) {
  cur_.bytes(p, n);
  check();
}

}  // namespace malec::ckpt
