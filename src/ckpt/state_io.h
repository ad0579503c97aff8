// Checkpoint state I/O: the `.mckpt` v1 container every component
// serializes itself into.
//
// A checkpoint is a full-state snapshot of one running simulation — core,
// interface, caches, TLBs, way tables, energy counters, RNGs and the trace
// position — taken at an instruction boundary so a restored run continues
// bit-identically to the run that never stopped. The byte-level format
// (header, section table, FNV-1a checksum, compatibility rules) is
// specified in docs/FILE_FORMATS.md; like `.mtrace` and `.mplan` it is
// strict: magic, version, size-vs-header and checksum mismatches are hard
// errors at open, never a silently partial restore.
//
// The container is a flat sequence of named sections. StateWriter holds
// only the open section in memory (beginSection/endSection around each
// component's saveState): endSection folds the section into the payload
// checksum and appends it to an unlinked spool file (std::tmpfile(), in the
// C library's temp directory, /tmp with glibc), so a writer's memory is
// bounded by its largest section, not by the payload. writeTo() writes the
// header and copies the spool into the file atomically (temp + rename).
// StateReader validates the whole file at construction and then serves
// sections by name; reading past a section's end or leaving a section
// half-consumed aborts — a save/load order mismatch must fail loudly at
// the exact field, not desynchronise every field after it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"

namespace malec::ckpt {

/// Magic bytes + version identifying a MALEC checkpoint file ("MCKP").
inline constexpr std::uint32_t kCkptMagic = 0x4D434B50;
inline constexpr std::uint32_t kCkptVersion = 1;

class StateWriter {
 public:
  /// The container is shared by every StateIO-style MALEC format; `magic`
  /// and `version` select which one this writer produces (default:
  /// `.mckpt`). Other formats — e.g. the `.mstore` result store — pass
  /// their own magic so their files never masquerade as checkpoints.
  explicit StateWriter(std::uint32_t magic = kCkptMagic,
                       std::uint32_t version = kCkptVersion)
      : magic_(magic), version_(version) {}

  /// Open a named section. Sections must not nest and names must be
  /// unique within one checkpoint.
  void beginSection(const std::string& name);
  void endSection();

  // --- primitive appends (little-endian, fixed width) -----------------------
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern — bit-exact restore.
  void f64(double v);
  void str(const std::string& s);
  void bytes(const std::uint8_t* p, std::size_t n);

  /// Finalize and write the checkpoint to `path` via a temp file + rename,
  /// so a concurrently restoring reader never sees a half-written file.
  /// Returns false with a message in `err` on I/O failure, including any
  /// earlier failure to spool a section.
  [[nodiscard]] bool writeTo(const std::string& path, std::string& err) const;

  [[nodiscard]] std::size_t sectionCount() const { return sections_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  binio::ByteWriter& body();  ///< section_, asserting a section is open
  /// Fold a closed section into the checksum and append it to the spool.
  void spool(const std::uint8_t* p, std::size_t n);
  /// Copy the spooled payload to `out`; an empty string on success, else
  /// the failure (`short_write` when writing `out` failed).
  [[nodiscard]] std::string copySpoolTo(std::FILE* out,
                                        const std::string& short_write) const;

  std::uint32_t magic_;
  std::uint32_t version_;
  /// The open section: inline header, then body. Cleared (capacity kept)
  /// once it is spooled.
  binio::ByteWriter section_;
  /// Every closed section, in order; created at the first endSection.
  std::unique_ptr<std::FILE, FileCloser> spool_;
  std::uint64_t payload_bytes_ = 0;            ///< bytes spooled so far
  std::uint64_t checksum_ = binio::kFnvOffset;  ///< FNV-1a over those bytes
  std::string spool_error_;  ///< the first spool failure; sticky
  std::vector<std::string> names_;  ///< for the uniqueness check
  std::size_t sections_ = 0;
  /// Offset of the open section's body-length field within section_;
  /// npos-like sentinel when no section is open.
  std::size_t open_len_at_ = kNone;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

class StateReader {
 public:
  /// Opens and fully validates `path`: magic, version, file size against
  /// the header's payload length, payload checksum, section-table sanity.
  /// Failures are reported via ok()/error() — callers decide whether a bad
  /// checkpoint aborts (the run layer) or is merely absent (cache probes).
  /// `magic`/`version` select the expected StateIO format (default
  /// `.mckpt`); `kind` is the noun error messages use for it.
  explicit StateReader(const std::string& path,
                       std::uint32_t magic = kCkptMagic,
                       std::uint32_t version = kCkptVersion,
                       const char* kind = "checkpoint");

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] bool hasSection(const std::string& name) const;
  /// Position the cursor at the start of section `name`; aborts when the
  /// section is absent (a checkpoint missing a component IS corruption).
  void openSection(const std::string& name);
  /// Assert the open section was consumed exactly; aborts otherwise.
  void endSection();

  /// Bytes left in the open section — the bound a decoded element count
  /// must respect before anything is sized by it.
  [[nodiscard]] std::size_t remaining() const;

  // --- primitive reads (abort past the open section's end) ------------------
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  void bytes(std::uint8_t* p, std::size_t n);

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  ///< body start within payload_
    std::size_t size = 0;
  };

  /// Abort unless a section is open and no read overran it.
  void check() const;

  bool ok_ = false;
  std::string error_;
  std::string path_;
  std::string kind_;
  std::vector<std::uint8_t> payload_;
  std::vector<Section> sections_;
  binio::ByteReader cur_;  ///< the open section's bytes
  bool section_open_ = false;
};

}  // namespace malec::ckpt
