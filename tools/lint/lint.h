// malec_lint — static contract checker for the MALEC determinism stack.
//
// The repo's evaluation rests on invariants (bit-identical sweeps,
// checkpoint->restore->continue identity, EventId-only hot paths) that used
// to be enforced only by runtime tests and one-shot manual audits. This
// tool parses `src/` headers/sources lexically (comment/string-aware, brace
// matched — not a full C++ frontend) and enforces the written contracts as
// machine-checked rules:
//
//   checkpoint-state  (R1) every data member of a class declaring
//                     saveState/loadState must be referenced in BOTH
//                     bodies, or carry `// lint:no-state(<reason>)` on its
//                     declaration line or the line above.
//   eventid           (R2) no string-keyed `count("...")`-style energy
//                     APIs or allocation-prone string machinery
//                     (to_string, stringstream, string-keyed maps) in the
//                     per-cycle directories (src/core, src/cpu, src/lsq,
//                     src/tlb, src/mem).
//   determinism       (R3a) rand()/srand()/std::random_device/time()/
//                     `*_clock::now()` are banned outside the allowlist —
//                     simulated state must be a pure function of the seed.
//                     Also scanned over tools/ and bench/ (fixtures
//                     excluded), where a stray wall-clock call corrupts
//                     reproducibility just the same.
//   udc-order         (R3b) iterating an unordered_map/unordered_set (or
//                     taking begin()/end() on one) in a file that also
//                     writes serialized bytes (StateIO, ResultSink) is
//                     flagged — hash/pointer order must never reach
//                     checkpoint or report output. Sort first, then waive
//                     with `// lint:allow(udc-order: <reason>)`.
//   strict-parse      (R4) raw atoi/stoi/strtol/sscanf-family parsing is
//                     banned outside sim::parseU64Strict's home — sloppy
//                     numeric parsing silently misreads budgets and seeds.
//                     Also scanned over tools/ and bench/.
//   ckpt-symmetry     (R5) for every stateful class, the ordered sequence
//                     of StateWriter primitive calls in saveState must
//                     mirror the ordered StateReader calls in loadState —
//                     same count, same widths, nested saveState/loadState
//                     and writer/reader-taking helpers pairing up
//                     position by position. A divergent pair is the exact
//                     bug class the runtime bit-identity matrix catches
//                     only when a workload happens to exercise the
//                     asymmetric field. Loop/branch shapes the lexical
//                     pass cannot pair are waived per method with
//                     `// lint:allow(ckpt-symmetry: <reason>)` on (or
//                     above) the class or either method definition.
//   layering          (R6) the docs/ARCHITECTURE.md layer DAG, as an
//                     allowed-edges table: an `#include "<comp>/..."`
//                     from src/<a> into src/<b> is legal only when b is
//                     in a's allowed dependency set. Up-stack includes
//                     (src/core -> src/sim, src/ckpt -> src/sweep) fail.
//   hot-alloc         (R7) allocation machinery (new, malloc/calloc/
//                     realloc, make_unique/make_shared, push_back/
//                     emplace_back, resize) is banned in the per-cycle
//                     directories outside constructor, destructor and
//                     saveState/loadState bodies — the run loop must not
//                     allocate. Steady-state appends into retained
//                     capacity are waived per site with
//                     `// lint:allow(hot-alloc: <reason>)`.
//
// Beyond findings, the analyzer extracts a serialization *schema* per
// stateful class — the ordered (primitive width -> expression) field list
// of its saveState body. `--emit-schema <dir>` writes one deterministic
// text file per class; goldens committed under tools/lint/schemas/ pin
// the `.mckpt` byte layout, and scripts/check_lint.sh regenerates and
// diffs both ways so a silent layout change becomes an explicit, reviewed
// schema regeneration.
//
// Waivers: `// lint:no-state(<reason>)` (R1 only) and
// `// lint:allow(<rule>: <reason>)` (all rules), both requiring a
// non-empty reason, on the flagged line or the line immediately above.
// File-scope exemptions live in an allowlist file of
// `<rule> <path-suffix> <reason...>` lines; suffixes match at path
// component boundaries only (`core/foo.h` never matches
// `src/othercore/foo.h`). An entry whose suffix matches no scanned file
// is itself a finding (`allowlist`): a retired file's exemption cannot
// linger to silently cover whatever file next takes its name.
//
// Everything is deterministic: files are scanned in sorted order, findings
// are emitted in (file, line, rule) order, schemas in class-name order.
#pragma once

#include <string>
#include <vector>

namespace malec::lint {

struct Finding {
  std::string file;  ///< path relative to the scan root, '/'-separated
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string rule;
  /// Matches when the relative path ends with it at a '/' boundary
  /// (or equals it exactly).
  std::string path_suffix;
  std::string reason;  ///< must be non-empty
  /// Where the entry was read (allowlist path, 1-based line) — the
  /// location of the finding when the suffix matches no scanned file.
  std::string file = {};
  int line = 0;
};

struct Options {
  /// Repo root; `<root>/src` is scanned (see `scan_dirs`).
  std::string root;
  /// Directories under `root` subject to every rule (default: {"src"}).
  std::vector<std::string> scan_dirs = {"src"};
  /// Directories scanned for the determinism and strict-parse families
  /// only (tool/bench code never serializes simulated state but must stay
  /// reproducible). Paths containing a "fixtures" component are skipped —
  /// the lint fixtures seed deliberate violations.
  std::vector<std::string> restricted_scan_dirs = {"tools", "bench"};
  /// Directories (relative to root) subject to the eventid and hot-alloc
  /// rules.
  std::vector<std::string> per_cycle_dirs = {"src/core", "src/cpu",
                                             "src/lsq", "src/tlb",
                                             "src/mem"};
  /// Rule families to run (empty = all). Unknown names are rejected by
  /// ruleFamilies() lookup in the driver.
  std::vector<std::string> rule_filter;
  std::vector<AllowEntry> allow;
};

/// One stateful class's ordered serialization schema, rendered as one
/// line per saveState operation:
///   u8|u32|u64|f64|str|bytes <argument expression>   (primitive append)
///   sub  <owner expression>                          (nested saveState)
///   call <helper call text>                          (writer-taking helper)
struct ClassSchema {
  std::string class_name;
  std::string file;  ///< file holding the saveState body
  std::vector<std::string> lines;
};

struct Report {
  std::vector<Finding> findings;
  /// Concrete classes declaring both saveState and loadState, sorted —
  /// the stateful inventory the checkpoint-matrix drift check consumes.
  std::vector<std::string> stateful_classes;
  /// One schema per stateful class with a located saveState body, sorted
  /// by (class_name, file).
  std::vector<ClassSchema> schemas;
};

/// The valid `--rule` family names, sorted.
const std::vector<std::string>& ruleFamilies();

/// Parse an allowlist file. Returns entries; appends human-readable
/// problems (malformed line, missing reason) to `errors`.
std::vector<AllowEntry> parseAllowlistFile(const std::string& path,
                                           std::vector<std::string>& errors);

/// Run every (filtered) rule over the scan dirs and return the report.
Report runLint(const Options& opt);

/// One "path:line: [rule] message" line per finding.
std::string formatFindings(const Report& report);

/// Render one schema as the deterministic text `--emit-schema` writes.
std::string formatSchema(const ClassSchema& schema);

}  // namespace malec::lint
