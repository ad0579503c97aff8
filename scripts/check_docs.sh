#!/usr/bin/env bash
# Doc-consistency gate (run by CI, and locally before landing a spec):
#
#   scripts/check_docs.sh [path/to/malec_bench]
#
# 1. Every experiment spec registered in `malec_bench --list` must have a
#    row in docs/PAPER_MAPPING.md — a new spec without its paper mapping
#    fails the build.
# 2. Every spec named in a PAPER_MAPPING.md table row must still be
#    registered — a removed/renamed spec leaves a stale row that fails too.
# 3. Every MALEC_* environment variable the program reads (getenv or the
#    envU64/envOr helpers, in src/, bench/ and examples/) must have a row in
#    README.md's environment table, and every row there must still be read
#    — a new knob cannot go undocumented, a retired one cannot linger.
#
# Exits non-zero with one line per violation.
set -euo pipefail

cd "$(dirname "$0")/.."
bench="${1:-build/malec_bench}"
mapping="docs/PAPER_MAPPING.md"
readme="README.md"

if [[ ! -x "$bench" ]]; then
  echo "check_docs: '$bench' is not an executable malec_bench" >&2
  exit 2
fi
if [[ ! -f "$mapping" ]]; then
  echo "check_docs: $mapping is missing" >&2
  exit 2
fi

# `--list` prints one "  <name>  <title>" line per spec between the header
# and the trailing registry summary.
registered=$("$bench" --list | awk '/^  [a-z]/{print $1}')
if [[ -z "$registered" ]]; then
  echo "check_docs: could not parse any spec from '$bench --list'" >&2
  exit 2
fi

# Table rows look like "| `name` | ..." — first backticked cell is the spec.
documented=$(sed -n 's/^| `\([a-z0-9_]*\)`.*/\1/p' "$mapping")

fail=0
for spec in $registered; do
  if ! grep -qx "$spec" <<< "$documented"; then
    echo "check_docs: spec '$spec' is registered but has no row in $mapping"
    fail=1
  fi
done
for spec in $documented; do
  if ! grep -qx "$spec" <<< "$registered"; then
    echo "check_docs: $mapping documents '$spec' which is not registered"
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED — docs/PAPER_MAPPING.md is out of sync with the spec registry" >&2
  exit 1
fi

# Env table rows look like "| `MALEC_NAME` | ...".
read_vars=$(grep -rhoE '(getenv|envU64|envOr)\("MALEC_[A-Z0-9_]+"' \
              src bench examples | sed -E 's/.*"(MALEC_[A-Z0-9_]+)"/\1/' |
              sort -u)
table_vars=$(sed -n 's/^| `\(MALEC_[A-Z0-9_]*\)`.*/\1/p' "$readme" | sort -u)
for var in $read_vars; do
  if ! grep -qx "$var" <<< "$table_vars"; then
    echo "check_docs: $var is read by the program but has no row in $readme's environment table"
    fail=1
  fi
done
for var in $table_vars; do
  if ! grep -qx "$var" <<< "$read_vars"; then
    echo "check_docs: $readme documents $var which nothing reads"
    fail=1
  fi
done
if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED — $readme's environment table is out of sync with the program" >&2
  exit 1
fi

count=$(wc -w <<< "$registered")
vars=$(wc -w <<< "$read_vars")
echo "check_docs: OK — $count specs all mapped in $mapping, $vars env vars all in $readme"
