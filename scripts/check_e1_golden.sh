#!/bin/sh
# Checks experiment E1 (solo shared-memory accesses per operation, the
# paper's headline counts) against bench/e1_access_counts.golden.
#
#   scripts/check_e1_golden.sh BUILD_DIR            # exit 1 on any change
#   scripts/check_e1_golden.sh BUILD_DIR --update   # rewrite the golden
#
# BUILD_DIR is a default (instrumented) build holding
# bench/bench_access_counts. The compared block is the E1 table: from its
# "== E1:" title line to the first blank line. A change that moves a solo
# count on purpose updates the golden file in the same diff.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 BUILD_DIR [--update]" >&2
  exit 2
fi
Root=$(cd "$(dirname "$0")/.." && pwd)
Golden="$Root/bench/e1_access_counts.golden"
Block=$(mktemp)
trap 'rm -f "$Block"' EXIT

CSOBJ_BENCH_QUICK=1 "$1/bench/bench_access_counts" |
  awk '/^== E1:/ { on = 1 } on && /^$/ { exit } on' > "$Block"
if [ ! -s "$Block" ]; then
  echo "no E1 table in the output of $1/bench/bench_access_counts" >&2
  exit 1
fi

if [ "${2:-}" = "--update" ]; then
  cp "$Block" "$Golden"
  echo "updated $Golden"
  exit 0
fi
if ! diff -u "$Golden" "$Block"; then
  echo "E1 solo access counts differ from bench/e1_access_counts.golden" >&2
  exit 1
fi
echo "OK: E1 table matches bench/e1_access_counts.golden"
