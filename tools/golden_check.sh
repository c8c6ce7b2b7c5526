#!/usr/bin/env bash
# Byte-diff a rlftnoc_run invocation against a committed golden, across the
# --sim-threads {1,2,4,8} sweep. Each golden under tests/goldens/ was
# captured before the change it guards (tests/CMakeLists.txt names which),
# so a pass proves two things at once: the RNG draw sequence is untouched
# by that change, and results stay bit-identical for every thread count.
#
# Usage: golden_check.sh <rlftnoc_run> <golden.txt> <config> [extra args...]
set -u
if [ "$#" -lt 3 ]; then
  echo "usage: $0 <rlftnoc_run> <golden.txt> <config> [extra args...]" >&2
  exit 2
fi
bin="$1"; golden="$2"; config="$3"; shift 3
[ -x "$bin" ] || { echo "golden_check: no binary at $bin" >&2; exit 2; }
[ -f "$golden" ] || { echo "golden_check: no golden at $golden" >&2; exit 2; }

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
status=0
for t in 1 2 4 8; do
  if ! "$bin" "$config" --sim-threads "$t" "$@" > "$tmp" 2>/dev/null; then
    echo "golden_check: run failed (config=$config sim-threads=$t)" >&2
    status=1
    continue
  fi
  if ! cmp -s "$golden" "$tmp"; then
    echo "golden_check: BYTE DIFF vs $golden at sim-threads=$t" >&2
    diff -u "$golden" "$tmp" | head -40 >&2
    status=1
  fi
done
exit "$status"
