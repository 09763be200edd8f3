#!/usr/bin/env bash
# Non-test source lines per workspace crate and in total.
#
# Counts every line (blank and comment lines included, like `wc -l`) of
# the `.rs` files under each crate's `src/` (plus `examples/` for the
# root `polis` package). Integration tests (`tests/`), benches
# (`benches/`) and `#[cfg(test)]` modules are excluded; a test module
# ends at the first `}` line indented like its `#[cfg(test)]` attribute,
# which is how rustfmt lays it out. The separate `perfbench/` workspace
# is not counted.
#
# Usage: scripts/sloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 2>/dev/null | sort -z | xargs -0 -r awk '
    FNR == 1 { skip = 0 }
    skip { if ($0 == close_line) skip = 0; next }
    /^[ \t]*#\[cfg\(test\)\]/ {
      match($0, /^[ \t]*/)
      close_line = substr($0, 1, RLENGTH) "}"
      skip = 1
      next
    }
    { n++ }
    END { print n + 0 }
  '
}

total=0
printf '%-10s %6s\n' crate lines
for dir in crates/*/; do
  name="$(basename "$dir")"
  n="$(count "$dir/src")"
  printf '%-10s %6d\n' "$name" "$n"
  total=$((total + n))
done
n="$(count src examples)"
printf '%-10s %6d\n' polis "$n"
total=$((total + n))
printf '%-10s %6d\n' total "$total"
