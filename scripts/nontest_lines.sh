#!/usr/bin/env bash
# Prints the number of non-test Rust lines under crates/: the line count
# that simplicity changes report before and after.
#
# Method: every line of every `*.rs` file under crates/ counts (code,
# comments and blank lines alike), except
# - files under any `tests/` directory, and
# - `#[cfg(test)]` items: the attribute line and the item it gates,
#   up to the brace that closes the item's first `{`, or up to a `;`
#   that ends the item before any brace opens (`#[cfg(test)] use …;`).
# Braces are counted as written, so a brace inside a string or char
# literal within a test item can shift where that item ends.
#
# Usage: scripts/nontest_lines.sh [ROOT]   (ROOT defaults to the repo)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"

find "$root/crates" -name '*.rs' -not -path '*/tests/*' -print0 |
  sort -z |
  xargs -0 awk '
    FNR == 1 { skipping = 0 }
    !skipping && /^[[:space:]]*#\[cfg\(test\)\]/ {
      skipping = 1; depth = 0; opened = 0; next
    }
    skipping {
      line = $0
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      if (!opened && opens == 0 && line ~ /;[[:space:]]*$/) { skipping = 0; next }
      if (opens > 0) opened = 1
      depth += opens - closes
      if (opened && depth <= 0) skipping = 0
      next
    }
    { count++ }
    END { print count + 0 }
  ' |
  awk '{ total += $1 } END { print total }'
