#!/usr/bin/env sh
# The two line counts the ROADMAP "Line budget" tracks:
#
#   all      every Rust line under crates/, examples/ and tests/
#   non-test Rust lines under crates/, outside tests/ dirs, each file cut
#            at its first line that starts with `#[cfg(test)]` (the test
#            module; a mention of the attribute inside a doc comment or a
#            string does not cut)
#
# Usage: sh scripts/lines.sh   (from anywhere)
set -eu
cd "$(dirname "$0")/.."
all=$(find crates examples tests -name '*.rs' -exec cat {} + | wc -l)
non_test=$(find crates -name '*.rs' -not -path '*/tests/*' \
    -exec awk '/^#\[cfg\(test\)\]/ { exit } { print }' {} \; | wc -l)
echo "all $all"
echo "non-test $non_test"
