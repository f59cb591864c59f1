#!/usr/bin/env bash
# Prints each crate's non-test line count: for every `src/*.rs` of a
# crate, the lines above its first `#[cfg(test)]` (the whole file when
# it has none). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    total=0
    for f in "$dir"src/*.rs; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        total=$((total + n))
    done
    printf '%-14s %6d\n' "$name" "$total"
done
