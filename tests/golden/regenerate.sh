#!/usr/bin/env bash
# Rewrite the golden files from a build of the current tree: run the gate,
# which writes what the build printed to <build>/tests/golden_actual/ whether
# or not it matches, and copy those outputs over tests/golden/. Run it only
# in a change that means to alter results, and say why in CHANGES.md.
#
#   tests/golden/regenerate.sh [build-dir]      (default: build)
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)
cmake --build "$build" --target essns_tests_golden
rm -rf "$build/tests/golden_actual"
"$build/tests/essns_tests_golden" > /dev/null || true
cp "$build/tests/golden_actual/"campaign-*.jsonl \
   "$build/tests/golden_actual/"single-*.txt \
   "$build/tests/golden_actual/serve-transcript.txt" \
   "$build/tests/golden_actual/truth-arrival-times.txt" "$root/tests/golden/"
git -C "$root" status --short tests/golden
