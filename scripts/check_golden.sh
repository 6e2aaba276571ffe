#!/usr/bin/env bash
# Golden-numbers check: rerun every experiment that has a checked-in record
# `expected/<name>_hd1080.json` (underscores in the file name stand for the
# dashes of the experiment name) on the hd1080 scenario and diff the
# machine-readable records byte-for-byte against the checked-in expected
# values.
#
# The simulator is deterministic and the JSON writer renders floats via
# Rust's shortest-roundtrip formatting, so an exact diff is the right
# check: any drift in a published number, the paper's own Tables I/II,
# Figures 9/12 and kernel counts as much as the extensions'
# makespans, throughputs and tuned configurations, fails loudly. The
# serving event loop and replay templates are pure IEEE arithmetic (no
# libm), and the autotuner's search is deterministic with
# tie-keeps-first, so their records golden just as exactly.
#
# To golden a new experiment, write its record once:
#   ./target/release/reproduce <name> --scenario hd1080 --json expected/<name>_hd1080.json
#
# Usage: scripts/check_golden.sh [--bless]
#   --bless  regenerate the existing expected/*_hd1080.json instead of diffing

set -euo pipefail
cd "$(dirname "$0")/.."

bless=0
if [[ "${1:-}" == "--bless" ]]; then
  bless=1
fi

cargo build --release -q -p bench

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

status=0
for golden in expected/*_hd1080.json; do
  record=$(basename "$golden")
  exp=${record%_hd1080.json}
  exp=${exp//_/-}
  if ! ./target/release/reproduce "$exp" --scenario hd1080 --json "$out_dir/$record" \
    > /dev/null; then
    echo "FAIL: reproduce $exp exited non-zero" >&2
    status=1
    continue
  fi
  if [[ $bless -eq 1 ]]; then
    cp "$out_dir/$record" "expected/$record"
    echo "blessed expected/$record"
  elif diff -u "expected/$record" "$out_dir/$record"; then
    echo "ok: $exp matches expected/$record"
  else
    echo "FAIL: $exp diverged from expected/$record" >&2
    status=1
  fi
done
exit $status
