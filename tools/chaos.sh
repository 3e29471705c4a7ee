#!/usr/bin/env bash
# Chaos quickstart: run the scripted fault scenario against a fleet of
# wedgeblockd processes built in $BUILD_DIR (default: build/).
#
#   tools/chaos.sh                 # default: 3 procs, seed 0xC4A05
#   tools/chaos.sh --seed 42       # another deterministic schedule
#   tools/chaos.sh --procs 5 --tenants 12 --json-out chaos.json
#
# Exits non-zero if any client-acked entry is lost or fails two-level
# verification after recovery. See DESIGN.md "Sharded failure model &
# recovery" for what the run proves.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

for bin in "$BUILD_DIR/tools/chaos" "$BUILD_DIR/tools/wedgeblockd"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target chaos wedgeblockd)" >&2
    exit 2
  fi
done

exec "$BUILD_DIR/tools/chaos" --binary "$BUILD_DIR/tools/wedgeblockd" "$@"
