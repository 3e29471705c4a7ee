#!/usr/bin/env bash
# Observability smoke: proves the fleet-wide observability plane end to
# end against REAL processes, with nothing mocked:
#
#   1. Spawns a 2-daemon wedgeblockd fleet (forest mode, admin endpoints
#      on ephemeral ports) and scrapes the LISTENING/ADMIN port lines.
#   2. Drives a short fleet-mode loadgen run with every append traced
#      (--trace-every 1) and a client-side telemetry dump.
#   3. Curls /metrics (Prometheus text must contain real samples),
#      /metrics.json, and /healthz (must be ready) on both daemons.
#   4. Runs fleetmon one round across both admin endpoints and checks the
#      merged fleet-wide entries_ingested equals what loadgen acked —
#      i.e. cross-process counter merging is lossless.
#   5. SIGTERMs the daemons (flushing their telemetry dumps), stitches
#      client + both daemon dumps with trace_summary.py --traces, and
#      requires at least one trace whose timeline spans BOTH processes:
#      client_enqueue/router_pick from the loadgen dump joined with
#      rpc_recv/ingest from a daemon dump under one trace id.
#
# Usage: BUILD_DIR=build tools/obs_smoke.sh [--keep]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
KEEP=${1:-}

for bin in "$BUILD_DIR/tools/wedgeblockd" "$BUILD_DIR/tools/fleetmon" \
           "$BUILD_DIR/bench/loadgen"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

if [[ "${WEDGE_SKIP_SOCKET_TESTS:-0}" == "1" ]]; then
  echo "obs_smoke: SKIPPED (WEDGE_SKIP_SOCKET_TESTS=1)"
  exit 0
fi

work="$(mktemp -d /tmp/wedge-obs-smoke-XXXXXX)"
declare -a daemon_pids=()
cleanup() {
  for pid in "${daemon_pids[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  if [[ "$KEEP" != "--keep" ]]; then rm -rf "$work"; fi
}
trap cleanup EXIT

# --- 1. Spawn the 2-daemon fleet.
declare -a ports=() admin_ports=()
for i in 0 1; do
  "$BUILD_DIR/tools/wedgeblockd" --port 0 --admin-port 0 --shards 1 --forest \
      --batch 16 --mine-ms 5 --no-verify-sigs \
      --telemetry-out "$work/daemon$i.jsonl" \
      >"$work/daemon$i.out" 2>"$work/daemon$i.err" &
  daemon_pids+=($!)
done
for i in 0 1; do
  for _ in $(seq 1 100); do
    port=$(awk '/^LISTENING /{print $2}' "$work/daemon$i.out" 2>/dev/null || true)
    admin=$(awk '/^ADMIN /{print $2}' "$work/daemon$i.out" 2>/dev/null || true)
    [[ -n "$port" && -n "$admin" ]] && break
    sleep 0.1
  done
  if [[ -z "${port:-}" || -z "${admin:-}" ]]; then
    echo "obs_smoke: daemon $i never printed LISTENING/ADMIN" >&2
    cat "$work/daemon$i.err" >&2 || true
    exit 1
  fi
  ports+=("$port"); admin_ports+=("$admin")
done
echo "obs_smoke: fleet up — rpc ${ports[*]}, admin ${admin_ports[*]}"

# --- 2. Traced fleet-mode load.
"$BUILD_DIR/bench/loadgen" \
    --fleet "127.0.0.1:${ports[0]},127.0.0.1:${ports[1]}" \
    --mode closed --duration-s 2 --threads 2 --connections 1 \
    --batch 8 --value-bytes 64 --tenants 4 --trace-every 1 --seed 7 \
    --telemetry-out "$work/client.jsonl" | tee "$work/loadgen.json"
acked_entries=$(python3 -c '
import json,sys
rows = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]
assert rows, "no JSONL row in loadgen output"
row = rows[-1]
if row.get("errors", 1) != 0:
    sys.exit("loadgen reported errors: %s" % row)
print(row["append_rpcs"] * row["batch_size"])' "$work/loadgen.json")
echo "obs_smoke: loadgen acked $acked_entries entries"

# --- 3. Admin endpoints serve all three formats on both daemons.
probe() { # host:port path
  python3 - "$1" "$2" <<'EOF'
import sys, urllib.request
url = "http://127.0.0.1:%s%s" % (sys.argv[1], sys.argv[2])
with urllib.request.urlopen(url, timeout=5) as r:
    sys.stdout.write(r.read().decode())
EOF
}
for admin in "${admin_ports[@]}"; do
  prom=$(probe "$admin" /metrics)
  grep -q '^wedge_rpc_requests [1-9]' <<<"$prom" \
    || { echo "obs_smoke: /metrics on $admin missing live samples" >&2; exit 1; }
  grep -q '^# TYPE wedge_rpc_op_us histogram' <<<"$prom" \
    || { echo "obs_smoke: /metrics on $admin missing histogram TYPE" >&2; exit 1; }
  probe "$admin" /metrics.json | grep -q '"kind": "counter"' \
    || { echo "obs_smoke: /metrics.json on $admin malformed" >&2; exit 1; }
  probe "$admin" /healthz | grep -q '"ready": true' \
    || { echo "obs_smoke: /healthz on $admin not ready" >&2; exit 1; }
done
echo "obs_smoke: admin endpoints OK on both daemons"

# --- 4. fleetmon merge equals loadgen ground truth.
"$BUILD_DIR/tools/fleetmon" \
    --targets "127.0.0.1:${admin_ports[0]},127.0.0.1:${admin_ports[1]}" \
    --rounds 1 --out "$work/fleetmon.jsonl"
python3 - "$work/fleetmon.jsonl" "$acked_entries" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
merged = [r for r in rows if r.get("kind") == "fleetmon"]
assert merged, "no fleetmon merged row"
row = merged[-1]
assert row["up"] == 2, "expected both targets up: %s" % row
want = int(sys.argv[2])
got = row["entries_ingested"]
assert got == want, "merged entries_ingested %d != loadgen acked %d" % (got, want)
assert row["requests"] > 0 and row["append_p99_us"] >= row["append_p50_us"]
print("obs_smoke: fleetmon merged %d entries across 2 shards (skew %.3f)"
      % (got, row["skew_entries_ingested"]))
EOF

# --- 5. Cross-process trace stitching.
for pid in "${daemon_pids[@]}"; do kill -TERM "$pid"; done
for pid in "${daemon_pids[@]}"; do wait "$pid" || true; done
daemon_pids=()
python3 tools/trace_summary.py --traces \
    "$work/client.jsonl" "$work/daemon0.jsonl" "$work/daemon1.jsonl" \
    >"$work/traces.txt"
python3 - "$work/traces.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"traces: (\d+)", text)
assert m and int(m.group(1)) >= 1, "no stitched traces"
# At least one trace must span two processes and show the full path.
blocks = text.split("\ntrace ")[1:]
ok = 0
for b in blocks:
    if "2 process(es)" not in b:
        continue
    path = next((l for l in b.splitlines() if l.strip().startswith("path:")), "")
    if all(s in path for s in ("client_enqueue", "router_pick", "rpc_recv",
                               "ingest", "client_acked")):
        ok += 1
assert ok >= 1, "no trace stitched client+daemon spans:\n" + text[:2000]
print("obs_smoke: %d cross-process trace(s) stitched end to end" % ok)
EOF

echo "obs_smoke: OK"
