#!/usr/bin/env bash
# Tier-1 verification under sanitizers: builds the repo and runs ctest
# with AddressSanitizer and UndefinedBehaviorSanitizer instrumentation
# (see the WEDGE_SANITIZE option in the top-level CMakeLists.txt),
# re-runs the crypto/Merkle suites with hardware crypto disabled (the
# scalar SHA-256 backend must stay byte-identical), and finishes with the
# hot-path performance smoke test (tools/perf_smoke.sh).
#
# Usage: tools/check.sh [sanitizer ...]
#   Default sanitizers: address undefined. "thread" is also accepted.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  build_dir="$repo_root/build-$san"
  echo "==> [$san] configuring $build_dir"
  cmake -B "$build_dir" -S "$repo_root" -DWEDGE_SANITIZE="$san" >/dev/null
  echo "==> [$san] building"
  cmake --build "$build_dir" -j "$(nproc)" >/dev/null
  echo "==> [$san] running tier-1 tests"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  echo "==> [$san] OK"
done

# The heavily multi-threaded subsystems get a dedicated ThreadSanitizer
# pass even in the default run: the telemetry registry and tracer (sharded
# histograms, concurrent Append workers), the TCP RPC stack (epoll
# workers, pipelined callers sharing a read role, wire_test/rpc_test), and the
# sharded multi-tenant engine (admission controller + epoch aggregator
# hit from concurrent RPC workers, shard_test/shard_rpc_test), and the
# segmented store's leader-based group commit (concurrent
# AppendPrepare/WaitDurable cohorts, segstore_test). A full-suite TSan
# run can still be requested explicitly with `tools/check.sh thread`.
if [[ ! " ${sanitizers[*]} " =~ " thread " ]]; then
  build_dir="$repo_root/build-thread"
  echo "==> [thread] configuring $build_dir (concurrent-subsystem tests only)"
  cmake -B "$build_dir" -S "$repo_root" -DWEDGE_SANITIZE=thread >/dev/null
  echo "==> [thread] building"
  cmake --build "$build_dir" -j "$(nproc)" >/dev/null
  echo "==> [thread] running concurrent-subsystem tests"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    -R 'telemetry|stage2_submitter|chain_test|integration|wire_test|rpc_test|shard|fault_transport|fleet_router|agg_journal|chaos_test|trace_propagation|admin_http|fleet_merge|core_test|segstore'
  echo "==> [thread] OK"
fi

echo "All sanitizer runs passed: ${sanitizers[*]} thread(concurrent subset)"

# Crypto equivalence under the forced-portable configuration: the same
# tests that pin each backend also run with hardware crypto disabled, so
# the scalar path is exercised even on SHA-NI/AVX2 machines.
scalar_build="$repo_root/build-${sanitizers[0]}"
echo "==> [scalar] re-running crypto/merkle tests with WEDGE_DISABLE_HWCRYPTO=1"
WEDGE_DISABLE_HWCRYPTO=1 ctest --test-dir "$scalar_build" \
  --output-on-failure -R 'crypto_test|merkle_test'
echo "==> [scalar] OK"

# EC equivalence with the precomputed tables forced off: every public
# scalar-multiplication entry point routes to the naive double-and-add
# reference, so secp256k1/ecdsa/equivalence tests prove the slow path
# still produces byte-identical signatures (and core_test exercises the
# signer pool on top of it). This rerun checks the scalar-multiplication
# algorithms only: both backends share one 5x52-bit field, so it cannot
# catch a field bug. The field is checked by crypto_test's FieldOracleTest
# (against u256.cc's generic modular arithmetic), which the sanitizer
# passes above already ran under ASan and UBSan.
echo "==> [ec-reference] re-running EC tests with WEDGE_EC_BACKEND=reference"
WEDGE_EC_BACKEND=reference ctest --test-dir "$scalar_build" \
  --output-on-failure -R 'crypto_test|ec_equiv_test|core_test'
echo "==> [ec-reference] OK"

echo "==> running hot-path perf smoke"
"$repo_root/tools/perf_smoke.sh"

# Chaos smoke: a short scripted kill + partition + recover run against
# real wedgeblockd processes (see tools/chaos.sh). Fails the check if any
# client-acked entry is lost or flunks two-level verification. Reuses the
# first sanitizer build, so the daemons run instrumented.
echo "==> running chaos smoke"
chaos_work="$(mktemp -d /tmp/wedge-chaos-check-XXXXXX)"
BUILD_DIR="$repo_root/build-${sanitizers[0]}" "$repo_root/tools/chaos.sh" \
  --work-dir "$chaos_work" --batches 4 --tenants 4 --audit-timeout-s 90
rm -rf "$chaos_work"
echo "==> chaos smoke OK"

# Observability smoke: 2-process fleet with live admin endpoints — merged
# fleetmon counters must equal the loadgen ground truth and at least one
# trace must stitch client + daemon spans end to end (tools/obs_smoke.sh).
echo "==> running observability smoke"
BUILD_DIR="$repo_root/build-${sanitizers[0]}" "$repo_root/tools/obs_smoke.sh"
echo "==> observability smoke OK"
