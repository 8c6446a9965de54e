#!/usr/bin/env bash
# Full local verification: everything CI (or the next contributor) expects
# to pass, in the order that fails fastest.
#
#   scripts/verify.sh
#
# Runs entirely offline against the workspace at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== perfbench build (the benchmark harness, its own workspace) =="
# perfbench/ drives the simulator through System::{new, step,
# step_profiled, run_with} and checkpoint::{encode_snapshot,
# restore_system}; a change to that seam must fail here, not first in the
# benchmark run.
CARGO_TARGET_DIR=target/perfbench \
    cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== cargo test -q =="
cargo test -q --workspace

echo "== arbiter equivalence smoke (word-parallel vs slice oracles, release) =="
# The router's u64 word-scan arbiters (DESIGN.md §16) must stay
# position-identical to the retained slice-based oracle implementations;
# the property suite drives both through randomized grant histories.
cargo test -q --release -p router --test arbiter_props

echo "== perf smoke (reduced grid vs committed BENCH baseline) =="
if [ "${ERAPID_SKIP_PERF_SMOKE:-0}" = "1" ]; then
    echo "perf smoke: skipped (ERAPID_SKIP_PERF_SMOKE=1)"
else
    # Fails when the measured rate drops >20% below the best committed
    # BENCH_<sha>.json baseline (noisy shared runners: set
    # ERAPID_SKIP_PERF_SMOKE=1 instead of raising the tolerance).
    cargo run --release -q -p erapid-bench --bin perfreport -- --smoke
fi

echo "== scenarios smoke (workload generators: seq == fanned) =="
# One small P-B point per scenario, run alone and through the run-level
# pool; the bin exits nonzero when delivery is zero or the two diverge.
cargo run --release -q -p erapid-bench --bin scenarios -- --smoke

echo "== autotune smoke (sweep: seq == fanned, chosen beats paper baseline) =="
if [ "${ERAPID_SKIP_TUNE_SMOKE:-0}" = "1" ]; then
    echo "autotune smoke: skipped (ERAPID_SKIP_TUNE_SMOKE=1)"
else
    # The smoke grid on two hostile scenarios (small P-B system): every
    # operating point and the controller-enabled leg must be byte-identical
    # sequential vs run-level-fanned, and the chosen point must beat the
    # paper-constant baseline objective on >=1 scenario (DESIGN.md §15).
    cargo run --release -q -p erapid-bench --bin autotune -- --smoke
fi

echo "== resilience smoke (quick fault-scenario matrix) =="
ERAPID_QUICK=1 cargo run --release -q -p erapid-bench --bin resilience > /dev/null
rm -f RESILIENCE_*.json

echo "== tracereport smoke (quick traced run, JSONL + Perfetto outputs) =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
ERAPID_QUICK=1 ERAPID_TRACE="$trace_dir/trace.jsonl" \
    cargo run --release -q -p erapid-bench --bin tracereport > /dev/null
test -s "$trace_dir/trace.jsonl" || { echo "tracereport smoke: empty trace"; exit 1; }
test -s "$trace_dir/trace.trace.json" || { echo "tracereport smoke: missing chrome trace"; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$trace_dir/trace.jsonl" "$trace_dir/trace.trace.json" <<'PY'
import json, sys
lines = 0
with open(sys.argv[1]) as f:
    for line in f:
        json.loads(line)
        lines += 1
assert lines > 0, "no JSONL lines"
with open(sys.argv[2]) as f:
    doc = json.load(f)
assert doc["traceEvents"], "empty chrome trace"
print(f"tracereport smoke: {lines} JSONL lines, {len(doc['traceEvents'])} chrome events")
PY
else
    # No python3: cheap structural check — every line is a JSON object.
    bad=$(grep -cv '^{.*}$' "$trace_dir/trace.jsonl" || true)
    [ "$bad" = "0" ] || { echo "tracereport smoke: $bad malformed JSONL lines"; exit 1; }
    echo "tracereport smoke: $(wc -l < "$trace_dir/trace.jsonl") JSONL lines (structural check only)"
fi

# Dropped-events gate: the bin exits nonzero itself when any point drops
# trace events; belt-and-braces, also check the JSONL point headers.
if grep -o '"dropped":[0-9]*' "$trace_dir/trace.jsonl" | grep -qv ':0$'; then
    echo "tracereport smoke: trace events were dropped"; exit 1
fi

echo "== replay smoke (record -> persist -> replay conformance) =="
replay_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$replay_dir"' EXIT
ERAPID_QUICK=1 ERAPID_RESULTS="$replay_dir" \
    cargo run --release -q -p erapid-bench --bin replay > /dev/null
report=$(ls "$replay_dir"/REPLAY_*.json 2> /dev/null | head -1)
test -n "$report" && test -s "$report" || { echo "replay smoke: missing REPLAY_<sha>.json"; exit 1; }
# The bin itself asserts self-replay byte-identity, seq==par reports and
# an empty baseline self-diff; here we just confirm the artifacts landed.
test -s "$replay_dir"/workload_*.ertr || { echo "replay smoke: missing workload .ertr"; exit 1; }
echo "replay smoke: $(basename "$report") written"

echo "== marathon smoke (streamed run, forced mid-run kill, checkpoint resume) =="
marathon_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$replay_dir" "$marathon_dir"' EXIT
# The bin aborts itself mid-run (SIGABRT), resumes from the newest
# checkpoint, and asserts zero byte divergence from the uninterrupted run
# plus a peak-RSS ceiling — a nonzero exit here means the crash-safety
# contract broke.
ERAPID_QUICK=1 ERAPID_RESULTS="$marathon_dir" \
    cargo run --release -q -p erapid-bench --bin marathon > /dev/null
mreport=$(ls "$marathon_dir"/MARATHON_*.json 2> /dev/null | head -1)
test -n "$mreport" && test -s "$mreport" || { echo "marathon smoke: missing MARATHON_<sha>.json"; exit 1; }
grep -q '"resume_divergence": 0' "$mreport" || { echo "marathon smoke: nonzero resume divergence"; exit 1; }
echo "marathon smoke: $(basename "$mreport") written, zero resume divergence"

echo "verify: all checks passed"
