#!/usr/bin/env bash
# Smoke test for distributed sweep execution: build asiccloudd and the
# CLI, run one sweep four ways — in-process (-once), distributed over
# a 3-worker pool (-coordinate / -worker) with an explicit and with the
# default chunk size, and distributed again with a worker killed
# mid-sweep — and check the properties the coordinator
# guarantees: the distributed result is byte-identical to the
# single-process run, its TCO-optimal matches the CLI verbatim, prune
# accounting stays exact across the merge, workers exit cleanly on
# drain, and a killed worker's chunk is recovered via lease requeue.
# Run from the repository root (make check does).
set -euo pipefail

fail() { echo "smoke_distributed: FAIL: $*" >&2; exit 1; }

command -v jq >/dev/null || fail "jq not found on PATH"

workdir=$(mktemp -d)
pids=()
cleanup() {
    local p
    for p in "${pids[@]:-}"; do
        [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null && kill -TERM "$p" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke_distributed: building asiccloudd and asiccloud"
go build -o "$workdir/asiccloudd" ./cmd/asiccloudd
go build -o "$workdir/asiccloud" ./cmd/asiccloud

# The default bitcoin sweep under the carbon objective: the same design
# space `asiccloud design -app bitcoin` explores (the objective changes
# what the caller optimizes for, not what is swept), so the CLI's TCO-
# and carbon-optimal answers are both comparable verbatim — and the
# byte-identity check covers the carbon frontier riding in the chunks.
echo '{"app":"bitcoin","objective":"carbon"}' >"$workdir/req.json"

# wait_for_pool FILE: parse the coordinator's stdout announcement.
wait_for_pool() {
    local file=$1 addr="" i
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^asiccloudd: coordinating on //p' "$file" 2>/dev/null)
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    return 1
}

# Baseline: the single-process run every distributed run must match.
"$workdir/asiccloudd" -once -request "$workdir/req.json" -o "$workdir/once.json" \
    -log-level warn 2>"$workdir/once.err" || { cat "$workdir/once.err" >&2; fail "-once run failed"; }

# Property 1: a 3-worker distributed sweep produces byte-identical
# result JSON, and every worker exits 0 on the clean drained nojob.
"$workdir/asiccloudd" -coordinate -request "$workdir/req.json" -chunk 3 \
    -o "$workdir/dist.json" -log-level warn \
    >"$workdir/coord.out" 2>"$workdir/coord.err" &
coord_pid=$!
pids+=("$coord_pid")
addr=$(wait_for_pool "$workdir/coord.out") || { cat "$workdir/coord.err" >&2; fail "coordinator never announced its pool address"; }
echo "smoke_distributed: pool on $addr"

worker_pids=()
for w in 1 2 3; do
    "$workdir/asiccloudd" -worker -join "$addr" -id "w$w" -log-level warn \
        >"$workdir/w$w.out" 2>"$workdir/w$w.err" &
    worker_pids+=($!)
    pids+=($!)
done
wait "$coord_pid" || { cat "$workdir/coord.err" >&2; fail "coordinator exited non-zero"; }
for i in 0 1 2; do
    wait "${worker_pids[$i]}" || { cat "$workdir/w$((i + 1)).err" >&2; fail "worker w$((i + 1)) exited non-zero"; }
done
cmp -s "$workdir/once.json" "$workdir/dist.json" || {
    diff <(jq -S . "$workdir/once.json") <(jq -S . "$workdir/dist.json") >&2 || true
    fail "distributed result is not byte-identical to the single-process run"
}
echo "smoke_distributed: 3-worker result byte-identical to -once"

# Property 1b: the same with the coordinator's default chunking (no
# -chunk: at most 16 fleet-sized chunks per sweep).
"$workdir/asiccloudd" -coordinate -request "$workdir/req.json" \
    -o "$workdir/dist_default.json" -log-level warn \
    >"$workdir/coordd.out" 2>"$workdir/coordd.err" &
coord_pid=$!
pids+=("$coord_pid")
addr=$(wait_for_pool "$workdir/coordd.out") || { cat "$workdir/coordd.err" >&2; fail "default-chunk coordinator never announced its pool address"; }
worker_pids=()
for w in 1 2 3; do
    "$workdir/asiccloudd" -worker -join "$addr" -id "d$w" -log-level warn \
        >"$workdir/d$w.out" 2>"$workdir/d$w.err" &
    worker_pids+=($!)
    pids+=($!)
done
wait "$coord_pid" || { cat "$workdir/coordd.err" >&2; fail "default-chunk coordinator exited non-zero"; }
for i in 0 1 2; do
    wait "${worker_pids[$i]}" || { cat "$workdir/d$((i + 1)).err" >&2; fail "worker d$((i + 1)) exited non-zero"; }
done
cmp -s "$workdir/once.json" "$workdir/dist_default.json" || {
    diff <(jq -S . "$workdir/once.json") <(jq -S . "$workdir/dist_default.json") >&2 || true
    fail "default-chunk distributed result is not byte-identical to the single-process run"
}
echo "smoke_distributed: 3-worker result with default chunking byte-identical to -once"

# Property 2: the distributed TCO- and carbon-optimal answers match the
# CLI verbatim.
"$workdir/asiccloud" design -app bitcoin >"$workdir/cli.out"
dist_line=$(jq -er .tco_optimal.describe "$workdir/dist.json")
cli_line=$(sed -n 's/^TCO-optimal:[[:space:]]*//p' "$workdir/cli.out")
[[ -n "$cli_line" ]] || fail "CLI printed no TCO-optimal line"
if [[ "$dist_line" != "$cli_line" ]]; then
    printf 'distributed: %s\nCLI:         %s\n' "$dist_line" "$cli_line" >&2
    fail "distributed run and CLI disagree on the TCO-optimal design"
fi
dist_carbon=$(jq -er .carbon_optimal.describe "$workdir/dist.json")
cli_carbon=$(sed -n 's/^carbon-optimal:[[:space:]]*//p' "$workdir/cli.out")
[[ -n "$cli_carbon" ]] || fail "CLI printed no carbon-optimal line"
if [[ "$dist_carbon" != "$cli_carbon" ]]; then
    printf 'distributed: %s\nCLI:         %s\n' "$dist_carbon" "$cli_carbon" >&2
    fail "distributed run and CLI disagree on the carbon-optimal design"
fi
echo "smoke_distributed: TCO- and carbon-optimal match CLI"

# Property 3: prune accounting survives the merge exactly —
# generated == feasible + sum of prune reasons + duplicates.
jq -e '.pruned | .generated == .feasible + ([.reasons // {} | .[]] | add // 0) + .duplicates' \
    "$workdir/dist.json" >/dev/null \
    || fail "merged prune accounting does not balance"
echo "smoke_distributed: prune accounting balances after merge"

# Property 4: killing a worker mid-sweep does not lose its chunks —
# leases expire, the chunks are requeued, and the surviving fleet still
# produces the identical bytes. This phase uses a sweep large enough
# (~1s single-process) that a SIGKILL lands while work is genuinely
# outstanding.
jq -n '{app:"bitcoin", sweep:{
    voltages_v:        [range(240) | 0.40 + 0.0025 * .],
    silicon_per_lane_mm2: [range(2; 102) | 5 * .],
    chips_per_lane:    [range(1; 41)]}}' >"$workdir/req2.json"
"$workdir/asiccloudd" -once -request "$workdir/req2.json" -o "$workdir/once2.json" \
    -log-level warn 2>"$workdir/once2.err" || { cat "$workdir/once2.err" >&2; fail "second -once run failed"; }

"$workdir/asiccloudd" -coordinate -request "$workdir/req2.json" -chunk 50 \
    -lease 500ms -o "$workdir/dist2.json" -log-level warn \
    >"$workdir/coord2.out" 2>"$workdir/coord2.err" &
coord_pid=$!
pids+=("$coord_pid")
addr=$(wait_for_pool "$workdir/coord2.out") || { cat "$workdir/coord2.err" >&2; fail "second coordinator never announced its pool address"; }

# The victim starts from a subshell so bash's job control stays quiet
# about the SIGKILL.
victim=$(
    "$workdir/asiccloudd" -worker -join "$addr" -id doomed -log-level warn \
        >"$workdir/doomed.out" 2>"$workdir/doomed.err" &
    echo $!
)
sleep 0.25
kill -KILL "$victim" 2>/dev/null || true
echo "smoke_distributed: killed worker 'doomed' mid-sweep"

for w in 4 5; do
    "$workdir/asiccloudd" -worker -join "$addr" -id "w$w" -log-level warn \
        >"$workdir/w$w.out" 2>"$workdir/w$w.err" &
    pids+=($!)
done
wait "$coord_pid" || { cat "$workdir/coord2.err" >&2; fail "coordinator did not survive the worker kill"; }
cmp -s "$workdir/once2.json" "$workdir/dist2.json" \
    || fail "result after worker kill is not byte-identical to the single-process run"
echo "smoke_distributed: sweep completed after worker kill, bytes identical"

echo "smoke_distributed: PASS"
