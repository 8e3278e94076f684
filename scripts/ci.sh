#!/usr/bin/env bash
# Tier-1 gate plus an observability smoke check.
#
#   scripts/ci.sh            # build + full test suite + expt smoke
#   SKIP_SMOKE=1 scripts/ci.sh
#
# The build is fully offline: every external dependency resolves to a
# path stub under third_party/ (see third_party/README.md), so this
# script must work with no network at all.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
    echo "== smoke: skipped (SKIP_SMOKE=1) =="
    exit 0
fi

echo "== smoke: chaos determinism gate (seed 42, 5% failures) =="
# Fault injection must never change results, and the same seed must
# reproduce the exact same retry counters: run the seeded chaos smoke
# twice and require byte-identical reports (pairs digest, retry and
# injection counters, identical=true verdict).
chaos_a="$(cargo run --release -p ssj-bench --bin chaos -- 42 0.05 2>/dev/null)"
chaos_b="$(cargo run --release -p ssj-bench --bin chaos -- 42 0.05 2>/dev/null)"
if [[ "$chaos_a" != "$chaos_b" ]]; then
    echo "chaos gate FAILED: two runs with the same seed diverged" >&2
    diff <(printf '%s\n' "$chaos_a") <(printf '%s\n' "$chaos_b") >&2 || true
    exit 1
fi
if ! grep -q '^identical=true$' <<<"$chaos_a"; then
    echo "chaos gate FAILED: fault injection changed the join output" >&2
    printf '%s\n' "$chaos_a" >&2
    exit 1
fi
# Non-vacuous: the plan runner's worker loop is the engine's only retry
# path, so the seeded run must actually inject failures and retry them.
counter() { grep '^counters:' <<<"$chaos_a" | grep -oE " $1=[0-9]+" | cut -d= -f2; }
chaos_retries="$(counter retries)"
chaos_failures=$(( $(counter injected_errors) + $(counter injected_panics) ))
if (( ${chaos_retries:-0} == 0 || chaos_failures == 0 )); then
    echo "chaos gate FAILED: no injected failure was retried (vacuous run)" >&2
    printf '%s\n' "$chaos_a" >&2
    exit 1
fi
echo "$chaos_a" | sed 's/^/  /'

echo "== smoke: shuffle determinism gate (workers 2 vs 7) =="
# The worker-thread count parallelizes map/shuffle/reduce but must never
# change output, metrics, or byte accounting: the streaming shuffle
# merges spill runs in deterministic map-task order no matter which
# thread transposed them. Run the fig6-style probe with two different
# worker counts and require byte-identical reports (result digest,
# candidate counts, filter counters, per-job shuffle records/bytes).
det_a="$(cargo run --release -p ssj-bench --bin determinism -- 2 2>/dev/null)"
det_b="$(cargo run --release -p ssj-bench --bin determinism -- 7 2>/dev/null)"
if [[ "$det_a" != "$det_b" ]]; then
    echo "shuffle determinism gate FAILED: worker count changed the report" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$det_b") >&2 || true
    exit 1
fi
echo "$det_a" | sed 's/^/  /'

echo "== smoke: plan equivalence gate (pipelined vs sequential, workers 2 and 7) =="
# Partition-granular pipelining changes when tasks run, never what they
# compute: at every worker count the pipelined plan must produce the
# exact report (result digest, candidates, filter counters, per-job
# logical metrics) of the barriered sequential plan. det_a above is the
# pipelined workers=2 report; reuse it.
plan_seq2="$(cargo run --release -p ssj-bench --bin determinism -- 2 sequential 2>/dev/null)"
if [[ "$det_a" != "$plan_seq2" ]]; then
    echo "plan equivalence gate FAILED: mode changed the report at workers=2" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$plan_seq2") >&2 || true
    exit 1
fi
plan_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined 2>/dev/null)"
plan_seq7="$(cargo run --release -p ssj-bench --bin determinism -- 7 sequential 2>/dev/null)"
if [[ "$plan_pipe7" != "$plan_seq7" ]]; then
    echo "plan equivalence gate FAILED: mode changed the report at workers=7" >&2
    diff <(printf '%s\n' "$plan_pipe7") <(printf '%s\n' "$plan_seq7") >&2 || true
    exit 1
fi
echo "  plan modes agree at workers 2 and 7"

echo "== smoke: rsjoin plan equivalence gate (two-input fan-in, workers 2 vs 7, both modes) =="
# The two-input R×S plan adds multi-upstream fan-in scheduling and
# broadcast edges to the surface under test: its report (digest,
# candidates, per-stage shuffle records/bytes) must also be invariant
# across worker counts and plan modes.
# The join stage verifies each pair only in the group of its smallest
# shared token, so it must emit every result pair exactly once: the
# report's join-output count (`candidates`) equals its `pairs`.
emits_each_pair_once() {
    local line pairs
    line="$(grep '^result:' <<<"$1")"
    pairs="${line#*pairs=}"
    pairs="${pairs%% *}"
    [[ -n "$pairs" && "$line" == *" candidates=$pairs" ]]
}
rs_pipe2="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin 2>/dev/null)"
rs_seq2="$(cargo run --release -p ssj-bench --bin determinism -- 2 sequential rsjoin 2>/dev/null)"
rs_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined rsjoin 2>/dev/null)"
for variant in rs_seq2 rs_pipe7; do
    if [[ "$rs_pipe2" != "${!variant}" ]]; then
        echo "rsjoin plan equivalence gate FAILED: $variant diverged" >&2
        diff <(printf '%s\n' "$rs_pipe2") <(printf '%s\n' "${!variant}") >&2 || true
        exit 1
    fi
done
if ! emits_each_pair_once "$rs_pipe2"; then
    echo "rsjoin plan equivalence gate FAILED: co-group join emitted a pair more than once" >&2
    grep '^result:' <<<"$rs_pipe2" >&2 || true
    exit 1
fi
echo "$rs_pipe2" | sed 's/^/  /'

echo "== smoke: rsjoin join-path equivalence gate (cogroup vs rekey, workers 2 vs 7) =="
# The co-group join stage (DESIGN.md §13) consumes the sealed prefix
# partitions in place; the legacy rekey fan-in re-shuffles them. The two
# paths must agree on every result line (digest, candidates, filter
# counters) at every worker count — only the per-job shuffle accounting
# may differ, and it must differ in the co-group path's favour: its join
# stage moves zero shuffle bytes. rs_pipe2/rs_pipe7 above are the
# co-group (default) reports; reuse them.
rk_pipe2="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin prune rekey 2>/dev/null)"
rk_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined rsjoin prune rekey 2>/dev/null)"
if [[ "$rk_pipe2" != "$rk_pipe7" ]]; then
    echo "rsjoin join-path gate FAILED: rekey path not worker-invariant" >&2
    diff <(printf '%s\n' "$rk_pipe2") <(printf '%s\n' "$rk_pipe7") >&2 || true
    exit 1
fi
results_only() { grep -E '^(result|filters):' <<<"$1"; }
if [[ "$(results_only "$rs_pipe2")" != "$(results_only "$rk_pipe2")" ]]; then
    echo "rsjoin join-path gate FAILED: cogroup and rekey paths disagree" >&2
    diff <(results_only "$rs_pipe2") <(results_only "$rk_pipe2") >&2 || true
    exit 1
fi
if ! emits_each_pair_once "$rk_pipe2"; then
    echo "rsjoin join-path gate FAILED: rekey join emitted a pair more than once" >&2
    grep '^result:' <<<"$rk_pipe2" >&2 || true
    exit 1
fi
if ! grep -q '^job rsjoin-join: shuffle_records=0 shuffle_bytes=0 ' <<<"$rs_pipe2"; then
    echo "rsjoin join-path gate FAILED: cogroup join stage still shuffles" >&2
    grep '^job rsjoin-join:' <<<"$rs_pipe2" >&2 || true
    exit 1
fi
echo "  cogroup and rekey join paths agree at workers 2 and 7 (cogroup join: zero shuffle)"

echo "== smoke: kernel equivalence gate (bitmap prune on vs off) =="
# The bitmap prune layer consults hashed token bitmaps before exact
# verification; the XOR-Hamming bound is a true upper bound on overlap,
# so the prune is lossless by construction. Enforce it end to end: the
# determinism report (digest, candidates, filter counters, per-job
# shuffle accounting) must be byte-identical with the prune disabled,
# on both the self-join and the two-input R×S plan. det_a / rs_pipe2
# above are the prune-on reports; reuse them.
noprune_self="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined selfjoin noprune 2>/dev/null)"
if [[ "$det_a" != "$noprune_self" ]]; then
    echo "kernel equivalence gate FAILED: bitmap prune changed the selfjoin report" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$noprune_self") >&2 || true
    exit 1
fi
noprune_rs="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin noprune 2>/dev/null)"
if [[ "$rs_pipe2" != "$noprune_rs" ]]; then
    echo "kernel equivalence gate FAILED: bitmap prune changed the rsjoin report" >&2
    diff <(printf '%s\n' "$rs_pipe2") <(printf '%s\n' "$noprune_rs") >&2 || true
    exit 1
fi
if ! emits_each_pair_once "$noprune_rs"; then
    echo "kernel equivalence gate FAILED: rsjoin without the prune emitted a pair more than once" >&2
    grep '^result:' <<<"$noprune_rs" >&2 || true
    exit 1
fi
echo "  prune on/off reports byte-identical (selfjoin + rsjoin)"

echo "== smoke: expt table1 --trace-out =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release -p ssj-bench --bin expt -- table1 --trace-out "$trace_dir" >/dev/null

for f in trace.json metrics.jsonl; do
    if [[ ! -s "$trace_dir/$f" ]]; then
        echo "smoke FAILED: $trace_dir/$f missing or empty" >&2
        exit 1
    fi
done

# Structural validation when a Python is around; plain existence check
# (above) otherwise, so the gate still passes on minimal hosts.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace_dir" <<'EOF'
import json, sys, collections
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
cats = collections.Counter(e.get("cat") for e in events if e.get("ph") == "X")
for needed in ("mr.job", "mr.phase", "mr.task", "fsjoin.stage", "sim.task"):
    assert cats[needed] > 0, f"no {needed} events in trace.json"
last = {}
for e in events:
    if e.get("ph") != "X":
        continue
    lane = (e["pid"], e["tid"])
    assert e["ts"] >= last.get(lane, 0), f"lane {lane} not monotonic"
    last[lane] = e["ts"]
metrics = [json.loads(l) for l in open(f"{d}/metrics.jsonl") if l.strip()]
names = {m["metric"] for m in metrics}
for needed in ("fsjoin.filter.segl_pruned", "fsjoin.filter.segi_pruned",
               "fsjoin.filter.segd_pruned", "mr.shuffle.records"):
    assert needed in names, f"no {needed} in metrics.jsonl"
print(f"smoke OK: {len(events)} trace events, {len(metrics)} metrics")
EOF
else
    echo "smoke OK (python3 unavailable; structural validation skipped)"
fi

echo "== smoke: ssj-prof critical-path + determinism gate =="
# The profiler must (a) reconstruct every plan-tagged run in the trace
# with a critical path spanning >= 95% of its makespan (--check), and
# (b) be byte-deterministic on a fixed input: two invocations on the
# same trace directory must print identical reports.
prof_a="$(cargo run --release -p ssj-bench --bin ssj-prof -- "$trace_dir" --check 2>/dev/null)"
prof_b="$(cargo run --release -p ssj-bench --bin ssj-prof -- "$trace_dir" --check 2>/dev/null)"
if [[ "$prof_a" != "$prof_b" ]]; then
    echo "ssj-prof gate FAILED: output not deterministic" >&2
    diff <(printf '%s\n' "$prof_a") <(printf '%s\n' "$prof_b") >&2 || true
    exit 1
fi
grep '^CHECK ' <<<"$prof_a" | sed 's/^/  /'
if ! grep -q '^CHECK .* OK$' <<<"$prof_a"; then
    echo "ssj-prof gate FAILED: no profiles passed the coverage check" >&2
    exit 1
fi
# Every reduce stage must publish its skew telemetry into metrics.jsonl.
if ! grep -q '^reduce-stage skew' <<<"$prof_a"; then
    echo "ssj-prof gate FAILED: no skew section (metrics.jsonl unwired?)" >&2
    exit 1
fi

echo "== smoke: serve replay determinism gate (build workers 2 vs 7) =="
# The serving plane builds its index with a batch plan, so the build
# worker count parallelizes construction — but index content and probe
# answers must not depend on it. Replay every record (including an
# insert/compaction interleave) under both worker counts and require
# byte-identical reports: result digest, probe-cascade counters, index
# shape, and the post-compaction and fresh-build digests.
serve_a="$(cargo run --release -p ssj-bench --bin ssj-serve -- --digest --workers 2 2>/dev/null)"
serve_b="$(cargo run --release -p ssj-bench --bin ssj-serve -- --digest --workers 7 2>/dev/null)"
if [[ "$serve_a" != "$serve_b" ]]; then
    echo "serve gate FAILED: build worker count changed the replay report" >&2
    diff <(printf '%s\n' "$serve_a") <(printf '%s\n' "$serve_b") >&2 || true
    exit 1
fi
# Compaction appends the delta in place; the compacted index must answer
# exactly like a fresh build over every record.
serve_compacted="$(sed -nE 's/^post-compaction: (pairs=[0-9]+ digest=0x[0-9a-f]+).*/\1/p' <<<"$serve_a")"
serve_fresh="$(sed -nE 's/^fresh-build: (pairs=[0-9]+ digest=0x[0-9a-f]+)$/\1/p' <<<"$serve_a")"
if [[ -z "$serve_fresh" || "$serve_compacted" != "$serve_fresh" ]]; then
    echo "serve gate FAILED: compacted index ($serve_compacted) differs from a fresh build ($serve_fresh)" >&2
    exit 1
fi
echo "$serve_a" | sed 's/^/  /'

echo "== perf: bench_probe regression gate =="
# Fresh probe runs must stay within tolerance of the committed baselines
# (wall units are calibration-normalized, so this is machine-portable),
# and the gate itself is self-tested: an injected 2x slowdown must fail.
cargo run --release -p ssj-bench --bin bench_probe -- --check results/bench | sed 's/^/  /'
if cargo run --release -p ssj-bench --bin bench_probe -- --check results/bench --handicap 2.0 >/dev/null 2>&1; then
    echo "bench_probe gate FAILED: injected 2x slowdown was not detected" >&2
    exit 1
fi
echo "  self-test OK: 2x handicap trips the gate"
