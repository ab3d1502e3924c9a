#!/usr/bin/env bash
# Tier-1 verification: build, tests, formatting, lints, a smoke run of the
# batch experiment runner (2 workloads x 2 schemes, checked against the
# committed golden spec's determinism guarantee: two runs must be
# byte-identical), a bounded fuzz campaign diffed against its pinned
# corpus, and the static-analysis cross-validation gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== tests (release: the simulator crates under release overflow semantics) =="
# The cache/TLB shift-and-mask indexing, the predecode table and their
# differential tests run again with overflow checks off, as the
# simulator ships.
cargo test --release -q -p lvp-mem -p lvp-branch -p lvp-uarch -p dlvp

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (library crates: no unwrap/panic outside tests) =="
cargo clippy -q -p dlvp -p lvp-uarch -p lvp-mem -p lvp-emu -p lvp-json \
  -p lvp-analysis -p lvp-obs -p lvp-isa -p lvp-trace -p lvp-branch \
  -p lvp-bench -p lvp-fuzz -p lvp-store --lib -- -D warnings -D clippy::unwrap_used

echo "== clippy (CLI binaries: no unwrap outside tests) =="
cargo clippy -q -p lvp-bench -p lvp-store --bins -- -D warnings -D clippy::unwrap_used

echo "== docs (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== runner smoke (2x2 matrix; telemetry must not perturb results) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/runner --workloads aifirf,perlbmk --schemes baseline,dlvp \
  --budget 10000 --jobs 1 --out "$tmp/a.json"
# The second run records a full host-telemetry manifest and Chrome trace:
# the results artifact must stay byte-identical, for any --jobs value.
./target/release/runner --workloads aifirf,perlbmk --schemes baseline,dlvp \
  --budget 10000 --jobs 4 --out "$tmp/b.json" \
  --telemetry "$tmp/runner_manifest.json" --host-trace "$tmp/runner_host.json" --quiet
cmp "$tmp/a.json" "$tmp/b.json"
echo "runner output is schedule- and telemetry-invariant"

echo "== telemetry smoke (manifest round-trips its schema) =="
./target/release/bench --validate-manifest "$tmp/runner_manifest.json"

echo "== figs (every committed results/*.txt regenerates byte-identically) =="
# Telemetry on: the rendered artifacts must still match the committed files.
./target/release/figs --all --out-dir "$tmp/figs" --quiet \
  --telemetry "$tmp/figs_manifest.json" > /dev/null
for f in "$tmp"/figs/*.txt; do
  cmp "$f" "results/$(basename "$f")"
done
./target/release/bench --validate-manifest "$tmp/figs_manifest.json"
echo "figs --all matches the committed artifacts byte-for-byte (telemetry on)"

echo "== result store gate (cold vs warm figs --all) =="
# Cold: a fresh store fills from scratch. Warm: every sim request must hit
# the store — the manifest proves zero sim jobs executed. Both runs must
# render the committed artifacts byte-identically.
./target/release/figs --all --out-dir "$tmp/figs_cold" --store "$tmp/store" \
  --quiet > /dev/null
./target/release/figs --all --out-dir "$tmp/figs_warm" --store "$tmp/store" \
  --quiet --telemetry "$tmp/figs_warm_manifest.json" > /dev/null
for f in "$tmp"/figs_cold/*.txt "$tmp"/figs_warm/*.txt; do
  cmp "$f" "results/$(basename "$f")"
done
python3 - "$tmp/figs_warm_manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
store = m.get("store") or {}
assert m["jobs"] == 0, f"warm figs executed {m['jobs']} sim jobs"
assert store.get("misses") == 0, f"warm figs missed the store: {store}"
assert store.get("hits", 0) > 0, f"warm figs reports no store hits: {store}"
print(f"warm figs: 0 sim jobs executed, {store['hits']} store hits, 0 misses")
EOF
./target/release/bench --validate-manifest "$tmp/figs_warm_manifest.json"
echo "store-enabled figs is byte-identical cold and warm; warm is 100% hits"

echo "== cross-tool store gate (runner on the store figs warmed) =="
# figs and runner key the same design points identically and store one
# payload shape per key, so the default runner matrix (every workload x
# every scheme, default config, budget 200000) is fully answered by the
# entries figs --all wrote.
./target/release/runner --budget 200000 --store "$tmp/store" \
  --telemetry "$tmp/runner_warm.json" --out "$tmp/runner_warm_matrix.json" --quiet
python3 - "$tmp/runner_warm.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
store = m.get("store") or {}
assert m["jobs"] == 0, f"runner on a figs-warmed store executed {m['jobs']} sim jobs"
assert store.get("misses") == 0, f"runner missed the figs-warmed store: {store}"
print(f"runner on the figs-warmed store: 0 sim jobs executed, {store.get('hits')} store hits")
EOF
# serve shares the key space too: a client matrix served from the store
# figs warmed must be all hits with nothing written, and byte-identical to
# a local store-off run of the same matrix.
./target/release/runner --workloads aifirf,perlbmk --budget 200000 \
  --out "$tmp/warm_local_matrix.json" --quiet
mkdir -p "$tmp/warm_queue"
./target/release/runner --client "$tmp/warm_queue" --client-timeout 300 \
  --workloads aifirf,perlbmk --budget 200000 \
  --out "$tmp/warm_served_matrix.json" --quiet &
client_pid=$!
for _ in $(seq 1 400); do
  served="$(./target/release/serve --queue "$tmp/warm_queue" \
    --store "$tmp/store" --once --quiet)"
  case "$served" in "serve: 0 batches"*) sleep 0.05 ;; *) break ;; esac
done
wait "$client_pid"
case "$served" in
  *" misses 0 writes 0 "*) echo "$served" ;;
  *) echo "serve missed the figs-warmed store: $served" >&2; exit 1 ;;
esac
cmp "$tmp/warm_local_matrix.json" "$tmp/warm_served_matrix.json"
echo "serve on the figs-warmed store: 0 misses, 0 writes, byte-identical matrix"

echo "== store CLI smoke (stats / verify / gc) =="
./target/release/store --dir "$tmp/store" stats
./target/release/store --dir "$tmp/store" verify > /dev/null
./target/release/store --dir "$tmp/store" gc --max-entries 10000 > /dev/null
echo "store maintenance CLI is healthy"

echo "== serve/client smoke (batch server answers byte-identically) =="
./target/release/runner --workloads aifirf --schemes baseline,dlvp \
  --budget 10000 --jobs 2 --out "$tmp/local_matrix.json" --quiet
mkdir -p "$tmp/queue"
./target/release/runner --client "$tmp/queue" --client-timeout 120 \
  --workloads aifirf --schemes baseline,dlvp --budget 10000 \
  --out "$tmp/served_matrix.json" --quiet &
client_pid=$!
# The client submits asynchronously; poll `serve --once` until it has
# drained the one batch.
for _ in $(seq 1 400); do
  served="$(./target/release/serve --queue "$tmp/queue" \
    --store "$tmp/serve_store" --once --quiet)"
  case "$served" in "serve: 0 batches"*) sleep 0.05 ;; *) break ;; esac
done
wait "$client_pid"
cmp "$tmp/local_matrix.json" "$tmp/served_matrix.json"
echo "served matrix is byte-identical to the local run"

# A degenerate sample spec, or a budget that ends before the first detail
# window (budget <= ff + warmup), must be rejected at the service boundary:
# the reply is an error line (serve exits 1) and nothing is simulated or
# stored. runner --sample refuses the same budget before running anything.
mkdir -p "$tmp/bad_queue/new"
cat > "$tmp/bad_queue/new/degenerate.json" <<'EOF'
{"schema_version": 1, "id": "degenerate", "jobs": [
  {"workload": "aifirf", "scheme": "dlvp", "variant": "default", "budget": 10000,
   "sample": {"ff": 0, "warmup": 0, "detail": 5, "period": 1}}]}
EOF
cat > "$tmp/bad_queue/new/nodetail.json" <<'EOF'
{"schema_version": 1, "id": "nodetail", "jobs": [
  {"workload": "aifirf", "scheme": "dlvp", "variant": "default", "budget": 10000,
   "sample": {"ff": 20000, "warmup": 100, "detail": 500, "period": 1000}}]}
EOF
if ./target/release/serve --queue "$tmp/bad_queue" --store "$tmp/bad_store" \
  --once --quiet; then
  echo "serve accepted a degenerate sample spec" >&2
  exit 1
fi
python3 - "$tmp/bad_queue/done" \
  "$(./target/release/store --dir "$tmp/bad_store" stats)" <<'EOF'
import json, sys
for batch in ["degenerate", "nodetail"]:
    lines = [json.loads(l) for l in open(f"{sys.argv[1]}/{batch}.jsonl")]
    assert len(lines) == 1 and "error" in lines[0], f"{batch}: expected one error line, got {lines}"
    print(f"serve rejected the {batch} sample spec:", lines[0]["error"])
entries = json.loads(sys.argv[2])["entries"]
assert entries == 0, f"a rejected batch stored {entries} entries"
EOF
status=0
./target/release/runner --workloads aifirf --budget 10000 \
  --sample 20000:100:500:1000 --out "$tmp/nodetail.json" --quiet 2> /dev/null || status=$?
if [ "$status" -ne 2 ] || [ -e "$tmp/nodetail.json" ]; then
  echo "runner --sample ran a budget with no detail window (exit $status)" >&2
  exit 1
fi
echo "runner --sample refuses a budget with no detail window (exit 2)"

echo "== sampled runner gate (streamed; cold, warm and --jobs 1 byte-identical) =="
# Sampled jobs stream their records from the emulator, one stream per
# (workload, budget, spec) shared by every scheme and variant on it. A cold
# store run, a warm rerun (every job a hit) and a store-off single-worker
# run (no stream split) must write the same bytes.
sampled=(--workloads aifirf,perlbmk,mcf --schemes baseline,dlvp,vtage
  --variants default,no_prefetch --budget 200000 --sample 10000:2000:3000:20000 --quiet)
./target/release/runner "${sampled[@]}" --jobs 4 --store "$tmp/sampled_store" \
  --out "$tmp/sampled_cold.json"
./target/release/runner "${sampled[@]}" --jobs 4 --store "$tmp/sampled_store" \
  --out "$tmp/sampled_warm.json" --telemetry "$tmp/sampled_warm_manifest.json"
./target/release/runner "${sampled[@]}" --jobs 1 --out "$tmp/sampled_jobs1.json"
cmp "$tmp/sampled_cold.json" "$tmp/sampled_warm.json"
cmp "$tmp/sampled_cold.json" "$tmp/sampled_jobs1.json"
python3 - "$tmp/sampled_warm_manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
store = m.get("store") or {}
assert m["jobs"] == 0 and store.get("misses") == 0, f"warm sampled rerun executed work: {m['jobs']} jobs, {store}"
print(f"warm sampled rerun: 0 jobs, {store.get('hits')} store hits")
EOF
echo "sampled runner output is byte-identical cold, warm and at --jobs 1"

echo "== serve stream gate (a repeated batch is all hits and emulates nothing) =="
# Two identical batches dropped straight into the queue, drained by one
# warm server: the first streams each distinct (workload, budget) once, the
# second is answered from the store with nothing emulated or fingerprinted.
mkdir -p "$tmp/trace_queue/new"
cat > "$tmp/trace_batch.json" <<'EOF'
{"schema_version": 1, "id": "ID", "jobs": [
  {"workload": "aifirf", "scheme": "baseline", "variant": "default", "budget": 10000},
  {"workload": "aifirf", "scheme": "dlvp", "variant": "default", "budget": 10000},
  {"workload": "perlbmk", "scheme": "dlvp", "variant": "default", "budget": 10000},
  {"workload": "aifirf", "scheme": "dlvp", "variant": "default", "budget": 20000}]}
EOF
for id in traced-1 traced-2; do
  sed "s/\"ID\"/\"$id\"/" "$tmp/trace_batch.json" > "$tmp/trace_queue/new/$id.json"
done
served="$(./target/release/serve --queue "$tmp/trace_queue" --once --quiet)"
python3 - "$served" "$tmp/trace_batch.json" "$tmp/trace_queue/done" <<'EOF'
import json, re, sys
served, batch, done = sys.argv[1:]
jobs = json.load(open(batch))["jobs"]
pairs = len({(j["workload"], j["budget"]) for j in jobs})
streamed = int(re.search(r"streamed (\d+)", served).group(1))
assert streamed == pairs, f"serve streamed {streamed} pairs for {pairs} distinct (workload, budget) pairs: {served}"
warm = [json.loads(l) for l in open(f"{done}/traced-2.jsonl")]
sources = [l.get("source") for l in warm]
assert len(warm) == len(jobs) and set(sources) == {"store"}, f"repeated batch was not all hits: {sources}"
print(f"serve: {streamed} pairs streamed for {pairs} distinct pairs; the repeated batch is {len(warm)} store hits")
EOF

echo "== obs smoke (trace artifacts are schedule-invariant) =="
./target/release/obs run --workload aifirf --scheme dlvp --budget 10000 \
  --trace-out "$tmp/obs1.chrome.json" --report-out "$tmp/obs1.report.json"
./target/release/obs run --workload aifirf --scheme dlvp --budget 10000 \
  --trace-out "$tmp/obs2.chrome.json" --report-out "$tmp/obs2.report.json"
cmp "$tmp/obs1.chrome.json" "$tmp/obs2.chrome.json"
cmp "$tmp/obs1.report.json" "$tmp/obs2.report.json"
echo "obs artifacts are deterministic"

echo "== obs overhead (tracing must stay under 2x a NullSink run) =="
./target/release/obs overhead --workload aifirf --budget 10000 --max-ratio 2.0

echo "== fuzz smoke (campaign report matches the pinned corpus) =="
# 25 smoke-profile seeds through the synthesizer + differential oracle;
# the report is a pure function of (profile, seeds, oracle config), so it
# must reproduce the committed corpus byte-for-byte.
./target/release/fuzz --smoke --out "$tmp/fuzz_corpus.json" \
  --telemetry "$tmp/fuzz_manifest.json" --quiet
cmp "$tmp/fuzz_corpus.json" results/golden/fuzz_corpus.json
./target/release/bench --validate-manifest "$tmp/fuzz_manifest.json"
echo "fuzz --smoke matches the pinned corpus byte-for-byte (telemetry on)"

echo "== fuzz guided (analyzer-guided profile through the R5-R7 oracle) =="
# The analyzer-guided synthesis profile: dense must/may-conflict stores and
# unanalyzable sites, cross-validated against the dependence pass. Any
# finding (including a dependence-rule violation) fails the run.
./target/release/fuzz --profile guided --seeds 25 --out "$tmp/fuzz_guided.json"
echo "guided campaign is clean"

echo "== analyze cross-validation gate =="
# The gate itself (exit 1 on any static-vs-dynamic contradiction) plus the
# byte-determinism of the committed report and dependence-graph artifacts.
./target/release/analyze --budget 60000 --out "$tmp/analysis.json" \
  --depgraph "$tmp/depgraph.json" --telemetry "$tmp/analyze_manifest.json"
cmp "$tmp/analysis.json" results/analysis/report.json
cmp "$tmp/depgraph.json" results/analysis/depgraph.json
./target/release/bench --validate-manifest "$tmp/analyze_manifest.json"
echo "analyze report and depgraph match the committed artifacts byte-for-byte (telemetry on)"

echo "== sim-throughput regression gate =="
# Median-of-5 (warm-up discarded) per matrix cell against the committed
# BENCH_simcore.json baseline. The tolerance band is rel=1.0 (fail only
# past 2x baseline): wide enough for host-to-host wall-clock variance,
# tight enough to catch integer-factor hot-loop regressions. Deterministic
# counters are compared exactly — drift there fails at any speed. See
# DESIGN.md §12 for the baseline-refresh policy.
./target/release/bench --check
# Prove the gate bites: a deliberate busy-loop in the core step (results
# stay bit-identical) must blow through the band and fail the check. It
# must fail for being slower and for nothing else: at least one simcore
# cell exceeds its baseline, and no deterministic counter drifts and no
# cell or counter goes missing.
if ./target/release/bench --check --inject-slowdown \
     --warmup-ms 1 --min-sample-ms 1 > /dev/null 2> "$tmp/inject.err"; then
  echo "bench --inject-slowdown was NOT caught by the gate" >&2
  exit 1
fi
if ! grep -q '^  simcore/.* exceeds baseline' "$tmp/inject.err"; then
  echo "bench --inject-slowdown failed, but no simcore cell exceeded its baseline:" >&2
  cat "$tmp/inject.err" >&2
  exit 1
fi
if grep -E 'drifted|not in baseline|not in the current matrix|missing|budget changed' \
     "$tmp/inject.err" >&2; then
  echo "bench --inject-slowdown changed deterministic results or the matrix" >&2
  exit 1
fi
echo "throughput gate passes at HEAD and catches the injected slowdown"

echo "== benchmark harness tests + serve_mixed cross-check =="
# Building benchmark/ adds one line to its lock file (dlvp's lvp-analysis
# edge); restore the committed file so the checkout stays untouched. The
# traced serve_mixed smoke replays served batches layer by layer and fails
# unless its keys, sim_request_doc over trace.fingerprint(), and every
# response line equal execute_batch's. The sampled_long smoke runs the
# streamed sampled matrix at 2M instructions and fails if any sampled
# digest drifts from benchmark/pins.json.
cp benchmark/Cargo.lock "$tmp/benchmark.Cargo.lock"
status=0
cargo test -q --offline --manifest-path benchmark/Cargo.toml || status=$?
if [ "$status" -eq 0 ]; then
  benchmark/run.sh --workload serve_mixed --quick --traced --seed 1 \
    > "$tmp/serve_mixed.log" 2>&1 || { status=$?; tail -20 "$tmp/serve_mixed.log" >&2; }
fi
if [ "$status" -eq 0 ]; then
  benchmark/run.sh --workload sampled_long --quick --seed 1 \
    > "$tmp/sampled_long.log" 2>&1 || { status=$?; tail -20 "$tmp/sampled_long.log" >&2; }
fi
cp "$tmp/benchmark.Cargo.lock" benchmark/Cargo.lock
[ "$status" -eq 0 ]
echo "benchmark harness builds, its tests pass, traced serve_mixed and sampled_long have 0 failed"

echo "CI OK"
