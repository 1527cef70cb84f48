#!/usr/bin/env bash
# Repo gate: formatting, lints, warning-free rustdoc, the paper-table
# harnesses, the tier-1 test suite, the tests of the standalone
# benchmark package (ecobench/), the differential campaigns and the seq
# smoke. Run from anywhere; operates on the workspace root. Every step
# writes its files under one temporary directory, removed on exit, so
# the gate leaves the working tree unchanged.
#
# The paper-table step runs the release table2 harness and the three
# ablation harnesses (seconds). Each expects every run to rectify and
# verify, so a clean pass checks the 20 suite units under the baseline
# and default options, and the ablation settings: localization off, the
# Watch window beta in {1, 3, 5, 8}, and the on-set, negated off-set
# and interpolant initial patches with the optimizer off. It prints each
# harness's wall time, and table2 must refuse an unknown unit name.
#
# The campaigns step runs every differential campaign through eco-fuzz
# (seconds): it replays the tests/corpus regression set, then runs 200
# fuzz cases with shrinking, 200 budgeted cases (governed pipeline under
# seeded starvation budgets), 15 format round-trip cases with shrinking,
# and 240 chaos sweeps (seeded fault injection over batch and serve runs
# with a differential oracle) followed by the kill-mid-stream drill
# (SIGKILL a real eco-serve daemon, recover with --resume, the union of
# responses must equal the fault-free run, the warm restart must hit the
# durable memo). The chaos campaign then runs again and must repeat its
# verdicts and sweep counters exactly. All start at seed 1; any failure
# fails the gate with the failing seed printed, and `eco-fuzz --campaign
# <name> --case <seed>` reruns it.
#
# --degrade-smoke additionally drives the eco-patch binary against a
# starvation budget (zero deadline, one-conflict allowance) and asserts
# the graceful-degradation contract: exit code 4, a per-cluster partial
# report, well-formed governor counters in --stats=json, and a partial
# patch netlist only under --allow-partial.
#
# --batch-smoke additionally generates a 12-job manifest with
# eco-workgen, runs it cold then warm through eco-batch over one shared
# memo cache (--repeat 2), and asserts every job is proven equivalent,
# the memo counts are exact (12 cold misses, 12 warm hits, 12 entries:
# the units are structurally distinct and the passes run one after
# another), and the JSONL report is byte-identical for --jobs 1 vs
# --jobs 4. It then drives the binary's crash-safety flags: a run with
# --journal <dir> and a --resume of that complete journal must both
# report the same bytes as the unjournaled run, the resume must replay
# all 12 jobs from batch.wal, and neither may count a persistence
# error. Then batch.wal is cut inside its last frame and resumed twice:
# both reports keep the same bytes, the first counts one persistence
# error, and the second replays all 12 jobs with none. It prints the
# cold and warm pass wall times.
#
# --serve-smoke additionally exercises the eco-serve daemon end to end:
# a 12-job request stream (from eco-workgen --requests) is replayed cold
# then warm against one daemon over a unix socket. The warm replay must
# hit the process-lifetime memo cache (daemon stats op: exactly 12 hits
# and 12 misses, no worker restart and no persistence error), finish in
# <10% of the cold stream's wall time, and return byte-identical
# responses; a second daemon with --jobs 1 must produce the same bytes
# as --jobs 4. Both drain paths are proven clean (protocol shutdown and
# SIGTERM, exit 0, socket file removed, all admitted jobs answered). It
# prints the cold and warm throughput and p50/p99 round-trip latencies.
#
# The seq smoke is also part of the DEFAULT gate (seconds): it generates
# a latch-bearing case with eco-workgen --seq, rectifies it through
# eco-patch --unroll at several frame depths (generate → unroll →
# rectify → fold → verify, exit 0 each time), asserts the folded patch
# parses and carries no frame-indexed names, cross-checks the format hub
# with a byte-fixpoint conversion cycle, and prints unroll-depth wall
# times, frames/sec, and patch sizes. Skip it with --no-seq-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

degrade_smoke=0
batch_smoke=0
serve_smoke=0
seq_smoke=1
for arg in "$@"; do
  case "$arg" in
    --degrade-smoke) degrade_smoke=1 ;;
    --batch-smoke) batch_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --seq-smoke) seq_smoke=1 ;;
    --no-seq-smoke) seq_smoke=0 ;;
    *) echo "usage: $0 [--degrade-smoke] [--batch-smoke] [--serve-smoke] [--no-seq-smoke]" >&2; exit 2 ;;
  esac
done

gtmp="$(mktemp -d)"
trap 'rm -rf "$gtmp"' EXIT

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== paper tables: table2 and the three ablation harnesses"
mkdir "$gtmp/tables"
for bin in table2 ablation_localization ablation_watch ablation_synthesis; do
  t0=$(date +%s%N)
  target/release/$bin > "$gtmp/tables/$bin.txt" 2>&1 \
    || { echo "paper tables: $bin failed"; cat "$gtmp/tables/$bin.txt"; exit 1; }
  echo "paper tables: $bin $((($(date +%s%N) - t0) / 1000000)) ms"
done
set +e
target/release/table2 unit99 > "$gtmp/tables/unit99.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "paper tables: table2 unit99 exited $rc, expected usage error 1"; cat "$gtmp/tables/unit99.txt"; exit 1; }

echo "== cargo test -q"
cargo test -q --workspace

# The benchmark package is a workspace of its own; its tests fail the
# gate when a public-API change stops it from building.
echo "== cargo test -q --manifest-path ecobench/Cargo.toml"
cargo test -q --offline --manifest-path ecobench/Cargo.toml

echo "== campaigns: corpus replay, fuzz, budget, formats and chaos through eco-fuzz"
target/release/eco-fuzz --replay tests/corpus
target/release/eco-fuzz --campaign fuzz --iters 200 --seed 1 --shrink
target/release/eco-fuzz --campaign budget --iters 200 --seed 1
target/release/eco-fuzz --campaign formats --iters 15 --seed 1 --shrink
# The chaos campaign fails on any crash, any wrong answer (differential
# oracle), a lost response across the SIGKILL, or a warm restart that
# misses the durable memo store.
chaos=$(target/release/eco-fuzz --campaign chaos --iters 240 --seed 1 --stats=json) \
  || { echo "chaos campaign failed: $chaos"; exit 1; }
echo "$chaos"
grep -q '"failures": 0' <<< "$chaos" || { echo "chaos campaign: summary reports failures"; exit 1; }
# Fault decisions are a function of seed, site and job, not of thread
# scheduling: a second run must repeat every verdict and sweep counter
# (the drill's timing counters may differ).
chaos_again=$(target/release/eco-fuzz --campaign chaos --iters 240 --seed 1 --stats=json) \
  || { echo "chaos campaign (second run) failed: $chaos_again"; exit 1; }
sweep_counters() {
  grep -oE '"(cases|passes|degraded|skips|failures|consults|injected|typed_degradations)": [0-9]+' <<< "$1"
}
if [ "$(sweep_counters "$chaos")" != "$(sweep_counters "$chaos_again")" ]; then
  echo "chaos campaign is not deterministic:"
  echo "$chaos_again"
  exit 1
fi
echo "chaos campaign repeats: $(sweep_counters "$chaos_again" | tr '\n' ' ')"

if [ "$seq_smoke" -eq 1 ]; then
  echo "== seq smoke: generate -> unroll -> rectify -> fold -> verify at several depths"
  sqtmp="$gtmp/seq"
  mkdir "$sqtmp"
  target/release/eco-workgen --seq 1 --out "$sqtmp" --seed 5 -q

  # seq000 is the first shift-register unit (seed 5: 4 latches, 1
  # target); its fault sits in the output cone, so the fold succeeds at
  # any depth that covers the state.
  targets=$(tr '\n' ',' < "$sqtmp/seq000.targets" | sed 's/,$//')
  for k in 2 4 6; do
    t0=$(date +%s%N)
    target/release/eco-patch \
      -f "$sqtmp/seq000_faulty.btor2" -g "$sqtmp/seq000_golden.btor2" \
      -w "$sqtmp/seq000.weights" -t "$targets" --unroll "$k" \
      -o "$sqtmp/patch_k$k.v" 2> "$sqtmp/stderr_k$k.txt" \
      || { echo "seq smoke: --unroll $k run failed"; cat "$sqtmp/stderr_k$k.txt"; exit 1; }
    t1=$(date +%s%N)
    wall=$((t1 - t0))
    grep -q "patched and verified over $k frames" "$sqtmp/stderr_k$k.txt" \
      || { echo "seq smoke: --unroll $k did not verify"; cat "$sqtmp/stderr_k$k.txt"; exit 1; }
    grep -q 'module patch' "$sqtmp/patch_k$k.v" \
      || { echo "seq smoke: --unroll $k wrote a malformed patch"; cat "$sqtmp/patch_k$k.v"; exit 1; }
    ! grep -q '@' "$sqtmp/patch_k$k.v" \
      || { echo "seq smoke: frame-indexed name leaked into the folded patch"; cat "$sqtmp/patch_k$k.v"; exit 1; }
    size=$(sed -n "s/.*cost [0-9]*, size \([0-9]*\).*/\1/p" "$sqtmp/stderr_k$k.txt")
    fps=$(awk -v k="$k" -v w="$wall" 'BEGIN { printf "%.1f", k / (w / 1e9) }')
    echo "seq/unroll$k: cold eco-patch process wall ${wall} ns, ${fps} frames/s, patch size $size ANDs"
  done

  # Format-hub cross-checks: the canonical BTOR2 writer is a byte
  # fixpoint through its own parser, and the design survives a blif hop
  # with its latches intact.
  target/release/eco-convert -i "$sqtmp/seq000_golden.btor2" -o "$sqtmp/rt.btor2" 2> /dev/null \
    || { echo "seq smoke: btor2 -> btor2 conversion failed"; exit 1; }
  cmp -s "$sqtmp/seq000_golden.btor2" "$sqtmp/rt.btor2" \
    || { echo "seq smoke: btor2 -> btor2 is not a byte fixpoint"; diff "$sqtmp/seq000_golden.btor2" "$sqtmp/rt.btor2" || true; exit 1; }
  target/release/eco-convert -i "$sqtmp/seq000_golden.btor2" -o "$sqtmp/rt.blif" 2> "$sqtmp/convert.txt" \
    || { echo "seq smoke: btor2 -> blif conversion failed"; cat "$sqtmp/convert.txt"; exit 1; }
  grep -q '4 latches' "$sqtmp/convert.txt" \
    || { echo "seq smoke: conversion lost latches"; cat "$sqtmp/convert.txt"; exit 1; }
  echo "seq smoke: ok"
fi

if [ "$degrade_smoke" -eq 1 ]; then
  echo "== degrade smoke: starved eco-patch run must exit 4 with a well-formed partial result"
  tmp="$gtmp/degrade"
  mkdir "$tmp"
  # A tiny two-cluster workload: two independent targets, each cut to a
  # floating pseudo-input in the faulty circuit.
  cat > "$tmp/golden.v" <<'EOF'
module g (a, b, c, y, z);
input a, b, c;
output y, z;
wire t1, t2;
xor g1 (t1, a, b);
and g2 (y, t1, c);
or  g3 (t2, b, c);
buf g4 (z, t2);
endmodule
EOF
  cat > "$tmp/faulty.v" <<'EOF'
module f (a, b, c, t1, t2, y, z);
input a, b, c, t1, t2;
output y, z;
and g2 (y, t1, c);
buf g4 (z, t2);
endmodule
EOF

  run_patch() {
    set +e
    target/release/eco-patch -f "$tmp/faulty.v" -g "$tmp/golden.v" -t t1,t2 "$@" \
      -o "$tmp/patch.v" 2> "$tmp/stderr.txt"
    rc=$?
    set -e
  }

  # Zero deadline plus a one-conflict allowance: every cluster must be
  # diagnosed, the run must exit 4, and no netlist appears without
  # --allow-partial.
  rm -f "$tmp/patch.v"
  run_patch --timeout 0 --conflict-budget 1 --stats=json
  [ "$rc" -eq 4 ] || { echo "degrade smoke: expected exit 4, got $rc"; cat "$tmp/stderr.txt"; exit 1; }
  grep -q 'PARTIAL result:' "$tmp/stderr.txt" || { echo "degrade smoke: no partial report"; cat "$tmp/stderr.txt"; exit 1; }
  grep -q '"governor"' "$tmp/stderr.txt" || { echo "degrade smoke: no governor stats object"; cat "$tmp/stderr.txt"; exit 1; }
  for key in clusters_patched clusters_budget_exhausted clusters_deadline clusters_panicked escalations; do
    grep -q "\"$key\"" "$tmp/stderr.txt" || { echo "degrade smoke: missing governor counter $key"; cat "$tmp/stderr.txt"; exit 1; }
  done
  grep -q '"clusters_panicked": 0' "$tmp/stderr.txt" || { echo "degrade smoke: clusters panicked"; cat "$tmp/stderr.txt"; exit 1; }
  [ ! -e "$tmp/patch.v" ] || { echo "degrade smoke: netlist written without --allow-partial"; exit 1; }

  # With --allow-partial the completed (possibly empty) patch netlist is
  # written and must still re-parse.
  run_patch --timeout 0 --conflict-budget 1 --allow-partial
  [ "$rc" -eq 4 ] || { echo "degrade smoke: expected exit 4, got $rc"; cat "$tmp/stderr.txt"; exit 1; }
  [ -s "$tmp/patch.v" ] || { echo "degrade smoke: --allow-partial wrote no netlist"; exit 1; }
  grep -q 'module patch' "$tmp/patch.v" || { echo "degrade smoke: malformed partial netlist"; cat "$tmp/patch.v"; exit 1; }

  # The same workload without a budget must still complete with exit 0.
  run_patch -q
  [ "$rc" -eq 0 ] || { echo "degrade smoke: ungoverned run failed ($rc)"; cat "$tmp/stderr.txt"; exit 1; }
fi

if [ "$batch_smoke" -eq 1 ]; then
  echo "== batch smoke: 12-job manifest, cold + warm over one shared memo cache"
  btmp="$gtmp/batch"
  mkdir "$btmp"
  target/release/eco-workgen --suite --count 12 --out "$btmp" --manifest "$btmp/manifest.toml" -q

  run_batch() {
    set +e
    target/release/eco-batch run "$btmp/manifest.toml" "$@" 2> "$btmp/stderr.txt"
    rc=$?
    set -e
  }

  # Cold then warm in one process (--repeat 2): every job must be proven
  # equivalent in both passes, and each warm job must hit the result its
  # cold twin stored.
  run_batch --jobs 4 --repeat 2 --report "$btmp/report.jsonl" --stats=json -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: expected exit 0, got $rc"; cat "$btmp/stderr.txt"; exit 1; }
  complete=$(grep -c '"status": "complete"' "$btmp/report.jsonl" || true)
  [ "$complete" -eq 24 ] || { echo "batch smoke: expected 24 complete records, got $complete"; cat "$btmp/report.jsonl"; exit 1; }
  ! grep -q '"verified": false' "$btmp/report.jsonl" || { echo "batch smoke: unverified job in report"; cat "$btmp/report.jsonl"; exit 1; }
  memo=$(sed -n 's/.*"memo": \({[^}]*}\).*/\1/p' "$btmp/stderr.txt")
  [[ "$memo" == '{"hits": 12, "misses": 12, '*'"entries": 12}' ]] \
    || { echo "batch smoke: expected memo hits 12, misses 12, entries 12"; cat "$btmp/stderr.txt"; exit 1; }
  walls=$(sed -n 's/.*"pass_wall_s": \[\([0-9.]*\), \([0-9.]*\)\].*/\1 \2/p' "$btmp/stderr.txt")
  cold_ns=$(echo "$walls" | awk 'NF == 2 {printf "%.0f", $1 * 1e9}')
  warm_ns=$(echo "$walls" | awk 'NF == 2 {printf "%.0f", $2 * 1e9}')
  [ -n "$cold_ns" ] && [ -n "$warm_ns" ] || { echo "batch smoke: could not parse pass wall times"; cat "$btmp/stderr.txt"; exit 1; }

  # The JSONL report must be byte-identical for any --jobs value.
  run_batch --jobs 1 --report "$btmp/report_j1.jsonl" -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: --jobs 1 run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  run_batch --jobs 4 --report "$btmp/report_j4.jsonl" -q
  [ "$rc" -eq 0 ] || { echo "batch smoke: --jobs 4 run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
  cmp -s "$btmp/report_j1.jsonl" "$btmp/report_j4.jsonl" \
    || { echo "batch smoke: JSONL differs between --jobs 1 and --jobs 4"; diff "$btmp/report_j1.jsonl" "$btmp/report_j4.jsonl" || true; exit 1; }

  # Journaled, then resumed from the complete journal: same report bytes,
  # every job replayed, no persistence error.
  for leg in journal resume; do
    extra=()
    [ "$leg" = resume ] && extra=(--resume)
    run_batch --jobs 4 --journal "$btmp/state" "${extra[@]}" \
      --report "$btmp/report_$leg.jsonl" --stats=json -q
    [ "$rc" -eq 0 ] || { echo "batch smoke: --$leg run failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
    cmp -s "$btmp/report_j4.jsonl" "$btmp/report_$leg.jsonl" \
      || { echo "batch smoke: --$leg report differs from the unjournaled run"; diff "$btmp/report_j4.jsonl" "$btmp/report_$leg.jsonl" || true; exit 1; }
    grep -q '"persist_errors": 0,' "$btmp/stderr.txt" \
      || { echo "batch smoke: --$leg run counted persistence errors"; cat "$btmp/stderr.txt"; exit 1; }
  done
  grep -q '"reused": 12,' "$btmp/stderr.txt" \
    || { echo "batch smoke: --resume did not replay all 12 jobs"; cat "$btmp/stderr.txt"; exit 1; }

  # A kill mid-append: cut batch.wal inside its last frame (a done
  # record), then resume twice. Both reports keep the same bytes; the
  # first resume counts the torn frame and recomputes its job, and since
  # opening the journal cut the tear off, the second replays all 12.
  wal="$btmp/state/batch.wal"
  truncate -s $(($(wc -c < "$wal") - 10)) "$wal"
  for leg in torn1 torn2; do
    run_batch --jobs 4 --journal "$btmp/state" --resume \
      --report "$btmp/report_$leg.jsonl" --stats=json -q
    [ "$rc" -eq 0 ] || { echo "batch smoke: $leg resume failed ($rc)"; cat "$btmp/stderr.txt"; exit 1; }
    cmp -s "$btmp/report_j4.jsonl" "$btmp/report_$leg.jsonl" \
      || { echo "batch smoke: $leg resume report differs from the unjournaled run"; diff "$btmp/report_j4.jsonl" "$btmp/report_$leg.jsonl" || true; exit 1; }
    if [ "$leg" = torn1 ]; then
      grep -q '"persist_errors": 1,' "$btmp/stderr.txt" \
        || { echo "batch smoke: the torn frame was not counted once"; cat "$btmp/stderr.txt"; exit 1; }
    else
      grep -q '"reused": 12,' "$btmp/stderr.txt" && grep -q '"persist_errors": 0,' "$btmp/stderr.txt" \
        || { echo "batch smoke: the resume after a torn one did not replay all 12 cleanly"; cat "$btmp/stderr.txt"; exit 1; }
    fi
  done

  echo "batch smoke: cold ${cold_ns}ns, warm ${warm_ns}ns, memo $memo"
fi

if [ "$serve_smoke" -eq 1 ]; then
  echo "== serve smoke: daemon cold+warm 12-job replay, worker-count determinism, drain"
  svtmp="$gtmp/serve"
  mkdir "$svtmp"
  serve_pids=""
  serve_cleanup() {
    # shellcheck disable=SC2086
    [ -n "$serve_pids" ] && kill $serve_pids 2> /dev/null || true
    rm -rf "$gtmp"
  }
  trap serve_cleanup EXIT
  target/release/eco-workgen --suite --count 12 --out "$svtmp/cases" \
    --manifest "$svtmp/manifest.toml" --requests "$svtmp/requests.jsonl" -q

  wait_sock() { # <path>
    for _ in $(seq 1 100); do
      [ -S "$1" ] && return 0
      sleep 0.1
    done
    echo "serve smoke: daemon socket $1 never appeared"
    exit 1
  }
  run_replay() { # <socket> <out> <timing> [extra client flags...]
    sock="$1" out="$2" timing="$3"
    shift 3
    set +e
    target/release/eco-serve client --socket "$sock" \
      --input "$svtmp/requests.jsonl" --timing "$@" \
      > "$out" 2> "$timing"
    rc=$?
    set -e
  }

  # Daemon A (4 workers): cold replay, warm replay, stats, protocol drain.
  target/release/eco-serve --socket "$svtmp/a.sock" --jobs 4 --stats \
    2> "$svtmp/a_stats.json" &
  pid_a=$!
  serve_pids="$pid_a"
  wait_sock "$svtmp/a.sock"

  run_replay "$svtmp/a.sock" "$svtmp/cold.out" "$svtmp/cold_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: cold replay failed ($rc)"; cat "$svtmp/cold_timing.json"; exit 1; }
  run_replay "$svtmp/a.sock" "$svtmp/warm.out" "$svtmp/warm_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: warm replay failed ($rc)"; cat "$svtmp/warm_timing.json"; exit 1; }

  # Warm responses must be byte-identical to cold, all complete+verified.
  cmp -s "$svtmp/cold.out" "$svtmp/warm.out" \
    || { echo "serve smoke: warm responses differ from cold"; diff "$svtmp/cold.out" "$svtmp/warm.out" || true; exit 1; }
  complete=$(grep -c '"status": "complete"' "$svtmp/cold.out" || true)
  [ "$complete" -eq 12 ] || { echo "serve smoke: expected 12 complete responses, got $complete"; cat "$svtmp/cold.out"; exit 1; }
  ! grep -q '"verified": false' "$svtmp/cold.out" \
    || { echo "serve smoke: unverified response"; cat "$svtmp/cold.out"; exit 1; }

  # Each warm request must have hit the result its cold twin stored in
  # the daemon's process-lifetime cache: the 12 units are structurally
  # distinct and the replays run one after another.
  printf '{"op": "stats", "id": "smoke"}\n' \
    | target/release/eco-serve client --socket "$svtmp/a.sock" > "$svtmp/stats.out"
  grep -q '"memo": {"hits": 12, "misses": 12,' "$svtmp/stats.out" \
    || { echo "serve smoke: expected memo hits 12, misses 12"; cat "$svtmp/stats.out"; exit 1; }
  # The live stats carry the fault counters of the exit summary.
  for key in worker_restarts persist_errors; do
    grep -q "\"$key\": 0," "$svtmp/stats.out" \
      || { echo "serve smoke: live stats report nonzero or missing $key"; cat "$svtmp/stats.out"; exit 1; }
  done

  # Warm stream wall time must be under 10% of cold.
  cold_s=$(sed -n 's/.*"wall_s": \([0-9.]*\).*/\1/p' "$svtmp/cold_timing.json")
  warm_s=$(sed -n 's/.*"wall_s": \([0-9.]*\).*/\1/p' "$svtmp/warm_timing.json")
  [ -n "$cold_s" ] && [ -n "$warm_s" ] \
    || { echo "serve smoke: could not parse client wall times"; cat "$svtmp/cold_timing.json" "$svtmp/warm_timing.json"; exit 1; }
  awk -v c="$cold_s" -v w="$warm_s" 'BEGIN { exit !(w < c * 0.10) }' \
    || { echo "serve smoke: warm stream not <10% of cold (cold ${cold_s}s, warm ${warm_s}s)"; exit 1; }

  # Graceful drain via a protocol shutdown request: acknowledged,
  # exit 0, socket file removed, stats summary on stderr.
  target/release/eco-serve client --socket "$svtmp/a.sock" --shutdown \
    < /dev/null > "$svtmp/shutdown.out"
  grep -q '"draining": true' "$svtmp/shutdown.out" \
    || { echo "serve smoke: shutdown not acknowledged"; cat "$svtmp/shutdown.out"; exit 1; }
  set +e
  wait "$pid_a"
  rc=$?
  set -e
  serve_pids=""
  [ "$rc" -eq 0 ] || { echo "serve smoke: daemon A exited $rc after shutdown"; cat "$svtmp/a_stats.json"; exit 1; }
  [ ! -e "$svtmp/a.sock" ] || { echo "serve smoke: socket file not removed on drain"; exit 1; }
  grep -q '"served": 24' "$svtmp/a_stats.json" \
    || { echo "serve smoke: daemon A summary missing 24 served jobs"; cat "$svtmp/a_stats.json"; exit 1; }

  # Daemon B (1 worker): responses must be byte-identical to daemon A's,
  # and a SIGTERM must drain it cleanly too.
  target/release/eco-serve --socket "$svtmp/b.sock" --jobs 1 --stats \
    2> "$svtmp/b_stats.json" &
  pid_b=$!
  serve_pids="$pid_b"
  wait_sock "$svtmp/b.sock"
  run_replay "$svtmp/b.sock" "$svtmp/b.out" "$svtmp/b_timing.json"
  [ "$rc" -eq 0 ] || { echo "serve smoke: --jobs 1 replay failed ($rc)"; cat "$svtmp/b_timing.json"; exit 1; }
  cmp -s "$svtmp/cold.out" "$svtmp/b.out" \
    || { echo "serve smoke: responses differ between --jobs 4 and --jobs 1"; diff "$svtmp/cold.out" "$svtmp/b.out" || true; exit 1; }
  kill -TERM "$pid_b"
  set +e
  wait "$pid_b"
  rc=$?
  set -e
  serve_pids=""
  [ "$rc" -eq 0 ] || { echo "serve smoke: daemon B exited $rc after SIGTERM"; cat "$svtmp/b_stats.json"; exit 1; }
  [ ! -e "$svtmp/b.sock" ] || { echo "serve smoke: socket file not removed after SIGTERM"; exit 1; }
  grep -q '"served": 12' "$svtmp/b_stats.json" \
    || { echo "serve smoke: daemon B summary missing 12 served jobs"; cat "$svtmp/b_stats.json"; exit 1; }

  # Report cold-vs-warm throughput and round-trip latency percentiles.
  field() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"; }
  for pass in cold warm; do
    t="$svtmp/${pass}_timing.json"
    echo "serve smoke: $pass stream $(field "$t" wall_s)s, $(field "$t" rps) rps, p50 $(field "$t" p50_us)us, p99 $(field "$t" p99_us)us"
  done
  echo "serve smoke: 12 cache hits"
fi

echo "all checks passed"
