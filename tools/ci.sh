#!/usr/bin/env bash
# Tier-1 gate plus the kernel/obs smoke checks, the warning-free build
# gate, and the sanitizer passes.
#
#   tools/ci.sh            # plain build + full ctest, then ASan+UBSan build
#                          # + full ctest under sanitizers, then TSan build
#                          # + full ctest with 4 worker threads
#   tools/ci.sh --fast     # ASan+UBSan pass runs only the resilience,
#                          # parser, storage, CRC, LP-solver, case-set,
#                          # two-level minimizer (with its minterm
#                          # oracle), fault-simulator, extraction,
#                          # campaign, end-to-end, cover-kernel and
#                          # Algorithm 1 suites (the crash-prone surface:
#                          # budget valves, malformed input,
#                          # corrupt-artifact fault injection, the
#                          # slice-by-8 CRC's table lookups, the sparse
#                          # simplex's pointer arithmetic, the case set's
#                          # open-addressing index, the truth-table words
#                          # the minimizer indexes from cube masks, the
#                          # pointers the faulty-row memo hands out, the
#                          # protected machine's batched checker rows
#                          # behind every sequential proof, and the
#                          # kernel columns every engine pass finds
#                          # through the stride that append re-lays out);
#                          # TSan pass runs only the concurrency-bearing
#                          # suites (parallel extraction, the case set's
#                          # parallel compaction and sort, which also run
#                          # inside the extraction shards, extraction,
#                          # the fault simulator, pipeline, resume, and
#                          # the warm-started LP under a 4-thread solver)
#
# Run from anywhere; paths resolve relative to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== tier-1: plain build + tests =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

echo "== results ledger: every Table-1 circuit reproduces bench/ledger.txt =="
# Tier-1 checks the small suite; this checks all 16 circuits, both EC
# semantics, p=1..3: case counts, case-list digests, q, parity masks,
# whether the exhaustive campaign proves the bound on the synthesized
# checker (bound=holds|violated), that checker's cost and netlist digest,
# the q values Algorithm 1 probed, the table's path and loop-truncation
# counts (the DFS order and pruning), and the simplex pivots each link's
# Algorithm 1 spent (its whole LP path). The tool pins its own thread count (4):
# no-store extraction strengthens degraded tables by a
# thread-count-dependent amount.
./build/bench/bench_ledger --check=bench/ledger.txt

echo "== one solve path: a single-latency protect is the ledger's chain link; unknown flags, names and malformed numbers exit 2 =="
# `ced_cli protect --latency=p` answers with link p of the ascending solve
# chain 1..p, which is what the ledger's 1..3 sweep pins at p. s1488
# machine-level p=3 needs the links below it: solved alone, its
# strengthened table takes 12 trees; the chain keeps p=2's 8. A misspelled
# shape value is invalid input (exit 2), not the default.
obs_tmp=$(mktemp -d)
serve_pid=""
trap '[[ -n "$serve_pid" ]] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$obs_tmp"' EXIT
./build/tools/ced_cli generate --suite=s1488 > "$obs_tmp/s1488.kiss"
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=3 \
    --semantics=machine --threads=4 > "$obs_tmp/chain.out"
want=$(sed -n 's/^s1488 machine p=3 .* \(q=[0-9]* masks=[0-9a-f,]*\) .*/\1/p' \
    bench/ledger.txt)
got="q=$(sed -n 's/.*-> q=\([0-9]*\) parity trees$/\1/p' "$obs_tmp/chain.out")"
got+=" masks=$(sed -n 's/^  tree [0-9]*: mask 0x//p' "$obs_tmp/chain.out" | paste -sd,)"
[[ -n "$want" && "$got" == "$want" ]] \
  || { echo "protect s1488 machine p=3 gave '$got'; the ledger pins '$want'"; exit 1; }
# expect_invalid WHAT ARGS...: `ced_cli ARGS` exits 2 and names WHAT.
expect_invalid() {
  local what=$1 status=0
  shift
  ./build/tools/ced_cli "$@" > /dev/null 2> "$obs_tmp/flag.err" || status=$?
  [[ "$status" == 2 ]] && grep -qF -- "$what" "$obs_tmp/flag.err" \
    || { echo "ced_cli $* exited $status, not 2 naming $what"; exit 1; }
}
expect_invalid "--solver must be lp|greedy" \
    protect "$obs_tmp/s1488.kiss" --solver=exat
# The exact branch-and-bound is a test oracle, not a solver a run can ask
# for.
expect_invalid "--solver must be lp|greedy" \
    protect "$obs_tmp/s1488.kiss" --solver=exact
# A misspelled campaign model is refused, not run as a stuck-at campaign,
# and so is the retired multi-bit model (now --model=transient --k=N).
expect_invalid "--model must be stuck|transient" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --model=transeint
expect_invalid "--model must be stuck|transient, got 'adversarial'" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --model=adversarial
# The model picks the engine, so there is no policy to pick or sweep, and
# a campaign refuses the flags its model's engine does not read: the walk
# flags on a stuck-at proof, a walk length anywhere (an upset walk ends at
# detection, reconvergence or the horizon), the solver's budget caps
# anywhere.
expect_invalid "unknown flag '--policy=walks' for campaign" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --policy=walks
expect_invalid "unknown flag '--soak' for campaign" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --soak
expect_invalid "unknown flag '--walks=8' for campaign --model=stuck" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --walks=8
expect_invalid "unknown flag '--walk-length=512' for campaign --model=transient" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --model=transient \
    --walk-length=512
expect_invalid "unknown flag '--max-cases=1' for campaign" \
    campaign "$obs_tmp/s1488.kiss" --store="$obs_tmp/none" --max-cases=1
[[ ! -e "$obs_tmp/none" ]] \
  || { echo "a refused campaign created its store"; exit 1; }
# A number parses whole: 1e6 cases is not read as a 1-case cap, and an
# int cap past INT_MAX is refused, not wrapped to a 1-pivot cap.
expect_invalid "--max-cases must be a number" \
    protect "$obs_tmp/s1488.kiss" --max-cases=1e6
expect_invalid "--max-lp-iters is out of range" \
    protect "$obs_tmp/s1488.kiss" --max-lp-iters=4294967297
# A flag the command does not read is invalid input too, not a silently
# ignored one: a misspelled --threads must not fall back to the default.
expect_invalid "unknown flag '--thread=1' for protect" \
    protect "$obs_tmp/s1488.kiss" --thread=1
# The daemon and its client read flags the same way, and refuse a bad one
# before binding a socket, starting a thread or creating the store.
# expect_refused PROGRAM WHAT ARGS...: `PROGRAM ARGS` exits 2 naming WHAT
# and never prints READY; the timeout keeps a regression from leaving a
# daemon running.
expect_refused() {
  local prog=$1 what=$2 status=0
  shift 2
  timeout 10 "./build/tools/$prog" "$@" > "$obs_tmp/flag.out" \
      2> "$obs_tmp/flag.err" || status=$?
  [[ "$status" == 2 ]] && grep -qF -- "$what" "$obs_tmp/flag.err" \
    && ! grep -q '^READY' "$obs_tmp/flag.out" \
    || { echo "$prog $* exited $status, not 2 naming $what"; exit 1; }
}
expect_refused ced_serve "unknown flag '--store-dir=$obs_tmp/d' for ced_serve" \
    --socket="$obs_tmp/refused.sock" --store-dir="$obs_tmp/d"
expect_refused ced_serve "--workers must be a number" \
    --socket="$obs_tmp/refused.sock" --workers=3x --store="$obs_tmp/d"
expect_refused ced_serve "--tcp-port must be a number" --tcp-port=abc
[[ ! -e "$obs_tmp/d" && ! -e "$obs_tmp/refused.sock" ]] \
  || { echo "a refused ced_serve created its store or socket"; exit 1; }
expect_refused ced_client "unknown flag '--retry=1' for ced_client health" \
    health --socket="$obs_tmp/refused.sock" --retry=1
expect_refused ced_client "--retries must be a number" \
    health --socket="$obs_tmp/refused.sock" --retries=x
expect_refused ced_client "--latency must be a number" \
    protect "$obs_tmp/s1488.kiss" --socket="$obs_tmp/refused.sock" --latency=2x
status=0
./build/bench/bench_perf --kernel-smoke --circuit=s1488 \
    > /dev/null 2>&1 || status=$?
[[ "$status" == 2 ]] \
  || { echo "an unknown bench_perf flag exited $status, not 2"; exit 1; }
for harness in bench_saturation bench_area_aware bench_convolutional \
    bench_solver_quality; do
  status=0
  "./build/bench/$harness" --circuit=s27 --quick > /dev/null 2>&1 \
    || status=$?
  [[ "$status" == 2 ]] \
    || { echo "an unknown $harness flag exited $status, not 2"; exit 1; }
done

echo "== kernel backends: dispatched SIMD vs word loop on s1488 =="
# The vector engine must be a pure speedup: the backend this host
# dispatches to (AVX2/NEON, printed) and the plain word loop forced by
# ScopedSimdLevel(kNone) must select byte-identical parities on the
# paper's largest instance at p=2, at threads 1 AND 4 (exit 1 otherwise).
# Tier-1 checks every kernel query and the solvers against the per-case
# core::covers oracle, and the revised LP against lp::solve_dense (the
# test-only ced_oracles library).
./build/bench/bench_perf --kernel-smoke --circuits=s1488

echo "== obs smoke: exporters parse, q unaffected =="
# Observability must be write-only: run s1488 p=2 with and without the
# collectors, assert the JSON exports parse and carry real data, and that
# the printed parities are identical (the exports add information, never
# perturb the answer).
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=2 --threads=4 \
    > "$obs_tmp/plain.out"
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=2 --threads=4 \
    --metrics-out="$obs_tmp/m.json" --trace-out="$obs_tmp/t.json" \
    --prom-out="$obs_tmp/p.prom" > "$obs_tmp/obs.out"
python3 - "$obs_tmp" <<'PYEOF'
import json, sys
d = sys.argv[1]
m = json.load(open(d + "/m.json"))
t = json.load(open(d + "/t.json"))
assert m["counters"].get("ced_extract_cases_total", 0) > 0, \
    "metrics JSON parsed but carries no extraction counters"
# Without a store, extraction is the shard engine at one shard per thread.
assert m["counters"].get("ced_extract_shards_computed_total") == 4, \
    "the --threads=4 no-store run did not extract on 4 shards"
# Faulty rows equal to the golden row are never built, and each (fault,
# pair) is classified once; both counters must report that work.
assert m["counters"].get("ced_sim_dormant_rows_total", 0) > 0, \
    "no dormant faulty row was counted"
assert m["counters"].get("ced_extract_classifications_total", 0) > 0, \
    "no step classification was counted"
assert any(s["name"] == "pipeline" for s in t["spans"]), \
    "trace JSON parsed but has no pipeline root span"
assert any(l.startswith("# TYPE") for l in open(d + "/p.prom")), \
    "Prometheus exposition has no TYPE lines"
PYEOF
grep -E 'q=|mask' "$obs_tmp/plain.out" > "$obs_tmp/plain.q"
grep -E 'q=|mask' "$obs_tmp/obs.out" > "$obs_tmp/obs.q"
diff -u "$obs_tmp/plain.q" "$obs_tmp/obs.q" \
  || { echo "obs run changed q/parities"; exit 1; }

echo "== serve smoke: cold/warm protect, metrics endpoint, drain =="
# The daemon must agree with the CLI (same q and parities for the same
# machine), serve the repeat request from the store, expose Prometheus
# metrics over HTTP, exit 0 on a SIGTERM drain, and leave a scheme that
# `ced_cli verify` finds and proves.
./build/tools/ced_cli generate --states=16 --inputs=3 --outputs=2 --seed=11 \
    > "$obs_tmp/serve.kiss"
./build/tools/ced_serve --tcp-port=0 --metrics-port=0 \
    --store="$obs_tmp/serve-store" > "$obs_tmp/serve.ready" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q '^READY' "$obs_tmp/serve.ready" 2>/dev/null && break
  sleep 0.05
done
sport=$(sed -n 's/^READY tcp=\([0-9]*\).*/\1/p' "$obs_tmp/serve.ready")
mport=$(sed -n 's/^READY.*metrics=\([0-9]*\).*/\1/p' "$obs_tmp/serve.ready")
[[ -n "$sport" && -n "$mport" ]] || { echo "ced_serve never became ready"; exit 1; }
./build/tools/ced_client protect "$obs_tmp/serve.kiss" --tcp-port="$sport" \
    --latency=3 > "$obs_tmp/serve-cold.out"
./build/tools/ced_client protect "$obs_tmp/serve.kiss" --tcp-port="$sport" \
    --latency=3 > "$obs_tmp/serve-warm.out"
grep -q '\[cached\]' "$obs_tmp/serve-warm.out" \
  || { echo "repeat protect was not served from the store"; exit 1; }
./build/tools/ced_cli protect "$obs_tmp/serve.kiss" --latency=3 \
    > "$obs_tmp/serve-direct.out"
for f in serve-cold serve-warm serve-direct; do
  grep -E 'q=|mask' "$obs_tmp/$f.out" | sed 's/ \[[a-z]*\]//g' \
      > "$obs_tmp/$f.q"
done
diff -u "$obs_tmp/serve-direct.q" "$obs_tmp/serve-cold.q" \
  || { echo "daemon q/parities diverge from ced_cli"; exit 1; }
diff -u "$obs_tmp/serve-cold.q" "$obs_tmp/serve-warm.q" \
  || { echo "warm answer diverges from cold"; exit 1; }
python3 - "$mport" <<'PYEOF'
import sys, urllib.request
url = "http://127.0.0.1:%s/metrics" % sys.argv[1]
text = urllib.request.urlopen(url, timeout=5).read().decode()
def counter(name):
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError("metric %s missing from scrape" % name)
assert counter("ced_serve_cold_misses_total") == 1, "expected exactly 1 cold miss"
assert counter("ced_serve_warm_hits_total") == 1, "expected exactly 1 warm hit"
assert any(l.startswith("# TYPE") for l in text.splitlines()), "no TYPE lines"
print("metrics scrape: 1 cold miss, 1 warm hit")
PYEOF
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "SIGTERM drain exited nonzero"; exit 1; }
serve_pid=""
# Cross-binary key check: the CLI must find and prove the scheme the
# daemon filed. Both key stored schemes through one storage API, so the
# two binaries cannot drift on the key.
./build/tools/ced_cli verify "$obs_tmp/serve.kiss" --latency=3 \
    --store="$obs_tmp/serve-store" > "$obs_tmp/serve-verify.out" \
  || { echo "ced_cli verify rejected the daemon's stored scheme"; exit 1; }

echo "== campaign smoke: empirical bounded-latency gate, upset walks =="
# Protect a small Table-1 circuit, then *prove the bound empirically*: the
# exhaustive campaign drives every persistent stuck-at fault over every
# bounded input path and must classify zero episodes detected_late or
# silent_escape, and its fault-free sweep must see zero false alarms;
# `ced_cli verify` runs the same proof and must exit 0. The verdict
# artifact must be byte-identical at 1, 3 and 4 threads (at 3, workers
# claim units across shard boundaries unevenly), and a campaign
# interrupted by the deterministic shard valve (the reproducible analogue
# of the kill -9 chaos_serve.sh throws at the daemon) must resume from its
# checkpoints to the same bytes.
./build/tools/ced_cli generate --suite=dk16 > "$obs_tmp/dk16.kiss"
for t in 1 3 4; do
  ./build/tools/ced_cli protect "$obs_tmp/dk16.kiss" --latency=2 \
      --store="$obs_tmp/camp-$t" > /dev/null
  ./build/tools/ced_cli campaign "$obs_tmp/dk16.kiss" --latency=2 \
      --store="$obs_tmp/camp-$t" --threads="$t" \
      --json-out="$obs_tmp/camp-$t.json" > "$obs_tmp/camp-$t.out"
done
python3 - "$obs_tmp/camp-1.json" <<'PYEOF'
import json, sys
c = json.load(open(sys.argv[1]))["campaigns"][0]
assert c["model"] == "stuck-at" and c["policy"] == "exhaustive", c
assert c["hard_guarantee"] and not c["truncated"], c
assert c["detected_late"] == 0, "detected_late episodes: %d" % c["detected_late"]
assert c["silent_escape"] == 0, "silent escapes: %d" % c["silent_escape"]
assert c["false_alarms"] == 0, "false alarms: %d" % c["false_alarms"]
assert c["activations"] > 0 and c["max_latency"] <= c["latency_bound"], c
print("campaign gate: %d units, %d activations, max latency %d <= p=%d"
      % (c["units_judged"], c["activations"], c["max_latency"],
         c["latency_bound"]))
PYEOF
for t in 3 4; do
  cmp "$obs_tmp"/camp-1/camp-*.ced "$obs_tmp"/camp-$t/camp-*.ced \
    || { echo "campaign verdicts differ at $t threads"; exit 1; }
done
# The JSON is written only where --json-out says: a campaign run without it
# leaves its working directory as it found it (run from the repo root, it
# must not overwrite the BENCH_campaign.json verdict pin).
mkdir "$obs_tmp/camp-cwd"
(cd "$obs_tmp/camp-cwd" && "$OLDPWD/build/tools/ced_cli" campaign \
    ../dk16.kiss --latency=2 --store=../camp-1 > /dev/null)
[[ -z "$(ls -A "$obs_tmp/camp-cwd")" ]] \
  || { echo "a campaign without --json-out wrote: $(ls -A "$obs_tmp/camp-cwd")"; exit 1; }
./build/tools/ced_cli verify "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-1" > "$obs_tmp/verify.out" \
  || { echo "ced_cli verify rejected the stored dk16 scheme"; exit 1; }
./build/tools/ced_cli protect "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-r" > /dev/null
if ./build/tools/ced_cli campaign "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-r" --max-new-shards=2 \
    --json-out="$obs_tmp/camp-trunc.json" > "$obs_tmp/camp-trunc.out"; then
  echo "interrupted campaign did not report truncation"; exit 1
fi
./build/tools/ced_cli campaign "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-r" --resume \
    --json-out="$obs_tmp/camp-resume.json" > "$obs_tmp/camp-resume.out"
cmp "$obs_tmp"/camp-r/camp-*.ced "$obs_tmp"/camp-1/camp-*.ced \
  || { echo "resumed campaign verdicts diverge from the clean run"; exit 1; }
# The upset engine, in stores of its own: single-bit and up-to-two-bit
# state upsets judged by the seeded walks. Their coverage is measured, not
# asserted, so the verdicts are pinned (the walks' RNG contract and episode
# taxonomy must not move), and each artifact must be byte-identical at 1
# vs 4 threads.
for t in 1 4; do
  ./build/tools/ced_cli protect "$obs_tmp/dk16.kiss" --latency=2 \
      --store="$obs_tmp/upset-$t" > /dev/null
  for k in 1 2; do
    ./build/tools/ced_cli campaign "$obs_tmp/dk16.kiss" --latency=2 \
        --store="$obs_tmp/upset-$t" --model=transient --k="$k" \
        --threads="$t" --json-out="$obs_tmp/upset-k$k-$t.json" > /dev/null
  done
done
upset_reports=("$obs_tmp"/upset-1/camp-*.ced)
[[ ${#upset_reports[@]} == 2 ]] \
  || { echo "expected 2 upset reports, found ${#upset_reports[@]}"; exit 1; }
for f in "${upset_reports[@]}"; do
  cmp "$f" "$obs_tmp/upset-4/${f##*/}" \
    || { echo "upset verdicts differ across thread counts"; exit 1; }
done
python3 - "$obs_tmp" <<'PYEOF'
import json, sys
d = sys.argv[1]
# k: (units, activations, in bound, silent escapes)
want = {1: (5, 1058, 120, 938), 2: (15, 3212, 456, 2756)}
for k, w in want.items():
    c = json.load(open("%s/upset-k%d-1.json" % (d, k)))["campaigns"][0]
    assert c["model"] == "transient-flip" and c["policy"] == "walks", c
    assert not c["hard_guarantee"] and not c["truncated"], c
    got = (c["units_judged"], c["activations"], c["detected_in_bound"],
           c["silent_escape"])
    assert got == w and c["detected_late"] == 0, \
        "dk16 p=2 k=%d upsets moved: %r, pinned %r" % (k, got, w)
    print("upset gate k=%d: %d units, %d activations, %d in bound, %d silent"
          % ((k,) + got))
PYEOF

echo "== campaign verdict pin: s1488 p=2 reproduces BENCH_campaign.json =="
# The dk16 gate compares verdicts across thread counts and resumes, and the
# ledger keeps only bound=holds|violated, so a change that moved the
# paper's largest campaign without breaking the bound would pass both.
# Here every verdict field of the exhaustive s1488 p=2 campaign (units,
# episode counts, false alarms, max latency, the latency histogram) must
# equal the committed file, and the faulty rows' checker verdicts must
# have come from the checker's response cone.
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=2 --threads=4 \
    --store="$obs_tmp/camp-s1488" > /dev/null
./build/tools/ced_cli campaign "$obs_tmp/s1488.kiss" --latency=2 \
    --store="$obs_tmp/camp-s1488" --threads=4 \
    --metrics-out="$obs_tmp/camp-s1488-m.json" \
    --json-out="$obs_tmp/camp-s1488.json" > /dev/null
python3 - "$obs_tmp" <<'PYEOF'
import json, sys
d = sys.argv[1]
got = json.load(open(d + "/camp-s1488.json"))["campaigns"][0]
want = json.load(open("BENCH_campaign.json"))["campaigns"][0]
fields = ["num_units", "units_judged", "activations", "detected_in_bound",
          "detected_late", "silent_escape", "benign_units", "false_alarms",
          "max_latency", "histogram"]
moved = {f: (got[f], want[f]) for f in fields if got[f] != want[f]}
assert not moved, "s1488 p=2 campaign moved (got, committed): %r" % moved
m = json.load(open(d + "/camp-s1488-m.json"))
cone = m["counters"].get("ced_sim_checker_cone_batches_total", 0)
assert cone > 0, "no faulty-row checker batch ran on the response cone"
print("campaign pin: %d units, %d activations, histogram %s, %d cone batches"
      % (got["num_units"], got["activations"], got["histogram"], cone))
PYEOF

echo "== extraction resume gate: interrupted + resumed tables match a clean run =="
# Stopped by the shard quota after 3 of 16 shards, s1488 p=3 must report
# truncation; --resume must load those 3 checkpoints (not quarantine and
# recompute them) and file the tables of an uninterrupted run.
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=3 --threads=4 \
    --store="$obs_tmp/tab-clean" > /dev/null
if ./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=3 \
    --threads=4 --store="$obs_tmp/tab-r" --max-new-shards=3 \
    > /dev/null 2>&1; then
  echo "interrupted extraction did not report truncation"; exit 1
fi
./build/tools/ced_cli protect "$obs_tmp/s1488.kiss" --latency=3 --threads=4 \
    --store="$obs_tmp/tab-r" --resume \
    --metrics-out="$obs_tmp/tab-resume.json" > /dev/null
grep -Eq '"ced_extract_shards_resumed_total": *3([^0-9]|$)' "$obs_tmp/tab-resume.json" \
  || { echo "the resumed extraction did not load its 3 checkpoints"; exit 1; }
cmp "$obs_tmp"/tab-r/tab-*.ced "$obs_tmp"/tab-clean/tab-*.ced \
  || { echo "resumed extraction tables diverge from the clean run"; exit 1; }

echo "== warning gate: the tree builds with zero warnings =="
# Every target builds under the project's -Wall -Wextra with warnings
# promoted to errors. This also keeps deprecated-declarations fatal, so any
# future [[deprecated]] transition window starts from a tree with zero
# callers.
cmake -B build-deprec -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Werror" >/dev/null
cmake --build build-deprec -j "$jobs"

echo "== one build of the library: nothing under src/ reads NDEBUG =="
# Reference oracles live in tests (tests/oracle), not behind build-mode
# switches, so every build type runs the same library code.
if grep -rn NDEBUG src; then
  echo "src/ names NDEBUG: move the check into a test"; exit 1
fi

echo "== benchmark: perfbench builds against the library and runs =="
# perfbench compiles the library from src/ (add_subdirectory) and passes
# its option types, so a change to the library's surface can break it
# without breaking anything above. Build it as run.py does (Release, in a
# scratch CARGO_TARGET_DIR), run its own tests, and smoke-run every
# workload: each result line must report correct and zero failures.
# perfbench refuses hosts with fewer than 4 CPUs (exit 2).
if (( jobs < 4 )); then
  echo "skipped: perfbench needs 4 CPUs, this host has $jobs"
else
  export CARGO_TARGET_DIR="$obs_tmp/perfbench"
  for w in protect_cold protect_warm campaign; do
    python3 perfbench/run.py --workload "$w" --smoke --seconds 1 \
        > "$obs_tmp/bench-$w.out" 2> "$obs_tmp/bench-$w.err" \
      || { echo "perfbench $w exited nonzero"; tail -n 20 "$obs_tmp/bench-$w.err"; exit 1; }
    python3 - "$w" "$obs_tmp/bench-$w.out" <<'PYEOF'
import json, sys
r = json.loads(open(sys.argv[2]).read().splitlines()[-1])
assert r["correct"] is True and r["failed"] == 0, \
    "perfbench %s: correct=%s failed=%s" % (sys.argv[1], r["correct"], r["failed"])
print("perfbench %s smoke: %d operations, all correct" % (sys.argv[1], r["attempted"]))
PYEOF
  done
  cmake --build "$CARGO_TARGET_DIR/perfbench" --target perfbench_test -j "$jobs"
  (cd "$CARGO_TARGET_DIR/perfbench" && ./perfbench_test)
  unset CARGO_TARGET_DIR
fi

echo "== no-SIMD build: the scalar fallback stands alone =="
# Compile with the vector backends removed entirely (-DCED_NO_SIMD) and
# prove the universal word loop passes the kernel suites on its own — the
# portability floor for hosts with no AVX2/NEON.
cmake -B build-nosimd -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-DCED_NO_SIMD" >/dev/null
cmake --build build-nosimd -j "$jobs" \
      --target test_kernel_simd test_coverkernel bench_perf
(cd build-nosimd && ./tests/test_kernel_simd && ./tests/test_coverkernel)
./build-nosimd/bench/bench_perf --kernel-smoke --quick

echo "== sanitizers: ASan + UBSan =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"
if [[ "$fast" == 1 ]]; then
  ctest --preset asan-ubsan -j "$jobs" \
      -R 'Resilience|KissMalformed|KissParse|Storage|Crc32|RevisedLp|Simplex|CaseSet|Espresso|MinimizeProperty|FaultSim|Extract|Campaign|EndToEnd|CoverKernel|BetaCursor|Condense|KernelSimd|KernelScalar|Algorithm1'
else
  ctest --preset asan-ubsan -j "$jobs"
fi

echo "== sanitizers: TSan (CED_THREADS=4) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
if [[ "$fast" == 1 ]]; then
  ctest --preset tsan -j "$jobs" \
      -R 'Parallel|Resilience|Pipeline|Resume|Serve|Campaign|RevisedLp|CaseSet|Extract|FaultSim'
else
  ctest --preset tsan -j "$jobs"
fi

echo "== campaign under TSan: 4-thread shard fan-out is race-free =="
# Rerun the campaign gate's circuit against the TSan-instrumented CLI so
# the parallel_for shard fan-out, checkpoint saves and metric shards are
# exercised as a data-race check, not just for correctness.
./build-tsan/tools/ced_cli protect "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-tsan" > /dev/null
./build-tsan/tools/ced_cli campaign "$obs_tmp/dk16.kiss" --latency=2 \
    --store="$obs_tmp/camp-tsan" --threads=4 \
    --json-out="$obs_tmp/camp-tsan.json" > "$obs_tmp/camp-tsan.out"
cmp "$obs_tmp"/camp-tsan/camp-*.ced "$obs_tmp"/camp-1/camp-*.ced \
  || { echo "TSan campaign verdicts diverge from the plain build"; exit 1; }

echo "== chaos: crash/overload/drain harness against the TSan daemon =="
# Run the full chaos suite (kill -9 + resume, saturation, drain, wire
# garbage, store corruption) against the TSan-instrumented binaries so
# every recovery path is also a data-race check.
tools/chaos_serve.sh build-tsan

echo "ci: all green"
