#!/usr/bin/env bash
# Tier-1 gate plus the kernel/obs smoke checks, the deprecation build
# gate, the Debug oracle cross-checks, and the sanitizer passes.
#
#   tools/ci.sh            # plain build + full ctest, then ASan+UBSan build
#                          # + full ctest under sanitizers, then TSan build
#                          # + full ctest with 4 worker threads
#   tools/ci.sh --fast     # ASan+UBSan pass runs only the resilience,
#                          # parser, storage, LP-solver, case-set,
#                          # extraction, campaign and end-to-end suites
#                          # (the crash-prone surface: budget valves,
#                          # malformed input, corrupt-artifact fault
#                          # injection, the sparse simplex's pointer
#                          # arithmetic, the case set's open-addressing
#                          # index, and the protected machine's batched
#                          # checker rows behind every sequential proof);
#                          # TSan pass runs only the concurrency-bearing
#                          # suites (parallel extraction, pipeline,
#                          # resume, and the warm-started LP under a
#                          # 4-thread solver)
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
# semantics, p=1..3: case counts, case-list digests, q, parity masks and
# whether the exhaustive campaign proves the bound on the synthesized
# checker (bound=holds|violated). The tool pins its own thread count (4):
# no-store extraction strengthens degraded tables by a
# thread-count-dependent amount.
./build/bench/bench_ledger --check=bench/ledger.txt

echo "== kernel backends: dispatched SIMD vs word loop on s1488 =="
# The vector engine must be a pure speedup: the backend this host
# dispatches to (AVX2/NEON, printed) and the plain word loop forced by
# ScopedSimdLevel(kNone) must select byte-identical parities on the
# paper's largest instance at p=2, at threads 1 AND 4 (exit 1 otherwise).
# Tier-1 checks every kernel query and the solvers against the per-case
# core::covers oracle, and the revised LP against lp::solve_dense.
./build/bench/bench_perf --kernel-smoke --circuits=s1488

echo "== obs smoke: exporters parse, q unaffected =="
# Observability must be write-only: run s1488 p=2 with and without the
# collectors, assert the JSON exports parse and carry real data, and that
# the printed parities are identical (the exports add information, never
# perturb the answer).
obs_tmp=$(mktemp -d)
serve_pid=""
trap '[[ -n "$serve_pid" ]] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$obs_tmp"' EXIT
./build/tools/ced_cli generate --suite=s1488 > "$obs_tmp/s1488.kiss"
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

echo "== campaign smoke: empirical bounded-latency gate =="
# Protect a small Table-1 circuit, then *prove the bound empirically*: the
# exhaustive campaign drives every persistent stuck-at fault over every
# bounded input path and must classify zero episodes detected_late or
# silent_escape, and its fault-free sweep must see zero false alarms;
# `ced_cli verify` runs the same proof and must exit 0. The verdict
# artifact must be byte-identical at 1 vs 4 threads, and a campaign
# interrupted by the deterministic shard valve (the reproducible analogue
# of the kill -9 chaos_serve.sh throws at the daemon) must resume from its
# checkpoints to the same bytes.
./build/tools/ced_cli generate --suite=dk16 > "$obs_tmp/dk16.kiss"
for t in 1 4; do
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
cmp "$obs_tmp"/camp-1/camp-*.ced "$obs_tmp"/camp-4/camp-*.ced \
  || { echo "campaign verdicts differ across thread counts"; exit 1; }
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

echo "== deprecation gate: in-tree code uses only the new API =="
# The PR-5 core::run_pipeline / core::run_latency_sweep shims are gone;
# this build keeps the warning promoted to an error so any future
# [[deprecated]] transition window starts from a tree with zero callers.
cmake -B build-deprec -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations" >/dev/null
cmake --build build-deprec -j "$jobs"

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

echo "== oracle cross-checks: Debug build of the LP and solver suites =="
# Every build above defines NDEBUG, which compiles out lp::solve's re-solve
# of every LP with lp::solve_dense and the cover kernel's per-case scalar
# cross-check. This Debug build keeps both and runs the suites that drive
# them. Unoptimized, test_coverkernel takes about 2.5 minutes and
# test_lp_revised about 30 s on a 4-core x86-64 host.
cmake -B build-debug -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-debug -j "$jobs" \
      --target test_lp_revised test_lp test_solvers test_coverkernel
(cd build-debug && ./tests/test_lp_revised && ./tests/test_lp \
    && ./tests/test_solvers && ./tests/test_coverkernel)

echo "== sanitizers: ASan + UBSan =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"
if [[ "$fast" == 1 ]]; then
  ctest --preset asan-ubsan -j "$jobs" \
      -R 'Resilience|KissMalformed|KissParse|Storage|RevisedLp|Simplex|CaseSet|Extract|Campaign|EndToEnd'
else
  ctest --preset asan-ubsan -j "$jobs"
fi

echo "== sanitizers: TSan (CED_THREADS=4) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
if [[ "$fast" == 1 ]]; then
  ctest --preset tsan -j "$jobs" \
      -R 'Parallel|Resilience|Pipeline|Resume|Serve|Campaign|RevisedLp'
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
