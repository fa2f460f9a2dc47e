#!/usr/bin/env bash
# Local CI: build the plain and sanitized configurations and run the
# full test suite under each.
#
#   tools/ci.sh            # plain (RelWithDebInfo) + ASan/UBSan + UBSan + TSan
#   tools/ci.sh --fast     # plain configuration only
#
# The TSan configuration runs the whole suite with PARADIGM_THREADS=4 so
# every test exercises the thread pool (support/parallel.hpp) under the
# race detector — the determinism contract makes this safe: results must
# be bit-identical to the serial run, so the suite passes unchanged. An
# extra TSan stage re-runs the golden/differential observability suite
# (ctest -L "golden|differential") to pin the DESIGN §9 claim: exported
# metrics/trace bytes match the checked-in goldens even with 4 pool
# threads racing under the race detector. An ASan stage re-runs the
# service soak (ctest -L soak) so the cancellation-unwind paths — every
# partial-report unwind in the 200-job mixed corpus — are leak- and
# overflow-checked, and a second ASan stage re-runs the durability
# suite (ctest -L recovery) so every injected-crash unwind and every
# recovery replay is leak-checked; journals of failing crash boundaries
# are archived to build-ci/artifacts/recovery/.
#
# Fail-fast: the first failing stage aborts the run with the failing
# configuration named on stderr, and every configuration's CTest log
# (Testing/Temporary/LastTest.log) is archived to
# build-ci/artifacts/<config>-LastTest.log — including on failure — so
# the per-test output survives the aborted run.
#
# The plain configuration also runs the benchmark's self-tests
# (perfbench/test_bench.py), which prove its output checks are not
# vacuous. Timings are judged by the benchmark (perfbench/README.md),
# not by the test suite.
#
# Run from the repository root. Build trees land in build-ci/.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

artifacts="$PWD/build-ci/artifacts"
mkdir -p "$artifacts"

current_stage="(none)"

# Archives a configuration's CTest log under its own name; called after
# every ctest invocation and from the failure trap, so the log is saved
# whether the stage passed or not.
archive_ctest_log() {
  local name="$1"
  local log="build-ci/$name/Testing/Temporary/LastTest.log"
  if [[ -f "$log" ]]; then
    cp "$log" "$artifacts/$name-LastTest.log"
  fi
}

on_failure() {
  local code=$?
  archive_ctest_log "${current_stage#*:}" || true
  echo "CI FAILED in stage [$current_stage] (exit $code);" \
    "CTest logs archived under $artifacts/" >&2
  exit "$code"
}
trap on_failure ERR

run_config() {
  local name="$1"
  shift
  local dir="build-ci/$name"
  current_stage="configure:$name"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  current_stage="build:$name"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  current_stage="test:$name"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  archive_ctest_log "$name"
}

run_config plain -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPARADIGM_WERROR=ON

# Benchmark self-tests: perfbench builds its own copy of src/ (into
# build-ci/perfbench) and checks that every output check fails on a
# perturbed reference or a truncated journal, and that it prints
# exactly the metrics BENCHMARK.json declares.
current_stage="perfbench:plain"
echo "=== [plain] benchmark self-tests ==="
CARGO_TARGET_DIR=build-ci/perfbench python3 perfbench/test_bench.py

# Fuzz stage (DESIGN §10): replay the seeded pathological-MDG corpus and
# the 500-seed sweep (ctest -L fuzz, fixed seeds, bounded runtime). Any
# failing seed is dumped by the harness into PARADIGM_FUZZ_ARTIFACT_DIR
# so it can be archived and checked into tests/fuzz_corpus/seeds.txt as
# a permanent regression.
current_stage="fuzz:plain"
echo "=== [plain] fuzz corpus stage ==="
mkdir -p "$artifacts/fuzz"
PARADIGM_FUZZ_ARTIFACT_DIR="$artifacts/fuzz" \
  ctest --test-dir build-ci/plain -L fuzz --output-on-failure -j "$jobs"
archive_ctest_log plain
if compgen -G "$artifacts/fuzz/*" > /dev/null; then
  echo "fuzz stage archived failing-seed artifacts:"
  ls -l "$artifacts/fuzz"
fi

# Real-OOM smoke (DESIGN §15): injection proves the unwind paths, but
# only the kernel can prove the terminal band. Run a genuinely
# allocation-heavy one-shot (Strassen level 4, ~44 MiB peak) under a
# descending address-space ladder: generous rungs must pass, and the
# first rung that trips must exit 26 with the structured "memory error"
# line — never a raw abort, never a different band. Uses the plain
# build: sanitizer runtimes reserve address space far beyond any
# realistic `ulimit -v`, so this smoke is meaningless under ASan.
current_stage="memory-smoke:plain"
echo "=== [plain] real out-of-memory smoke ==="
mkdir -p "$artifacts/memory"
tripped=0
for kb in 1048576 131072 32768 20480; do
  mem_rc=0
  (
    ulimit -v "$kb"
    exec build-ci/plain/tools/paradigm_cli \
      --program=strassen --levels=4 --mode=static --noise=0 --no-sim \
      >/dev/null 2>"$artifacts/memory/oom-smoke-stderr.txt"
  ) || mem_rc=$?
  if [[ "$mem_rc" == 0 ]]; then
    echo "oom smoke: ulimit -v ${kb} KiB passed cleanly"
    continue
  fi
  if [[ "$mem_rc" != 26 ]] \
      || ! grep -q "memory error" "$artifacts/memory/oom-smoke-stderr.txt"; then
    echo "oom smoke: expected exit 26 with a structured memory error at" \
      "ulimit -v ${kb} KiB, got exit $mem_rc; stderr archived to" \
      "$artifacts/memory/oom-smoke-stderr.txt" >&2
    exit 1
  fi
  echo "oom smoke: ulimit -v ${kb} KiB fail-stopped with exit 26"
  tripped=1
done
if [[ "$tripped" == 0 ]]; then
  echo "oom smoke: no ladder rung tripped — the workload no longer" \
    "exercises the allocation path; tighten the ladder" >&2
  exit 1
fi
rm -f "$artifacts/memory/oom-smoke-stderr.txt"

echo "=== artifacts ==="
ls -l "$artifacts"

if [[ "$fast" == 0 ]]; then
  run_config asan-ubsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPARADIGM_SANITIZE=address,undefined

  # Service soak under ASan (DESIGN §11/§13): the 200-job mixed corpus
  # takes every cancellation-unwind path (deadline, watchdog, drain,
  # breaker) and the 10k-job Zipf cache soak takes every reuse tier —
  # re-run them with leak detection explicitly on so a partial
  # PipelineReport that leaks or touches freed stage state fails here.
  # Ledgers of diverging cache-soak runs are archived by the harness
  # into build-ci/artifacts/soak/ for offline diffing.
  current_stage="soak:asan-ubsan"
  echo "=== [asan-ubsan] service soak stage ==="
  mkdir -p "$artifacts/soak"
  PARADIGM_SOAK_ARTIFACT_DIR="$artifacts/soak" \
    ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-ci/asan-ubsan -L soak --output-on-failure \
    -j "$jobs"
  archive_ctest_log asan-ubsan
  if compgen -G "$artifacts/soak/*" > /dev/null; then
    echo "soak stage archived diverging ledgers:"
    ls -l "$artifacts/soak"
  fi

  # Recovery stage (DESIGN §12): the crash-at-every-boundary soak and
  # the persistence/recovery unit suite under ASan with leak detection
  # on — every injected crash unwinds through Writer/Persistence
  # destructors, so a journal handle or partial record that leaks fails
  # here. Journals of failing crash boundaries are archived by the
  # harness into build-ci/artifacts/recovery/ for offline replay.
  current_stage="recovery:asan-ubsan"
  echo "=== [asan-ubsan] durability recovery stage ==="
  mkdir -p "$artifacts/recovery"
  PARADIGM_RECOVERY_ARTIFACT_DIR="$artifacts/recovery" \
    ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-ci/asan-ubsan -L recovery --output-on-failure \
    -j "$jobs"
  archive_ctest_log asan-ubsan
  if compgen -G "$artifacts/recovery/*" > /dev/null; then
    echo "recovery stage archived failing-boundary journals:"
    ls -l "$artifacts/recovery"
  fi

  # Storage-fault stage (DESIGN §14): the ALICE-style power-loss sweep
  # and the injected ENOSPC/EIO/short-write/failed-fsync paths already
  # ran under ASan in the recovery stage above (storage_fault_test and
  # vfs_test carry the `recovery`/`unit` labels). This stage adds the
  # one thing injection cannot prove: a REAL kernel-rejected write. The
  # CLI serves a journaled corpus with its file-size rlimit capped (and
  # SIGXFSZ ignored, so write() returns EFBIG — the ENOSPC class); the
  # journal append tears at the cap, the salvage-and-retry path runs
  # against the real filesystem, and the service must quarantine and
  # fail-stop with exit 25. On any other outcome the journal and
  # stderr are archived for replay.
  current_stage="storage:asan-ubsan"
  echo "=== [asan-ubsan] real disk-full smoke ==="
  mkdir -p "$artifacts/storage"
  smoke_dir=$(mktemp -d)
  for i in $(seq 0 19); do
    echo "job id=s$i seed=$((100 + i)) nodes=8 p=8"
  done > "$smoke_dir/smoke.jobs"
  smoke_rc=0
  (
    trap '' XFSZ
    ulimit -f 1
    exec build-ci/asan-ubsan/tools/paradigm_cli \
      --serve="$smoke_dir/smoke.jobs" --journal="$smoke_dir/journal" \
      --mode=static --noise=0 >/dev/null 2>"$smoke_dir/stderr.txt"
  ) || smoke_rc=$?
  if [[ "$smoke_rc" != 25 ]] \
      || ! grep -q "storage error" "$smoke_dir/stderr.txt"; then
    cp -r "$smoke_dir" "$artifacts/storage/disk-full-smoke" || true
    echo "disk-full smoke: expected exit 25 with a structured storage" \
      "error, got exit $smoke_rc; artifacts archived to" \
      "$artifacts/storage/disk-full-smoke" >&2
    exit 1
  fi
  echo "disk-full smoke: quarantined and fail-stopped with exit 25"
  rm -rf "$smoke_dir"

  # Memory-pressure stage (DESIGN §15): the budget/brownout chaos soak —
  # OOM injection at every charge boundary, tight-budget brownouts,
  # sticky-fault fail-stops — re-run under ASan with leak detection on,
  # so every mid-solve unwind through the charge sites is leak- and
  # overflow-checked.
  current_stage="memory:asan-ubsan"
  echo "=== [asan-ubsan] memory-pressure soak stage ==="
  ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-ci/asan-ubsan -L memory --output-on-failure \
    -j "$jobs"
  archive_ctest_log asan-ubsan

  # Structured-pressure smoke: the real binary under ASan must take the
  # §15 fail-stop band on both structured triggers — an impossible byte
  # budget (every dispatch sheds over-memory) and a sticky injected OOM
  # (every rung of every attempt trips) — with exit 26 and the
  # over_memory tally in the ledger, not a crash or a sanitizer report.
  current_stage="memory-smoke:asan-ubsan"
  echo "=== [asan-ubsan] structured memory-pressure smoke ==="
  smoke_dir=$(mktemp -d)
  for i in $(seq 0 9); do
    echo "job id=b$i seed=$((300 + i)) nodes=8 p=8"
  done > "$smoke_dir/smoke.jobs"
  for flags in "--mem-budget=1024" "--mem-budget=1073741824 --inject-oom=1"; do
    smoke_rc=0
    # shellcheck disable=SC2086 — $flags is a deliberate word split.
    build-ci/asan-ubsan/tools/paradigm_cli \
      --serve="$smoke_dir/smoke.jobs" --mode=static --noise=0 $flags \
      >"$smoke_dir/ledger.txt" 2>"$smoke_dir/stderr.txt" || smoke_rc=$?
    if [[ "$smoke_rc" != 26 ]] \
        || ! grep -q "over_memory=" "$smoke_dir/ledger.txt"; then
      mkdir -p "$artifacts/memory"
      cp -r "$smoke_dir" "$artifacts/memory/structured-smoke" || true
      echo "memory smoke ($flags): expected exit 26 with an over_memory" \
        "ledger tally, got exit $smoke_rc; artifacts archived to" \
        "$artifacts/memory/structured-smoke" >&2
      exit 1
    fi
    echo "memory smoke ($flags): fail-stopped with exit 26"
  done
  rm -rf "$smoke_dir"

  # Dedicated UBSan configuration (DESIGN §10): the degradation ladder's
  # guarantee is "no UB on hostile inputs", so undefined-behaviour
  # findings must abort the run rather than print and continue. The
  # combined ASan/UBSan config above keeps ASan's default behaviour;
  # this one runs UBSan alone with halt_on_error so any finding fails
  # the suite loudly.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 run_config ubsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPARADIGM_SANITIZE=undefined

  PARADIGM_THREADS=4 run_config tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPARADIGM_SANITIZE=thread

  # Explicit determinism stage: the observability golden/differential
  # suite must reproduce the checked-in bytes with 4 pool threads under
  # the race detector.
  current_stage="golden:tsan"
  echo "=== [tsan] observability golden/differential suite ==="
  PARADIGM_THREADS=4 ctest --test-dir build-ci/tsan \
    -L "golden|differential" --output-on-failure -j "$jobs"
  archive_ctest_log tsan
fi

echo "CI passed."
