#!/usr/bin/env bash
# Local CI gate: build + test matrix across sanitizer and static-analysis
# modes, plus the Python lints. Run from anywhere inside the repo:
#
#   tools/ci/check.sh                  # full matrix: plain, asan+ubsan, tsan, tsa, taint, lock, failpath, deadlock, faults, model, loadgen, tidy
#   tools/ci/check.sh plain            # one mode only
#   tools/ci/check.sh asan tsa         # subset
#   tools/ci/check.sh --keep-going     # run every mode even after a failure
#
# A PASS/FAIL summary table for the selected modes always prints at the
# end; without --keep-going the first failing mode stops the matrix (later
# modes show as "skipped" in the table).
#
# Modes:
#   plain     release build + full ctest. -Werror=unused-result is ALWAYS on
#             (top-level CMakeLists), so this doubles as the nodiscard gate.
#   nodiscard alias for the build half of plain — compile-only proof that no
#             [[nodiscard]] result is dropped anywhere in the tree.
#   asan      AddressSanitizer + UBSan, halt_on_error.
#   tsan      ThreadSanitizer, halt_on_error.
#   tsa       clang -Wthread-safety -Werror static lock-discipline check
#             (compile-only; skipped with a notice when clang++ is absent).
#   taint     secret information-flow checks: taint_lint over src/ plus the
#             Secret type-wall fixture compiles (clean must build, the
#             secret-to-wire/secret-log leaks must NOT).
#   lock      lock-discipline lint: blocking calls under a lock, bare
#             CondVar::Wait outside a predicate loop, unranked mutex
#             declarations (pure Python, no build tree).
#   failpath  exception-hygiene lint: untyped throws, swallowed catches,
#             throws in dtors/noexcept, manual gauge dances, and the
#             fault-site manifest cross-check (pure Python, no build tree).
#   deadlock  REED_DEADLOCK_DETECT=ON build (runtime lock-rank + lock-order
#             cycle detection compiled into every reed::Mutex) + the
#             quick-label test suite. Any rank violation or cycle aborts the
#             offending test.
#   faults    REED_FAULT_INJECT=ON build (named fault points compiled into
#             the data path) + the quick suite, the failure-path sweep
#             (tests/fault_sweep_test.cc: every site armed mid-drive must
#             propagate typed, drain gauges, leave dedup state consistent,
#             recover across a server restart, and survive a disarmed
#             retry) and the crash-recovery suite (`durability` label,
#             DESIGN.md §12): children SIGKILLed at armed fault sites
#             mid-upload and at every torn-WAL-tail truncation offset, then
#             reopened and checked for consistency plus byte-identical
#             re-download, and the model-checker restart sweep (security
#             oracles across restarts). Failing crash scenarios preserve the
#             surviving store dir plus a repro seed under
#             <build>/tests/crash_artifacts/.
#   model     model-based differential checking (DESIGN.md §11): the
#             op-coverage lint (model_lint.py, both directions), then the
#             `model` + `lint` ctest labels — the executable-spec gtest
#             suite, seeded reed_model_check sweeps in both pipeline modes
#             plus the concurrent explainability mode, and the WILL_FAIL
#             injected-bug fixtures that prove the checker still bites.
#   loadgen   async-front-end load smoke: bench_loadgen --smoke drives the
#             epoll front end at C and 4C clients plus the rekey
#             storm through per-tenant admission; the binary's exit code
#             carries the oracle verdicts (lost ops, package-digest drift,
#             dedup-state consistency). Shares the plain build tree.
#   cov       REED_COVERAGE=ON build + full ctest, then per-module line
#             coverage via gcov JSON (tools/ci/coverage_report.py) gated on
#             the floors in tools/ci/coverage_floors.json. Not in the
#             default matrix (it is a second full build of the tree);
#             hosted CI runs it as its own job.
#   tidy      clang-tidy over the compile database, warnings-as-errors
#             (skipped with a notice when clang-tidy is absent).
#
# Build trees land in build-ci-<mode>/ (gitignored). Every mode must end
# with 100% tests passed and zero findings; sanitizers run with
# halt_on_error so a finding fails the test that triggered it.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "${REPO_ROOT}"

KEEP_GOING=0
MODES=()
for arg in "$@"; do
  case "${arg}" in
    --keep-going) KEEP_GOING=1 ;;
    --*) echo "unknown flag: ${arg} (expected --keep-going)" >&2; exit 2 ;;
    *) MODES+=("${arg}") ;;
  esac
done
if [[ ${#MODES[@]} -eq 0 ]]; then
  MODES=(plain asan tsan tsa taint lock failpath deadlock faults model loadgen tidy)
fi

GENERATOR_ARGS=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi
# ccache makes the hosted CI matrix cheap: six modes share one compiler
# cache keyed per mode (sanitizer flags change the hash, so no cross-talk).
if command -v ccache > /dev/null 2>&1; then
  GENERATOR_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_mode() {
  local mode="$1"
  local build_dir="build-ci-${mode}"
  local cmake_args=()
  local -a test_env=()
  local -a test_args=()
  local build_only=0
  local tidy_after=0
  local cov_after=0
  local loadgen_after=0

  case "${mode}" in
    plain)
      cmake_args=(-DREED_SANITIZE=none)
      ;;
    nodiscard)
      # The unused-result gate is unconditional, so a plain build IS the
      # check; this mode just skips the test phase for a faster answer.
      cmake_args=(-DREED_SANITIZE=none)
      build_dir="build-ci-plain"
      build_only=1
      ;;
    asan)
      cmake_args=(-DREED_SANITIZE=address,undefined)
      test_env=("ASAN_OPTIONS=halt_on_error=1"
                "UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1")
      ;;
    tsan)
      cmake_args=(-DREED_SANITIZE=thread)
      test_env=("TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1")
      ;;
    tsa)
      if ! command -v clang++ > /dev/null 2>&1; then
        echo "=== [tsa] SKIPPED: clang++ not found ==="
        echo "    The thread-safety annotations are no-ops under GCC; install"
        echo "    clang to run the static lock-discipline analysis."
        return 0
      fi
      cmake_args=(-DREED_THREAD_SAFETY=ON -DCMAKE_CXX_COMPILER=clang++)
      # Compile-only: the analysis happens during the build. The annotation
      # fixture ctests (tsa_annotation_*) run under the plain modes too once
      # clang is present, so skipping ctest here avoids double work.
      build_only=1
      ;;
    taint)
      # No build tree needed: the lint is pure Python and the type-wall
      # fixtures are -fsyntax-only compiles against src/ headers.
      echo "=== [taint] secret information-flow lint ==="
      python3 tools/lint/taint_lint.py --self-test
      python3 tools/lint/taint_lint.py --root . src
      echo "=== [taint] Secret type-wall fixtures ==="
      local cxx="${CXX:-g++}"
      local wall_flags=(-std=c++20 -fsyntax-only -Isrc)
      "${cxx}" "${wall_flags[@]}" tools/lint/fixtures/secret_wall/taint_clean.cc
      echo "    taint_clean.cc: compiles (OK)"
      for leak in taint_secret_to_wire taint_secret_log; do
        if "${cxx}" "${wall_flags[@]}" \
            "tools/lint/fixtures/secret_wall/${leak}.cc" 2> /dev/null; then
          echo "    ${leak}.cc: COMPILED — the Secret type wall is broken" >&2
          return 1
        fi
        echo "    ${leak}.cc: rejected by the compiler (OK)"
      done
      return 0
      ;;
    lock)
      # No build tree needed: pure Python over src/.
      echo "=== [lock] lock-discipline lint ==="
      python3 tools/lint/lock_lint.py --self-test
      python3 tools/lint/lock_lint.py --root . src
      return 0
      ;;
    failpath)
      # No build tree needed: pure Python over src/ (the manifest
      # cross-check also reads tests/fault_sweep_manifest.h).
      echo "=== [failpath] exception-hygiene lint ==="
      python3 tools/lint/failpath_lint.py --self-test
      python3 tools/lint/failpath_lint.py --root . src
      return 0
      ;;
    deadlock)
      # Debug build with the runtime lock-rank/cycle detector compiled into
      # every reed::Mutex acquisition; the quick suite then exercises every
      # ranked lock-nesting path in src/. The detector aborts on the first
      # violation, so a pass proves the rank order in util/lock_rank.h is
      # consistent with every ordering the suite actually executes.
      cmake_args=(-DREED_SANITIZE=none -DREED_DEADLOCK_DETECT=ON)
      test_args=(-L quick)
      ;;
    faults)
      # Fault-point build: the sweep (label `fault`) arms every site in the
      # manifest mid-drive; the quick label keeps the unit suites alongside
      # to prove the disarmed points are inert. The crash-recovery suite
      # (label `durability`) needs the same build: it is what makes the
      # armed SIGKILL-at-site kills land (plain builds compile the sites out
      # and the suite degrades to timed kills + reopen checks).
      cmake_args=(-DREED_SANITIZE=none -DREED_FAULT_INJECT=ON)
      test_args=(-L "quick|fault|durability")
      ;;
    model)
      # The op-coverage lint gates the lane up front: if a public client op
      # is outside the generator's table the differential sweep below would
      # be vacuously green for it.
      echo "=== [model] op-coverage lint ==="
      python3 tools/lint/model_lint.py --root . --self-test
      python3 tools/lint/model_lint.py --root .
      cmake_args=(-DREED_SANITIZE=none)
      build_dir="build-ci-plain"  # same tree as plain: no extra flags
      test_args=(-L "model|lint")
      ;;
    loadgen)
      # Shares the plain tree; the smoke run is the check (seconds of wall
      # time), no ctest phase.
      cmake_args=(-DREED_SANITIZE=none)
      build_dir="build-ci-plain"
      loadgen_after=1
      ;;
    cov)
      cmake_args=(-DREED_SANITIZE=none -DREED_COVERAGE=ON)
      cov_after=1
      ;;
    tidy)
      if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "=== [tidy] SKIPPED: clang-tidy not found ==="
        echo "    Install clang-tidy to run the static-analysis pass; the"
        echo "    compile database is still exported by the plain mode."
        return 0
      fi
      cmake_args=(-DREED_SANITIZE=none -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
      tidy_after=1
      build_only=1
      ;;
    *)
      echo "unknown mode: ${mode} (expected plain|nodiscard|asan|tsan|tsa|taint|lock|failpath|deadlock|faults|model|loadgen|cov|tidy)" >&2
      exit 2
      ;;
  esac

  echo "=== [${mode}] configure ==="
  cmake -B "${build_dir}" -S . "${GENERATOR_ARGS[@]}" \
      -DCMAKE_BUILD_TYPE=Release "${cmake_args[@]}"

  echo "=== [${mode}] build ==="
  cmake --build "${build_dir}" -j

  if [[ ${tidy_after} -eq 1 ]]; then
    echo "=== [${mode}] clang-tidy (warnings-as-errors) ==="
    # The checks ride in .clang-tidy when present; -warnings-as-errors='*'
    # turns any finding into a failure either way.
    local -a tidy_sources
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    if command -v run-clang-tidy > /dev/null 2>&1; then
      run-clang-tidy -p "${build_dir}" -quiet -warnings-as-errors='*' \
          "${tidy_sources[@]}"
    else
      clang-tidy -p "${build_dir}" --quiet -warnings-as-errors='*' \
          "${tidy_sources[@]}"
    fi
    echo "=== [${mode}] clang-tidy clean ==="
    return 0
  fi

  if [[ ${loadgen_after} -eq 1 ]]; then
    echo "=== [${mode}] bench_loadgen --smoke ==="
    "${build_dir}/bench/bench_loadgen" --smoke
    echo "=== [${mode}] load smoke clean ==="
    return 0
  fi

  if [[ ${build_only} -eq 1 ]]; then
    echo "=== [${mode}] build-only mode: done ==="
    return 0
  fi

  echo "=== [${mode}] test ==="
  # Long-pole gtest binaries (ABE pairing math, the client property suite)
  # dominate wall time; -j parallelizes across binaries, and the TSan tree
  # already carries widened per-test timeouts from tests/CMakeLists.txt.
  env "${test_env[@]}" ctest --test-dir "${build_dir}" \
      --output-on-failure -j "$(nproc)" "${test_args[@]}"

  if [[ ${cov_after} -eq 1 ]]; then
    echo "=== [${mode}] per-module coverage floors ==="
    python3 tools/ci/coverage_report.py --build-dir "${build_dir}" --root .
  fi
}

echo "=== crypto-hygiene lint ==="
python3 tools/lint/crypto_lint.py --self-test
python3 tools/lint/crypto_lint.py --root . src

echo "=== module-layering lint ==="
python3 tools/lint/layering_lint.py --self-test
python3 tools/lint/layering_lint.py --root . src

echo "=== secret information-flow lint ==="
python3 tools/lint/taint_lint.py --self-test
python3 tools/lint/taint_lint.py --root . src

echo "=== lock-discipline lint ==="
python3 tools/lint/lock_lint.py --self-test
python3 tools/lint/lock_lint.py --root . src

echo "=== exception-hygiene lint ==="
python3 tools/lint/failpath_lint.py --self-test
python3 tools/lint/failpath_lint.py --root . src

echo "=== model op-coverage lint ==="
python3 tools/lint/model_lint.py --root . --self-test
python3 tools/lint/model_lint.py --root .

# Per-mode verdicts, reported in a summary table whether or not the matrix
# ran to completion. The subshell re-enables errexit so a mid-mode failure
# still aborts that mode; the caller decides whether to continue.
declare -A RESULTS=()
OVERALL=0
for mode in "${MODES[@]}"; do
  set +e
  ( set -e; run_mode "${mode}" )
  status=$?
  set -e
  if [[ ${status} -eq 0 ]]; then
    RESULTS["${mode}"]="PASS"
  else
    RESULTS["${mode}"]="FAIL"
    OVERALL=1
    if [[ ${KEEP_GOING} -eq 0 ]]; then
      echo "=== [${mode}] FAILED — stopping (use --keep-going to run the rest) ===" >&2
      break
    fi
    echo "=== [${mode}] FAILED — continuing (--keep-going) ===" >&2
  fi
done

echo
echo "=== mode summary ==="
for mode in "${MODES[@]}"; do
  printf '  %-10s %s\n' "${mode}" "${RESULTS[${mode}]:-skipped}"
done

if [[ ${OVERALL} -ne 0 ]]; then
  echo "=== checks FAILED ===" >&2
  exit 1
fi
echo "=== all checks passed (${MODES[*]}) ==="
