#!/usr/bin/env bash
# Wall-clock + per-phase snapshot of the Fig 2 LASSO and Fig 7 VAR
# pipelines, written to BENCH_PIPELINE.json at the repo root.
#
# Runs each binary REPS times untraced (minimum wall-clock), REPS times
# traced, once with a 4x straggler and once guarded; `uoi_trace snapshot`
# folds the run reports and `uoi_trace compare` gates against old.json.
# The schema and the gates are documented in crates/bench/src/gates.rs.
#
#   scripts/bench_snapshot.sh                    # fresh snapshot
#   scripts/bench_snapshot.sh old.json           # snapshot + speedup vs old
#   scripts/bench_snapshot.sh --compare old.json # snapshot + per-phase diff;
#                                                # exits 1 on a regression
#
# Environment: REPS (default 3), BINDIR (prebuilt binaries, uoi_trace
# included; defaults to target/release via cargo build).
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${REPS:-3}"
BINS=(fig2_lasso_single_node fig7_var_single_node)
BASELINE=""
COMPARE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --compare)
      [[ $# -ge 2 ]] || { echo "--compare needs a snapshot path" >&2; exit 2; }
      COMPARE="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *)
      BASELINE="$1"; shift ;;
  esac
done

if [[ -z "${BINDIR:-}" ]]; then
  cargo build -p uoi-bench --release --bin fig2_lasso_single_node \
    --bin fig7_var_single_node --bin uoi_trace 2>&1 | tail -1
  BINDIR=target/release
fi

TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
if [[ -n "$COMPARE" ]]; then
  # The snapshot overwrites BENCH_PIPELINE.json, which may be the baseline.
  cp "$COMPARE" "$TRACE_DIR/baseline.json"
  COMPARE="$TRACE_DIR/baseline.json"
fi

SPECS=()
for bin in "${BINS[@]}"; do
  best=""
  for _ in $(seq "$REPS"); do
    start=$(date +%s%3N)
    "$BINDIR/$bin" > /dev/null 2>&1
    elapsed=$(( $(date +%s%3N) - start ))
    if [[ -z "$best" || "$elapsed" -lt "$best" ]]; then best=$elapsed; fi
    echo "  $bin: ${elapsed} ms" >&2
  done
  # Traced reps land in per-rep subdirs so each run report survives;
  # the snapshot takes per-phase minima across them.
  for rep in $(seq "$REPS"); do
    mkdir -p "$TRACE_DIR/rep$rep"
    UOI_TRACE=1 UOI_RESULTS_DIR="$TRACE_DIR/rep$rep" "$BINDIR/$bin" > /dev/null 2>&1
  done
  # One hedging-study rep (schema 5): a 4x straggler with speculation
  # on. Deterministic modeled numbers, so a single rep suffices.
  mkdir -p "$TRACE_DIR/straggler"
  UOI_STRAGGLER=4.0 UOI_SPECULATE=1 UOI_RESULTS_DIR="$TRACE_DIR/straggler" \
    "$BINDIR/$bin" > /dev/null 2>&1
  # One guarded rep (schema 7): numerical-resilience guards armed. The
  # health report is deterministic, so a single rep suffices.
  mkdir -p "$TRACE_DIR/numerical"
  UOI_NUMERICAL=1 UOI_RESULTS_DIR="$TRACE_DIR/numerical" \
    "$BINDIR/$bin" > /dev/null 2>&1
  SPECS+=("$bin=$best")
done

"$BINDIR/uoi_trace" snapshot "$TRACE_DIR" ${BASELINE:+"$BASELINE"} "${SPECS[@]}"

echo "wrote BENCH_PIPELINE.json" >&2
cat BENCH_PIPELINE.json

if [[ -n "$COMPARE" ]]; then
  "$BINDIR/uoi_trace" compare "$COMPARE" BENCH_PIPELINE.json
fi
