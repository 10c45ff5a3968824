#!/usr/bin/env bash
# Wall-clock + per-phase snapshot of the two end-to-end pipeline
# binaries the zero-copy bootstrap work is gated on (Fig 2 LASSO,
# Fig 7 VAR).
#
# Runs each binary REPS times untraced, takes the minimum wall-clock,
# then runs REPS traced reps (UOI_TRACE=1) and folds the per-phase
# minimum modeled times from the run reports into a schema-versioned
# BENCH_PIPELINE.json at the repo root (schema_version 7). Per-phase
# minima are the same estimator as the walls: the modeled time of a
# phase varies run to run with thread scheduling (one-sided serving
# order), and the minimum is the stable best case. Since schema 3 each
# pipeline entry also records the run parameters that shape the modeled
# admm_local time (in-rank `threads`; fig2's `admm_schedule` until Fused
# was removed) so a snapshot is self-describing about its configuration;
# schema 4 adds the Gram kernel variant (`gram_kernel`) it was built with.
#
# Schema 5 adds a `straggler` sub-object per pipeline from one extra
# rep with UOI_STRAGGLER=4.0 UOI_SPECULATE=1: hedge counts plus the
# modeled healthy/unhedged/hedged makespans of the speculative-hedging
# study (crates/bench/src/straggler.rs), and the effective watchdog_ms.
# The snapshot itself gates on the study recovering at least 50% of the
# straggler-induced modeled slowdown — no baseline needed — so a hedging
# regression fails the snapshot even on a fresh checkout. The straggler
# rep runs after the wall-clock reps and never touches the walls.
#
# Schema 6 adds a `convergence` sub-object per pipeline from the traced
# reps' run-report convergence blocks: solver task count, non-converged
# fraction, iteration-cap hits, and the median ADMM iteration count of
# the selection solves. --compare fails when the non-converged fraction
# regresses (grows) against the baseline snapshot.
#
# Schema 7 adds a `numerical` sub-object per pipeline from one extra
# guarded rep (UOI_NUMERICAL=1): the run-report numerical-health block
# (jitter retries, rho restarts, dropped tasks, sanitized cells, clean
# bit). The figure datasets are clean and well-conditioned, so a guarded
# run must report zero interventions; --compare fails when a "clean" run
# reports jitter events, rho restarts, or dropped tasks — a guard firing
# on clean input is a numerical regression, baseline or no baseline.
# The guarded rep runs after the wall-clock reps and never touches the
# walls.
#
#   scripts/bench_snapshot.sh                    # fresh snapshot
#   scripts/bench_snapshot.sh old.json           # snapshot + speedup vs old
#   scripts/bench_snapshot.sh --compare old.json # snapshot + per-phase diff;
#                                                # exits 1 on a >15% regression
#
# --compare diffs the modeled per-phase seconds (virtual clock, so
# deterministic across machines) against a previous snapshot and fails
# when any phase that mattered in the baseline (>= 1% of its makespan)
# slowed down by more than 15%. The `admm_local` phase (solver inner
# loop) and the `gram_build` phase (batched Gram engine) — the two
# hot paths the kernel work targets — are always gated, floor or no
# floor. Baselines written by the v1 script have no phase data;
# comparing against them only checks wall-clock and always exits 0.
#
# Environment: REPS (default 3), BINDIR (prebuilt binaries; defaults to
# target/release via cargo build).
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
      sed -n '2,58p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *)
      BASELINE="$1"; shift ;;
  esac
done

if [[ -z "${BINDIR:-}" ]]; then
  cargo build -p uoi-bench --release --bin fig2_lasso_single_node \
    --bin fig7_var_single_node 2>&1 | tail -1
  BINDIR=target/release
fi

TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

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

python3 - "$REPS" "$TRACE_DIR" "$BASELINE" "${SPECS[@]}" <<'EOF'
import json, os, sys

reps, trace_dir, baseline = int(sys.argv[1]), sys.argv[2], sys.argv[3]
base_doc = json.load(open(baseline)) if baseline else {}
base_by_name = {e["name"]: e for e in base_doc.get("pipelines", [])}

doc = {
    "schema_version": 7,
    "reps": reps,
    "generated_by": "scripts/bench_snapshot.sh",
    "pipelines": [],
}

# The hedging study must recover at least this fraction of the
# straggler-induced modeled slowdown or the snapshot fails.
RECOVERY_FLOOR = 0.5
gate_failed = False
for spec in sys.argv[4:]:
    name, min_ms = spec.rsplit("=", 1)
    entry = {"name": name, "min_wall_ms": int(min_ms)}
    makespans, phases = [], {}
    for rep in range(1, reps + 1):
        report_path = os.path.join(trace_dir, f"rep{rep}", f"{name}.json")
        try:
            report = json.load(open(report_path))
        except (OSError, ValueError):
            continue
        for key in ("threads", "gram_kernel"):
            val = report.get("params", {}).get(key)
            if val is not None:
                entry[key] = val
        # Solver-quality block (schema 6): convergence is deterministic
        # across reps, so the first report that carries one suffices.
        conv = report.get("convergence")
        if conv and "convergence" not in entry:
            sel_iters = (conv.get("stages", {}).get("selection", {})
                         .get("iterations", {}))
            entry["convergence"] = {
                "tasks": conv.get("tasks"),
                "nonconverged_fraction": conv.get("nonconverged_fraction"),
                "cap_hits": conv.get("cap_hits"),
                "median_admm_iterations": sel_iters.get("p50"),
            }
        breakdown = report.get("breakdown")
        if not breakdown:
            continue
        makespans.append(breakdown["makespan"])
        for phase, agg in breakdown.get("aggregate", {}).items():
            t = agg["max"]
            phases[phase] = min(phases.get(phase, t), t)
    if makespans:
        entry["makespan_model_s"] = min(makespans)
        entry["phases_model_s"] = phases
    else:
        print(f"warning: no breakdown for {name}; phases omitted", file=sys.stderr)
    # Numerical-health block (schema 7) from the guarded rep. The
    # figure datasets are clean, so a missing block means the guarded
    # rep failed outright and the snapshot must not pretend otherwise.
    num_path = os.path.join(trace_dir, "numerical", f"{name}.json")
    try:
        num = json.load(open(num_path)).get("numerical")
    except (OSError, ValueError):
        num = None
    if num:
        entry["numerical"] = {
            "clean": num.get("clean"),
            "jitter_events": num.get("jitter", {}).get("events"),
            "jitter_attempts_total": num.get("jitter", {}).get("attempts_total"),
            "rho_restarts": num.get("rho_restarts"),
            "divergences": num.get("divergence", {}).get("trips"),
            "dropped_tasks": num.get("dropped_tasks"),
            "sanitized_cells": num.get("sanitized_cells"),
        }
    else:
        print(f"GATE: {name} guarded rep produced no numerical block",
              file=sys.stderr)
        gate_failed = True
    study_path = os.path.join(trace_dir, "straggler", f"{name}.json")
    try:
        study = json.load(open(study_path)).get("params", {})
    except (OSError, ValueError):
        study = {}
    if "speculation_recovered" in study:
        entry["watchdog_ms"] = study.get("watchdog_ms")
        entry["straggler"] = {
            "factor": study.get("straggler_factor"),
            "hedges_spawned": study.get("hedges_spawned"),
            "hedges_won": study.get("hedges_won"),
            "hedges_cancelled": study.get("hedges_cancelled"),
            "makespan_healthy_s": study.get("speculation_makespan_healthy"),
            "makespan_unhedged_s": study.get("speculation_makespan_unhedged"),
            "makespan_hedged_s": study.get("speculation_makespan_hedged"),
            "recovered": study.get("speculation_recovered"),
        }
        recovered = study["speculation_recovered"]
        if recovered < RECOVERY_FLOOR:
            print(f"GATE: {name} hedging recovered {recovered:.0%} "
                  f"< {RECOVERY_FLOOR:.0%} of the straggler slowdown",
                  file=sys.stderr)
            gate_failed = True
    else:
        print(f"GATE: {name} straggler rep produced no hedging account",
              file=sys.stderr)
        gate_failed = True
    base = base_by_name.get(name)
    if base and base.get("min_wall_ms"):
        entry["baseline_wall_ms"] = base["min_wall_ms"]
        entry["speedup"] = round(base["min_wall_ms"] / max(entry["min_wall_ms"], 1), 2)
    doc["pipelines"].append(entry)

with open("BENCH_PIPELINE.json", "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
sys.exit(1 if gate_failed else 0)
EOF

echo "wrote BENCH_PIPELINE.json" >&2
cat BENCH_PIPELINE.json

if [[ -n "$COMPARE" ]]; then
  python3 - "$COMPARE" <<'EOF'
import json, sys

THRESHOLD = 0.15   # fail on >15% slowdown
FLOOR = 0.01       # ignore phases under 1% of the baseline makespan
# Gated regardless of FLOOR: the solver inner loop and the batched
# Gram engine — the two phases the kernel work optimises.
ALWAYS_GATED = {"admm_local", "gram_build"}

old = json.load(open(sys.argv[1]))
new = json.load(open("BENCH_PIPELINE.json"))
old_by_name = {e["name"]: e for e in old.get("pipelines", [])}

failed = False
for entry in new["pipelines"]:
    base = old_by_name.get(entry["name"])
    if base is None:
        print(f"{entry['name']}: not in baseline, skipped")
        continue
    wall_new, wall_old = entry["min_wall_ms"], base.get("min_wall_ms")
    if wall_old:
        print(f"{entry['name']}: wall {wall_old} ms -> {wall_new} ms "
              f"({wall_new / wall_old - 1.0:+.1%})")
    old_conv, new_conv = base.get("convergence"), entry.get("convergence")
    if old_conv and new_conv:
        f_old = old_conv.get("nonconverged_fraction") or 0.0
        f_new = new_conv.get("nonconverged_fraction") or 0.0
        it_old = old_conv.get("median_admm_iterations")
        it_new = new_conv.get("median_admm_iterations")
        flag = ""
        if f_new > f_old + 1e-12:
            flag = "  REGRESSION (non-converged fraction grew)"
            failed = True
        print(f"  nonconverged     {f_old:12.4%}  -> {f_new:12.4%} {flag}")
        if it_old is not None and it_new is not None:
            print(f"  admm iter p50    {it_old:12.1f}  -> {it_new:12.1f}")
    # Clean-run numerical gate (schema 7): the figure datasets are
    # well-conditioned, so any guard intervention is a regression in the
    # solver stack — gated unconditionally, baseline or no baseline.
    num = entry.get("numerical")
    if num:
        fired = {k: num.get(k) or 0
                 for k in ("jitter_events", "rho_restarts", "dropped_tasks")}
        flag = ""
        if any(fired.values()):
            flag = "  REGRESSION (guards fired on clean input)"
            failed = True
        print(f"  numerical        jitter {fired['jitter_events']}, "
              f"restarts {fired['rho_restarts']}, "
              f"dropped {fired['dropped_tasks']}{flag}")
    old_phases = base.get("phases_model_s")
    if not old_phases:
        print(f"{entry['name']}: baseline has no phase data (schema v1?); "
              "phase comparison skipped")
        continue
    floor = FLOOR * base.get("makespan_model_s", 0.0)
    for phase, t_old in sorted(old_phases.items()):
        t_new = entry.get("phases_model_s", {}).get(phase)
        if t_new is None or (t_old < floor and phase not in ALWAYS_GATED):
            continue
        delta = t_new / t_old - 1.0
        flag = ""
        if delta > THRESHOLD:
            flag = f"  REGRESSION (> {THRESHOLD:.0%})"
            failed = True
        print(f"  {phase:16s} {t_old:12.6f}s -> {t_new:12.6f}s ({delta:+.1%}){flag}")
sys.exit(1 if failed else 0)
EOF
fi
