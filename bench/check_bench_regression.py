#!/usr/bin/env python3
"""Perf-regression gates for the bench snapshots.

Table 3 gate — compares a freshly written BENCH_table3.json against the
committed baseline (bench/BENCH_table3.baseline.json) and fails when

  * total_solve_seconds regresses by more than the tolerance
    (default 30%, CI runners are noisy but not *that* noisy),
  * any single program's solve_seconds regresses by more than the
    per-program tolerance (50%) — a regression confined to one
    widening-heavy program must not hide inside a stable total. Only
    programs whose baseline time clears PER_PROGRAM_FLOOR (5 ms) are
    gated; below that, timing is pure scheduler noise, or
  * any program reports converged: false (a fixpoint loop fell back to
    top — the result is sound but not the analysis' normal output, and
    timing comparisons against it are meaningless).

Throughput gate (--throughput) — compares BENCH_throughput.json against
bench/BENCH_throughput.baseline.json and fails when

  * identical_all is false (a concurrent run diverged from the
    sequential oracle: a correctness bug, not a perf matter),
  * failed_jobs is nonzero (the throughput workload contains only
    well-formed jobs, so any per-job failure — deadline, contained
    exception, parse error — is a bug; first_error is printed for
    the diagnosis),
  * jobs_per_sec_max regresses by more than the tolerance, or
  * the 8-worker run scales below the floor for this machine's core
    count: 3x over 1 worker with >= 8 hardware threads (the batch
    runtime's contract), 1.5x with 4-7 (standard GitHub runners have 4
    vCPUs — a serialization bug shows up as ~1.0x there, so the gate
    must stay live on CI). Below 4 threads the floor is physically
    unreachable and the check is skipped.

  If the throughput baseline file does not exist yet the perf comparison
  is skipped with a note (first run seeds it); the identity check always
  runs.

Per-program RSS gate (inside the table 3 gate) — runs only when BOTH the
current snapshot and the baseline report peak_rss_per_program: true
(the /proc/self/clear_refs watermark reset worked, so the figures are
per-program rather than the monotone process-wide getrusage maximum).
Otherwise the RSS columns are printed as notes and the gate is skipped
with a logged notice — gating monotone numbers would fail on run order,
not on memory use. Gated programs fail at RSS_TOLERANCE above baseline;
programs below RSS_FLOOR_KB are noise and never gated.

Service gate (--service) — checks BENCH_service.json (bench/service_soak,
the resident-service overload ramp) and fails when

  * any leg reports unstructured_failures or non_rejected_refusals
    (every job the service does not run must resolve its ticket with
    FailKind::Rejected — refusal is never an exception, never silent),
  * identical_all is false (an admitted, undegraded job's result
    diverged from the sequential oracle),
  * the heaviest non-chaos leg (4x measured capacity) does not shed: an
    overloaded open-loop generator must see shed_rate >= SERVICE_MIN_SHED_4X,
    or its admitted p99 exceeds deadline_ms * (1 + SERVICE_P99_HEADROOM)
    + SERVICE_P99_SLACK_MS (admission control must protect the jobs it
    accepts rather than queue them past their deadline), or
  * the lightest leg (0.5x capacity) sheds more than SERVICE_MAX_SHED_HALF
    (a service that refuses work at half its measured capacity has a
    broken admission path, not an overload problem).

  Chaos legs (chaos: true) are gated structurally only: fault-lengthened
  run times make their latency and shed figures configuration, not
  regression. The service gate is self-contained (no baseline file):
  the load multiples are derived from the same run's measured capacity,
  so the thresholds are machine-relative by construction.

Usage:
  check_bench_regression.py [<table3.json> [<table3-baseline.json>]]
      [--throughput <throughput.json> [<throughput-baseline.json>]]
      [--service <service.json>]
The table3 positional may be omitted when at least one mode flag is
given (the service-soak CI job gates only its own snapshot).
Exit status: 0 ok, 1 regression/non-convergence/divergence, 2 bad invocation.
"""

import json
import os
import sys

TOLERANCE = 0.30
# Keys a snapshot must carry before any comparison runs. Validated up
# front so a harness/schema mismatch reads as "file X is missing key Y"
# (exit 2, configuration error) instead of a bare KeyError traceback
# masquerading as a perf regression.
TABLE3_KEYS = ("programs", "total_solve_seconds")
TABLE3_PROGRAM_KEYS = ("key", "solve_seconds")
THROUGHPUT_KEYS = ("identical_all", "jobs_per_sec_max", "failed_jobs")
# Per-program gate: fail when one program regresses by more than this,
# but only gate programs whose baseline solve time clears the floor
# (timing noise dominates below it).
PER_PROGRAM_TOLERANCE = 0.50
PER_PROGRAM_FLOOR = 0.005  # seconds
# (min hardware threads, required 8-worker-over-1-worker scaling).
SCALING_FLOORS = [(8, 3.0), (4, 1.5)]
# Per-program RSS gate: only live when both snapshots carry real
# per-program watermarks (peak_rss_per_program: true). Allocator noise
# and page-granularity effects dominate small figures, hence the floor.
RSS_TOLERANCE = 0.50
RSS_FLOOR_KB = 2048
# Service soak: the 4x leg must shed at least this fraction (an
# open-loop generator at 4x measured capacity leaves ~3/4 of the offered
# load unservable; 20% is far below that but far above noise), the 0.5x
# leg at most this fraction, and admitted p99 on non-chaos legs must
# stay within deadline * (1 + headroom) + slack (the end-to-end deadline
# bounds queue wait; the slack absorbs the final job's run time and
# scheduler jitter on CI runners).
SERVICE_MIN_SHED_4X = 0.20
SERVICE_MAX_SHED_HALF = 0.10
SERVICE_P99_HEADROOM = 0.25
SERVICE_P99_SLACK_MS = 20.0
SERVICE_KEYS = ("deadline_ms", "capacity", "legs", "identical_all")
SERVICE_LEG_KEYS = ("multiple", "chaos", "submitted", "shed_rate", "p99_ms",
                    "unstructured_failures", "non_rejected_refusals")


def fail_config(msg):
    """Configuration/schema problem: not a regression, exit 2."""
    print(f"ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def load_snapshot(path, required_keys, label):
    """Loads a bench snapshot and verifies the schema up front."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        fail_config(f"cannot read {label} '{path}': {e}")
    except json.JSONDecodeError as e:
        fail_config(f"{label} '{path}' is not valid JSON: {e}")
    if not isinstance(data, dict):
        fail_config(
            f"{label} '{path}': expected a JSON object, got "
            f"{type(data).__name__}"
        )
    missing = [k for k in required_keys if k not in data]
    if missing:
        fail_config(
            f"{label} '{path}' is missing required key(s): "
            f"{', '.join(missing)} — was it written by the matching bench "
            f"harness run with --json?"
        )
    return data


def validate_programs(data, path, label):
    progs = data["programs"]
    if not isinstance(progs, list) or not progs:
        fail_config(f"{label} '{path}': 'programs' must be a non-empty list")
    for i, prog in enumerate(progs):
        if not isinstance(prog, dict):
            fail_config(
                f"{label} '{path}': programs[{i}] is not an object"
            )
        missing = [k for k in TABLE3_PROGRAM_KEYS if k not in prog]
        if missing:
            fail_config(
                f"{label} '{path}': programs[{i}] is missing "
                f"{', '.join(missing)}"
            )


def check_table3(current_path, baseline_path):
    current = load_snapshot(current_path, TABLE3_KEYS, "table3 snapshot")
    baseline = load_snapshot(baseline_path, TABLE3_KEYS, "table3 baseline")
    validate_programs(current, current_path, "table3 snapshot")
    validate_programs(baseline, baseline_path, "table3 baseline")

    failed = False

    for prog in current["programs"]:
        if not prog.get("converged", True):
            print(f"FAIL: {prog['key']} did not converge")
            failed = True

    cur = current["total_solve_seconds"]
    base = baseline["total_solve_seconds"]
    limit = base * (1.0 + TOLERANCE)
    verdict = "ok" if cur <= limit else "REGRESSION"
    print(
        f"total_solve_seconds: current {cur:.3f}s vs baseline {base:.3f}s "
        f"(limit {limit:.3f}s at +{TOLERANCE:.0%}) -> {verdict}"
    )
    if cur > limit:
        failed = True

    # Per-program RSS is gated only when both runs produced true
    # per-program watermarks; the getrusage fallback is the monotone
    # process-wide maximum, where a "regression" is an artifact of run
    # order, not of memory use.
    rss_gated = current.get("peak_rss_per_program", False) and baseline.get(
        "peak_rss_per_program", False
    )
    if not rss_gated:
        print(
            "per-program RSS not gated: peak_rss_per_program is false in "
            "the snapshot or the baseline (watermark reset unavailable; "
            "figures are the monotone getrusage maximum)"
        )

    # Per-program deltas. Programs above the noise floor are gated at
    # PER_PROGRAM_TOLERANCE so a regression confined to one program
    # (e.g. the widening-heavy PR/RE) cannot hide inside the total.
    base_by_key = {p["key"]: p for p in baseline["programs"]}
    for prog in current["programs"]:
        b = base_by_key.get(prog["key"])
        if b is None:
            continue
        delta = prog["solve_seconds"] - b["solve_seconds"]
        rss = prog.get("peak_rss_kb")
        rss_note = f"  rss {rss} KiB" if rss is not None else ""
        gated = b["solve_seconds"] >= PER_PROGRAM_FLOOR
        limit = b["solve_seconds"] * (1.0 + PER_PROGRAM_TOLERANCE)
        if not gated:
            verdict = "(not gated: below noise floor)"
        elif prog["solve_seconds"] <= limit:
            verdict = "ok"
        else:
            verdict = f"REGRESSION (limit {limit:.4f}s at +{PER_PROGRAM_TOLERANCE:.0%})"
            failed = True
        if rss_gated and rss is not None and b.get("peak_rss_kb") is not None:
            rss_base = b["peak_rss_kb"]
            rss_limit = rss_base * (1.0 + RSS_TOLERANCE)
            if rss_base < RSS_FLOOR_KB:
                pass  # below the noise floor: note only
            elif rss > rss_limit:
                verdict += (
                    f"  RSS REGRESSION ({rss} KiB vs {rss_base} KiB, "
                    f"limit {rss_limit:.0f} at +{RSS_TOLERANCE:.0%})"
                )
                failed = True
        print(
            f"  {prog['key']:4s} {b['solve_seconds']:8.4f}s -> "
            f"{prog['solve_seconds']:8.4f}s ({delta:+.4f}s){rss_note}  {verdict}"
        )

    return failed


def check_throughput(current_path, baseline_path):
    current = load_snapshot(
        current_path, THROUGHPUT_KEYS, "throughput snapshot"
    )

    failed = False

    if not current.get("identical_all", False):
        print("FAIL: concurrent batch results diverged from the sequential oracle")
        failed = True

    failed_jobs = current["failed_jobs"]
    if failed_jobs:
        first = current.get("first_error", "")
        print(
            f"FAIL: {failed_jobs} job(s) failed in the throughput batch"
            + (f" — first error: {first}" if first else "")
        )
        failed = True
    else:
        print("failed_jobs: 0 -> ok")

    hw = current.get("hardware_concurrency", 0)
    scaling = current.get("scaling_8w_over_1w", 0.0)
    floor = next((f for min_hw, f in SCALING_FLOORS if hw >= min_hw), None)
    if floor is not None:
        verdict = "ok" if scaling >= floor else "REGRESSION"
        print(
            f"throughput scaling: 8w/1w {scaling:.2f}x on {hw} hardware "
            f"threads (floor {floor:.1f}x) -> {verdict}"
        )
        if scaling < floor:
            failed = True
    else:
        print(
            f"throughput scaling: 8w/1w {scaling:.2f}x — not gated "
            f"({hw} hardware threads < {SCALING_FLOORS[-1][0]})"
        )

    if not os.path.exists(baseline_path):
        print(
            f"throughput baseline {baseline_path} not found; skipping the "
            f"jobs/sec comparison (seed it from this run's snapshot)"
        )
        return failed

    baseline = load_snapshot(
        baseline_path, ("jobs_per_sec_max",), "throughput baseline"
    )
    cur = current["jobs_per_sec_max"]
    base = baseline["jobs_per_sec_max"]
    limit = base * (1.0 - TOLERANCE)
    verdict = "ok" if cur >= limit else "REGRESSION"
    print(
        f"jobs_per_sec_max: current {cur:.1f} vs baseline {base:.1f} "
        f"(limit {limit:.1f} at -{TOLERANCE:.0%}) -> {verdict}"
    )
    if cur < limit:
        failed = True
    return failed


def check_service(path):
    current = load_snapshot(path, SERVICE_KEYS, "service snapshot")

    failed = False

    legs = current["legs"]
    if not isinstance(legs, list) or not legs:
        fail_config(f"service snapshot '{path}': 'legs' must be a non-empty list")
    for i, leg in enumerate(legs):
        if not isinstance(leg, dict):
            fail_config(f"service snapshot '{path}': legs[{i}] is not an object")
        missing = [k for k in SERVICE_LEG_KEYS if k not in leg]
        if missing:
            fail_config(
                f"service snapshot '{path}': legs[{i}] is missing "
                f"{', '.join(missing)}"
            )

    if not current.get("identical_all", False):
        print(
            "FAIL: an admitted, undegraded job's result diverged from the "
            "sequential oracle"
        )
        failed = True

    deadline = current["deadline_ms"]
    p99_limit = deadline * (1.0 + SERVICE_P99_HEADROOM) + SERVICE_P99_SLACK_MS

    for leg in legs:
        mult = leg["multiple"]
        chaos = leg.get("chaos", False)
        tag = f"{mult:.1f}x" + (" (chaos)" if chaos else "")
        unstructured = leg["unstructured_failures"]
        bad_rejects = leg["non_rejected_refusals"]
        if unstructured:
            print(
                f"FAIL: {tag} leg: {unstructured} job(s) failed without a "
                f"structured FailKind"
            )
            failed = True
        if bad_rejects:
            print(
                f"FAIL: {tag} leg: {bad_rejects} refused job(s) resolved "
                f"without FailKind::Rejected"
            )
            failed = True

        shed = leg["shed_rate"]
        p99 = leg["p99_ms"]
        notes = []
        if chaos:
            notes.append("latency/shed not gated (chaos leg)")
        else:
            if p99 > p99_limit:
                notes.append(
                    f"P99 REGRESSION ({p99:.1f}ms > limit {p99_limit:.1f}ms "
                    f"for a {deadline}ms deadline)"
                )
                failed = True
            if mult >= 4.0 and shed < SERVICE_MIN_SHED_4X:
                notes.append(
                    f"SHED TOO LOW ({shed:.1%} < {SERVICE_MIN_SHED_4X:.0%} "
                    f"at {mult:.0f}x capacity — overload is not shedding)"
                )
                failed = True
            if mult <= 0.5 and shed > SERVICE_MAX_SHED_HALF:
                notes.append(
                    f"SHED TOO HIGH ({shed:.1%} > {SERVICE_MAX_SHED_HALF:.0%} "
                    f"at {mult:.1f}x capacity — admission is refusing "
                    f"servable work)"
                )
                failed = True
        if not notes:
            notes.append("ok")
        print(
            f"  service {tag:12s} submitted {leg['submitted']:>7} "
            f"shed {shed:6.1%}  p99 {p99:8.1f}ms  {'; '.join(notes)}"
        )

    return failed


def main(argv):
    args = argv[1:]
    tp_current = tp_baseline = None
    sv_current = None
    if "--service" in args:
        i = args.index("--service")
        if i + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        sv_current = args[i + 1]
        args = args[:i] + args[i + 2 :]
    if "--throughput" in args:
        i = args.index("--throughput")
        tail = args[i + 1 :]
        if not tail:
            print(__doc__, file=sys.stderr)
            return 2
        tp_current = tail[0]
        tp_baseline = (
            tail[1] if len(tail) > 1 else "bench/BENCH_throughput.baseline.json"
        )
        args = args[:i]

    any_mode = tp_current is not None or sv_current is not None
    if len(args) > 2 or (not args and not any_mode):
        print(__doc__, file=sys.stderr)
        return 2

    failed = False
    if args:
        table3_baseline = (
            args[1] if len(args) == 2 else "bench/BENCH_table3.baseline.json"
        )
        failed = check_table3(args[0], table3_baseline)
    if tp_current is not None:
        failed = check_throughput(tp_current, tp_baseline) or failed
    if sv_current is not None:
        failed = check_service(sv_current) or failed

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
