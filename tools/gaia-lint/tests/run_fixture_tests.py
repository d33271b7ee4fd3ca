#!/usr/bin/env python3
"""Fixture suite for gaia-lint.

Each fixture under fixtures/ seeds exactly the violations its header
comment names; the lint must flag 100% of them (rule AND symbol), must
not flag the deliberately-adjacent allowed shapes, and must report the
suppression meta-rules on the malformed/stale suppression fixtures.
Registered with ctest as GaiaLintFixtures.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
LINT = os.path.join(HERE, os.pardir, "gaia_lint.py")

# fixture -> (findings that MUST be present, symbols that MUST be absent)
CASES = {
    "freeze_fields_bad.cpp": (
        [("freeze-fields", "Readers"), ("freeze-fields", "Count")],
        ["Ids", "size"],
    ),
    "freeze_methods_bad.cpp": (
        [("freeze-methods", "bump")],
        ["value", "FrozenCounterTier", "~FrozenCounterTier"],
    ),
    "epoch_invalidate_bad.cpp": (
        [("epoch-invalidate", "setRoot"), ("epoch-invalidate", "clearNodes")],
        ["addNode", "root"],
    ),
    "scratch_local_container_bad.cpp": (
        [("scratch-local-container", "widenStep:vector")],
        ["widenOk:vector"],
    ),
    "scratch_member_container_bad.cpp": (
        [("scratch-local-container", "refine:vector"),
         ("scratch-local-container", "relabel:unordered_map"),
         ("scratch-local-container", "emit:vector")],
        ["borrow:vector", "tally:vector"],
    ),
    "banned_container_bad.cpp": (
        [("banned-container", "std::map")],
        [],
    ),
    "banned_rand_bad.cpp": (
        [("banned-rand", "rand")],
        ["Rng", "mt19937"],
    ),
    "worker_noexcept_bad.cpp": (
        [("worker-noexcept", "throw"), ("worker-noexcept", "abort")],
        ["exit", "runJobContained"],
    ),
    "no_detached_thread_bad.cpp": (
        [("no-detached-thread", "detach"),
         ("no-detached-thread", "Pump"),
         ("no-detached-thread", "Crew")],
        ["start", "fireAndForget"],
    ),
}


def run_lint(files, extra=(), default_paths=False):
    """Lints `files`; the fixture directory is the hot and worker path
    unless `default_paths` leaves the linter's own defaults in force."""
    with tempfile.NamedTemporaryFile("r", suffix=".json",
                                     delete=False) as tmp:
        report_path = tmp.name
    paths = [] if default_paths else ["--hot-path", FIXTURES,
                                      "--worker-path", FIXTURES]
    try:
        proc = subprocess.run(
            [sys.executable, LINT, *files, *paths,
             "--json", report_path, *extra],
            capture_output=True, text=True)
        with open(report_path, encoding="utf-8") as fp:
            report = json.load(fp)
        return proc.returncode, report
    finally:
        os.unlink(report_path)


def main():
    failures = []

    def check(cond, what):
        if cond:
            print(f"  ok    {what}")
        else:
            print(f"  FAIL  {what}")
            failures.append(what)

    for fixture, (must, must_not) in sorted(CASES.items()):
        print(f"[{fixture}]")
        rc, report = run_lint([os.path.join(FIXTURES, fixture)])
        found = {(f["rule"], f["symbol"]) for f in report["findings"]}
        check(rc == 1, "exit code 1 (findings present)")
        for want in must:
            check(want in found, f"flags {want[0]} on {want[1]}")
        for sym in must_not:
            hits = [f for f in found if f[1] == sym]
            check(not hits, f"does not flag allowed symbol {sym}")
        # The epoch-invalidate hook helper in the epoch fixture is a
        # known extra (mirrors the real tree's suppression); every other
        # fixture must flag nothing beyond its seeded violations.
        if fixture != "epoch_invalidate_bad.cpp":
            extras = found - set(must)
            check(not extras, f"no extra findings (got {sorted(extras)})")

    # src/pat is a default hot path: the pattern domain runs on every
    # clause step, so its maps live in PatScratch, not in std::map.
    print("[pat_hot_path_bad.cpp under src/pat, default hot paths]")
    fixture = os.path.join(FIXTURES, "pat_hot_path_bad.cpp")
    with tempfile.TemporaryDirectory() as tmp:
        pat_dir = os.path.join(tmp, "src", "pat")
        os.makedirs(pat_dir)
        target = os.path.join(pat_dir, "PatFixture.h")
        shutil.copy(fixture, target)
        rc, report = run_lint([target], default_paths=True)
    found = {(f["rule"], f["symbol"]) for f in report["findings"]}
    must = {("banned-container", "std::map"),
            ("scratch-local-container", "copyArgs:vector")}
    check(rc == 1, "exit code 1 (findings present)")
    for want in sorted(must):
        check(want in found, f"flags {want[0]} on {want[1]}")
    check(found == must, f"no extra findings (got {sorted(found - must)})")
    rc, report = run_lint([fixture], default_paths=True)
    check(rc == 0 and not report["findings"],
          "the same file outside the hot paths is clean")

    print("[clean_ok.cpp]")
    rc, report = run_lint(
        [os.path.join(FIXTURES, "clean_ok.cpp")],
        extra=["--suppressions",
               os.path.join(FIXTURES, "clean_suppressions.txt")])
    check(rc == 0, "exit code 0 (clean)")
    check(not report["findings"], "zero findings")
    check(report["suppressions_used"] == 1, "hook suppression consumed")

    print("[bad_suppressions.txt]")
    rc, report = run_lint(
        [os.path.join(FIXTURES, "clean_ok.cpp")],
        extra=["--suppressions",
               os.path.join(FIXTURES, "bad_suppressions.txt")])
    rules = {f["rule"] for f in report["findings"]}
    check(rc == 1, "exit code 1")
    check("suppression-syntax" in rules,
          "missing justification is reported")

    print("[unused_suppressions.txt]")
    rc, report = run_lint(
        [os.path.join(FIXTURES, "clean_ok.cpp")],
        extra=["--suppressions",
               os.path.join(FIXTURES, "unused_suppressions.txt")])
    rules = {f["rule"] for f in report["findings"]}
    check(rc == 1, "exit code 1")
    check("unused-suppression" in rules, "stale suppression is reported")
    check("suppression-syntax" not in rules, "justified lines parse")

    print()
    if failures:
        print(f"{len(failures)} fixture check(s) FAILED")
        return 1
    print("all fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
