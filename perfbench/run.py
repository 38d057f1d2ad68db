#!/usr/bin/env python3
"""Builds and runs the riskroute end-to-end benchmark.

    python3 perfbench/run.py --workload route_serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
serving stack from ../src plus the benchmark into .bench_build/perfbench
(later calls rebuild incrementally), runs the benchmark's self-tests, then
one benchmark run. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's report (host and build fingerprint, the workload's named metrics
with sample counts, the work ledger). Exits non-zero on a build failure,
a failed self-test or any failed correctness check.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
RUN_DIR = OUT / "run"
LEDGER_DIR = OUT / "ledger"
RUN_TIMEOUT_S = 175
# Compiler and runtime scratch files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(OUT / "tmp"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """The git commit of ROOT, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """A digest of the sources the build reads: src/ and the benchmark.

    Uncommitted edits change it, so it names what was actually built."""
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no riskroute sources at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    log_path = OUT / "perfbench-build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=ENV).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def check_ledger(report, workload, seed, digest):
    """Stable work counters must repeat exactly for one seed and source.

    Returns "first" when no earlier traced run of this seed was made on
    the same sources, else "repeat" or "differs"."""
    LEDGER_DIR.mkdir(parents=True, exist_ok=True)
    path = LEDGER_DIR / f"{workload}-{seed}-{digest.split(':')[-1]}.json"
    if path.is_file():
        same = json.loads(path.read_text()) == report["ledger"]
        return "repeat" if same else "differs"
    path.write_text(json.dumps(report["ledger"], sort_keys=True) + "\n")
    return "first"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              capture_output=True, text=True, timeout=120,
                              env=ENV)
    if selftest.returncode != 0:
        fail("self-tests failed:\n" + selftest.stderr)

    digest = source_digest()
    commit = git_commit()
    source = f"{commit} {digest}" if commit else digest
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.relpath(RUN_DIR, ROOT),
               "--source-id", source]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or len(lines) < 2:
        fail(f"benchmark exited with code {run.returncode}")
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if args.trace:
        report["ledger_check"] = check_ledger(report, args.workload, args.seed,
                                              digest)
        if report["ledger_check"] == "differs":
            print("perfbench: work ledger differs from an earlier run of "
                  "this seed on the same sources", file=sys.stderr)
            result["correct"] = False
            result["failed"] += 1
    print("\n".join(lines[:-2]))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
