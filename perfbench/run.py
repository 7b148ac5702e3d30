#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N] [--seconds S]

Run it from the root of a checkout.  The benchmark is an OCaml
executable (perfbench/s1bench.ml) built with dune into .bench_build/;
this script builds it, runs it with the same arguments, and passes its
output through.  The last line of standard output is the JSON result.

--selftest checks determinism instead: two runs of every workload at
one seed must agree on sim_cycles, code_words, peak_heap_mb, ok_ratio
and the first-pass result digest, and a different seed must change the
fuzz_lattice inputs (digest) and sim_cycles.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "s1bench.exe")
WORKLOADS = ["gabriel_sim", "fuzz_lattice", "serve_warm"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    # The benchmark links the compiler's libraries, so the compiler's
    # sources must be here; a tree holding only the benchmark cannot run.
    for need in ("dune-project", os.path.join("lib", "core"), os.path.join("test", "corpus")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full checkout")
    cmd = dune_command() + [
        "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
        "--display", "quiet", "./perfbench/s1bench.exe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run(workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, stdout lines, parsed result or None)."""
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
            result = None
    return proc.returncode, lines, result


def digest(lines):
    for line in lines:
        if "result digest" in line:
            return line.rsplit(":", 1)[1].strip()
    return None


def selftest(seed, seconds):
    exact = ["sim_cycles", "code_words", "peak_heap_mb", "ok_ratio"]
    ok = True

    def observe(workload, s):
        code, lines, result = run(workload, s, seconds, 0, echo=False)
        if code != 0 or result is None:
            fail(f"selftest: {workload} seed {s} failed (exit {code})")
        values = {k: result["metrics"][k]["value"] for k in exact}
        values["digest"] = digest(lines)
        return values

    for workload in WORKLOADS:
        a = observe(workload, seed)
        b = observe(workload, seed)
        for key in a:
            same = a[key] == b[key]
            ok &= same
            print(f"{workload:13} seed {seed} twice: {key:13} {a[key]!s:34} {'same' if same else 'DIFFERS: ' + str(b[key])}")
        if workload == "fuzz_lattice":
            c = observe(workload, seed + 1)
            for key in ("digest", "sim_cycles"):
                moved = c[key] != a[key]
                ok &= moved
                print(f"{workload:13} seed {seed + 1}:   {key:13} {c[key]!s:34} {'changed' if moved else 'UNCHANGED'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    build()
    if a.selftest:
        return selftest(a.seed, min(a.seconds, 3))
    code, _, result = run(a.workload, a.seed, a.seconds, a.trace)
    if code != 0:
        fail(f"{a.workload} exited with code {code}", code)
    if result is None:
        fail("no result line")
    if not result["correct"]:
        fail(f"{a.workload}: {result['failed']} of {result['attempted']} units failed their output check", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
