#!/usr/bin/env python3
"""Build and run the layered benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from the checkout's own sources with dune,
runs it, stamps the result with its provenance and keeps a copy under
perfbench/out/.  The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a
result when the checkout cannot build the benchmark.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
EXE = BUILD_DIR / "default" / "perfbench" / "main.exe"
OUT_DIR = ROOT / "perfbench" / "out"
# A run must end within 180 s; the binary itself stops after its
# --seconds of points plus set-up and probes.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return r.stdout.strip() if r.returncode == 0 else None


def source_md5():
    """Digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and (p.suffix in (".ml", ".mli") or p.name == "dune"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not (ROOT / needed).exists():
            fail(f"{needed} is missing: run from a full checkout of the repository")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
             "--cache=disabled",
             "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if build.returncode != 0:
        fail("build failed")

    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    detail, result_line = json.loads(lines[-2]), lines[-1]
    result = json.loads(result_line)

    detail["provenance"] = {
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "ocaml_version": detail.get("ocaml_version"),
        "git_commit": git_commit(),
        "source_md5": source_md5(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")

    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    print(result_line)


if __name__ == "__main__":
    main()
