#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|smoke] [--out results.jsonl]

Run from the root of the repository. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that links the repository's crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build).

Standard output ends with one JSON object with the keys correct, attempted,
failed and metrics. The lines before it are the workload's detail object and
the run metadata (git revision, source digest, rustc version, core count,
seed, traced flag). With --out the full record is appended to a JSON-lines
file that perfbench/compare.py reads. The exit code is 0 only for a run whose
output checks passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
BINARY = "eea-perfbench"
WORKLOADS = ("dse-paper", "fleet-campaign", "gateway-noisy-soak", "bist-profiles")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "smoke"))
    p.add_argument("--out", help="append the run record to this JSON-lines file")
    return p.parse_args(argv)


def target_dir():
    tdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return tdir if tdir.is_absolute() else ROOT / tdir


def build():
    """Builds the benchmark; False when the sources are incomplete or broken."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False


def command_output(cmd):
    """First line of a command's output, or None when it cannot run."""
    # Keep git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = r.stdout.strip().splitlines()
    return out[0] if r.returncode == 0 and out else None


def source_digest():
    """SHA-256 over the sources the benchmark builds: it identifies the
    measured code where no git revision is available."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", MANIFEST, HERE / "Cargo.lock"]
    for base in (ROOT / "crates", ROOT / "stubs", HERE / "src"):
        files += [p for p in base.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml")]
    for path in sorted(set(files)):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "scale": args.scale,
        "git_revision": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv):
    args = parse_args(argv)
    if not build():
        print("error: the benchmark does not build here", file=sys.stderr)
        return 1
    meta = metadata(args)
    cmd = [
        str(target_dir() / "release" / BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    except (IndexError, ValueError, KeyError, TypeError) as e:
        print(f"error: unreadable benchmark output ({e})", file=sys.stderr)
        return 1
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("error: the result line has the wrong keys", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"meta": meta}))
    print(lines[-1])
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta, "detail": detail, "result": result}) + "\n")
    return 0 if run.returncode == 0 and result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
