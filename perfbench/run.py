#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload wire_mixed --seed 1 --seconds 10 --trace 0

The first run in a tree configures and builds perfbench/ (which compiles
../src) and trains the model suite once; later runs rebuild incrementally
and load the cached models. Everything is written under the build root,
`.bench_build/` unless CARGO_TARGET_DIR names another directory. The last
line of standard output is the JSON result; on any failure the script
exits non-zero without printing one.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wire_mixed", "pcap_mixed", "sharded_mixed", "slot_fleet")
BUILD_TIMEOUT_S = 840
WARM_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def src_digest():
    """SHA-256 over every file under src/: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unknown"


def run_logged(cmd, env, timeout):
    """Runs a helper step with its output on stderr; True on success."""
    try:
        result = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout,
                                check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(map(str, cmd))}")
        return False
    return result.returncode == 0


def build(build_root, env):
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, env, BUILD_TIMEOUT_S):
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", str(build_dir), "-j", jobs], env,
                      BUILD_TIMEOUT_S):
        return None
    return build_dir / "cgctx_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("last output line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys are wrong")
        return False
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        log("metrics differ from BENCHMARK.json")
        return False
    return result["correct"] is True and result["attempted"] >= 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}")
        return 1
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_root / "tmp"
    work = build_root / "work"
    tmp.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    binary = build(build_root, env)
    if binary is None:
        log("build failed")
        return 1
    digest = src_digest()
    models = build_root / "models" / digest[:16]
    if not (models / "pattern.model").exists():
        if not run_logged([str(binary), "--warm-models", str(models)], env,
                          WARM_TIMEOUT_S):
            log("model training failed")
            return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--models", str(models), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1],
                                                             args.trace):
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} failed (exit code {proc.returncode})")
        return 1
    print(f"meta: commit={git_commit()} src_sha256={digest}")
    print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
