#!/usr/bin/env python3
"""Builds the UniMatch benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload books --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10   # every workload
    python3 perfbench/run.py --selftest                    # arithmetic tests

The last line of stdout is one JSON object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Everything the run writes (build tree, result records, traces)
goes under .bench_build/ in the checkout. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
EXE = BUILD_DIR / "unimatch_perfbench"
RUN_TIMEOUT_S = 170
# How fast a process sets up depends on where the host places it: in one set
# of ten runs a process set up in either ~0.085 s or ~0.13 s. So setup_s is
# the median over the run's own set-ups and those of a few short processes
# that only set up.
SETUP_PROCESSES = 4
SETUP_REPEATS = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def build(target):
    """Configures on first use, then builds `target` incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no UniMatch sources next to perfbench/; nothing to build")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def commit():
    """The git commit of the checkout, or "none" outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if (top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT
                and head.returncode == 0 and head.stdout.strip()):
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """A digest of every source the benchmark builds, so two runs share a
    determinism record only when they ran the same code."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def load_json(path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def save_json(path, value):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, indent=1, sort_keys=True))
    tmp.replace(path)


def check_determinism(source, workload, seed, info):
    """Flags a run whose NDCG differs from an earlier run of the same
    sources, workload and seed. Returns a problem string or None."""
    path = OUT_DIR / "ndcg_record.json"
    record = load_json(path, {})
    key = f"{source}|{workload}|{seed}"
    seen = {"ir_ndcg10": info.get("ir_ndcg10"), "ut_ndcg10": info.get("ut_ndcg10")}
    if key in record and record[key] != seen:
        return f"NDCG {seen} differs from an earlier run of this code and seed: {record[key]}"
    record[key] = seen
    save_json(path, record)
    return None


def setup_samples(info):
    return [float(x) for x in info["setup_samples_s"].split(",")]


def setup_only_samples(workload, seed):
    """Set-up times from SETUP_PROCESSES set-up-only processes, or None."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([str(EXE), "--workload", workload, "--seed", str(seed),
                               "--setup-only", str(SETUP_REPEATS)],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"perfbench: set-up-only run of {workload} exited with code {proc.returncode}")
            return None
        samples += setup_samples(json.loads(lines[-1])["info"])
    return samples


def run_once(spec, workload, seed, seconds, trace, source):
    trace_file = OUT_DIR / "traces" / f"{workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    extra_setups = [] if trace else setup_only_samples(workload, seed)
    if extra_setups is None:
        return None
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    env.pop("UNIMATCH_METRICS", None)  # the run reads the library's own metrics
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, env=env, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    out = json.loads(lines[-1])

    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(out["metrics"]) != sorted(want):
        log(f"perfbench: {workload} reported {sorted(out['metrics'])}, expected {sorted(want)}")
        return None
    if not trace:
        out["metrics"]["setup_s"]["value"] = statistics.median(
            setup_samples(out["info"]) + extra_setups)
    correct = bool(out["correct"])
    problem = check_determinism(source, workload, seed, out["info"])
    if problem:
        log("check failed: " + problem)
        correct = False
    result = {"correct": correct, "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": out["metrics"]}

    info = dict(out["info"], commit=commit(), source=source)
    save_json(OUT_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json",
              dict(result, info=info, traced_end_to_end=out["traced_end_to_end"]))
    log("environment: " + ", ".join(f"{k}={info[k]}" for k in
                                    ("commit", "source", "seed", "nproc", "kernel_backend",
                                     "compiler", "build_type")))
    log(f"open-loop generator lateness: p99 {float(info['generator_lag_p99_ms']):.3f} ms, "
        f"max {float(info['generator_lag_max_ms']):.3f} ms")
    if trace:
        print_overhead(workload, seed, out["traced_end_to_end"], spec)
    return result


def print_overhead(workload, seed, traced, spec):
    """Tracing overhead: traced end-to-end result minus the untraced run of
    the same seed, when one was recorded."""
    untraced = load_json(OUT_DIR / "results" / f"{workload}-seed{seed}-trace0.json", {})
    base = untraced.get("metrics", {})
    log(f"tracing overhead on {workload} (traced - untraced, seed {seed}):")
    for m in spec["end_to_end"]:
        name = m["name"]
        t = traced.get(name, {}).get("value")
        if t is None:
            continue
        if name in base:
            u = base[name]["value"]
            pct = 100.0 * (t - u) / u if u else 0.0
            log(f"  {name:22s} {t:14.6g} - {u:14.6g} = {t - u:+.6g} {m['unit']} ({pct:+.1f}%)")
        else:
            log(f"  {name:22s} {t:14.6g} {m['unit']} (no untraced run of this seed yet)")


def print_table(workload, result, spec, trace):
    meta = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    print(f"workload {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:16.6f} {m['unit']:10s} "
              f"({meta[name]['better']} is better)")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's arithmetic")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = load_json(spec_path, None)
    if spec is None:
        log(f"perfbench: cannot read {spec_path}")
        return 1
    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        cpp = subprocess.run([str(BUILD_DIR / "perfbench_tests")]).returncode
        py = subprocess.run([sys.executable, "-B", str(BENCH_DIR / "tests" / "test_scripts.py")]).returncode
        return cpp or py

    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.all else [args.workload]
    if not args.all and args.workload not in names:
        log(f"perfbench: --workload must be one of {names}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build("unimatch_perfbench"):
        log("perfbench: build failed")
        return 1
    source = source_digest()
    results = {}
    for workload in workloads:
        result = run_once(spec, workload, args.seed, seconds, bool(args.trace), source)
        if result is None:
            return 1
        results[workload] = result
        print_table(workload, result, spec, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
