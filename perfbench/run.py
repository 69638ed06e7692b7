#!/usr/bin/env python3
"""Build the repo benchmark and run one workload (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload alexa34-matrix --seed 1 \
        --seconds 10 --trace 0 [--jobs N]
    python3 perfbench/run.py --workload all --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's sources into the build
directory named by CARGO_TARGET_DIR (default .bench_build), under
perfbench/. Build output goes to stderr; stdout carries the benchmark's
report, whose last line is the JSON result. `--workload all` runs every
workload in turn and ends with a table of every metric by workload, name
and unit. --trace 1 also writes a
Chrome Trace Event file under <build dir>/traces/. Exit codes: 0 on a
correct run, 1 if the run failed or a check broke, 2 on a usage error,
3 if the simulator sources are missing.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "parcel_perfbench"
SELFTEST = "perfbench_selftest"
REQUIRED_SOURCES = ("src/CMakeLists.txt", "bench/common.cpp", "bench/common.hpp")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def positive_int(limit):
    def parse(text):
        if not re.fullmatch(r"[1-9][0-9]*", text) or int(text) > limit:
            raise argparse.ArgumentTypeError(
                f"expected an integer in 1..{limit}, got {text!r}")
        return int(text)
    return parse


def seed(text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"expected an unsigned 64-bit integer, got {text!r}")
    return int(text)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    p.add_argument("--workload", choices=workloads + ["all"])
    p.add_argument("--seed", type=seed, default=1)
    p.add_argument("--seconds", type=positive_int(600), default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--jobs", type=positive_int(os.cpu_count() or 1))
    args = p.parse_args(argv)
    if args.self_test == (args.workload is not None):
        p.error("give exactly one of --workload and --self-test")
    return args


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(d), "perfbench")


def build(target):
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", str(os.cpu_count() or 1)], stdout=log, check=True)
    return os.path.join(out, target)


def revision():
    """The git commit (suffixed -dirty for uncommitted changes) when the
    checkout is a repository, else a digest of the sources the benchmark
    compiles, for plain source checkouts."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                            "--abbrev=40"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def check_result(line, spec, traced):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, each a number with the declared unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise ValueError(f"metrics {sorted(got.items())} differ from BENCHMARK.json")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        raise ValueError("a metric value is not a number")
    if result["attempted"] < 1:
        raise ValueError("no load attempted")


def run_all(args, spec):
    """Each workload in turn, then one table of every metric."""
    rows, status = [], 0
    for w in spec["workloads"]:
        args.workload = w["name"]
        code, result = run_benchmark(args, spec)
        status = status or code
        for name, m in (result or {}).get("metrics", {}).items():
            rows.append((w["name"], name, m["value"], m["unit"]))
        if result is not None:
            rows.append((w["name"], "loads_failed", result["failed"], "count"))
    print(f"{'workload':18} {'metric':34} {'value':>18}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:18} {name:34} {value:18.6g}  {unit}")
    return status


def run_benchmark(args, spec):
    """Returns (exit code, parsed result or None)."""
    missing = [s for s in REQUIRED_SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        print(f"error: simulator sources missing: {', '.join(missing)}", file=sys.stderr)
        return 3, None
    binary = build(BINARY)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.json"), "--commit", revision()]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        check_result(lines[-1] if lines else "", spec, args.trace == "1")
    except ValueError as e:
        # A run that died before its result: pass its report through.
        print("\n".join(line for line in lines if not line.startswith("{")))
        if proc.returncode != 0:
            return proc.returncode, None
        print(f"error: malformed result line: {e}", file=sys.stderr)
        return 1, None
    print("\n".join(lines))
    return proc.returncode, json.loads(lines[-1])


def self_test():
    binary = build(SELFTEST)
    unit = subprocess.run([binary]).returncode
    cli = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run_cli"],
                         cwd=os.path.join(HERE, "tests")).returncode
    return 1 if unit or cli else 0


def main(argv):
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args, spec)
    return run_benchmark(args, spec)[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
