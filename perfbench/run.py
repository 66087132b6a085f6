#!/usr/bin/env python3
"""Builds and runs the WFAsic repository benchmark (see README.md here).

  python3 perfbench/run.py --workload nbt_long --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

A run builds the benchmark from source (Release) under .bench_build/ in
the repository root, runs one workload and passes its output through: the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The metrics are checked against the
end_to_end (trace 0) or per_layer (trace 1) list in BENCHMARK.json. Any
build failure, failed output check or missing metric exits non-zero
without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longer than any run's --seconds window plus its checks, shorter than the
# three minutes a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log(f"build of {target} failed")
            return None
    return os.path.join(out, target)


def expected_metrics(trace):
    """(name -> unit) the run must report, from BENCHMARK.json."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load_spec()[key]}


def check_result(stdout, trace):
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("the last output line is not a JSON result")
        return False
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}, unit mismatch {units}")
        return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args():
    """Command-line options; the constants the command line leaves out
    (seeds, service rate, ladder and SLO) come from the command recorded
    in BENCHMARK.json, their single source."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", help="an integer, or 'default' / 'heldout'")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--default-seed", type=int)
    p.add_argument("--heldout-seed", type=int,
                   help="kept out of tuning; a gain claimed with the "
                        "default seed must also hold on this one")
    p.add_argument("--svc-rate-rpmc")
    p.add_argument("--svc-ladder-rpmc")
    p.add_argument("--svc-slo-cycles")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    recorded, _ = p.parse_known_args(load_spec()["command"][2:])
    for key, value in vars(recorded).items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.seed is None:
        args.seed = "default"
    return args


def main():
    args = parse_args()
    if args.selftest:
        binary = build("perfbench_tests")
        if binary is None:
            return 2
        return subprocess.run([binary], timeout=600).returncode
    if not args.workload:
        log("--workload is required")
        return 2
    seed = {"default": args.default_seed,
            "heldout": args.heldout_seed}.get(args.seed, args.seed)
    binary = build("perfbench")
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--svc-rate-rpmc", args.svc_rate_rpmc,
           "--svc-ladder-rpmc", args.svc_ladder_rpmc,
           "--svc-slo-cycles", args.svc_slo_cycles]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)  # diagnostics; no result line
        return proc.returncode
    if not check_result(proc.stdout, args.trace):
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
