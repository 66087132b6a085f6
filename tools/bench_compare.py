#!/usr/bin/env python3
"""Diff two BENCH_*.json files (bench/bench_util.hpp's BenchReport format)
and fail on regressions beyond a threshold.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.20]
                     [--key wall_speedup --key k4_nbt_gcups]

Semantics:
  - Exact-match keys (default: every key ending in `_sim_cycles`) must be
    bit-identical: simulated cycle counts are deterministic, any drift is
    a functional change, not noise.
  - Ratio keys (--key, default: wall_speedup and every `*_gcups` key
    present in the baseline) are higher-is-better and may regress by at
    most `threshold` (fraction, default 0.20) relative to the baseline.
  - Raw wall-clock keys (`wall_ns_*`) are machine-dependent and are
    reported but never gated on.
  - Host wall-clock keys (`host_wall_*`) are likewise informational,
    never gated: they carry host-side timing detail (per-strategy wall
    times, events/sec, dispatch overhead) whose absolute values and even
    ratios depend on the machine and its load. They are tagged in the
    output so a reader knows they were considered, not skipped.
  - Keys present on only one side are informational, symmetrically:
    candidate-only keys are new metrics the baseline has not frozen yet;
    baseline-only keys are metrics a bench stopped emitting (usually a
    baseline refreshed against a newer bench). Neither is an error —
    refreshing the baseline reconciles both.
  - The optional top-level "meta" block (run conditions stamped by
    bench/bench_util.hpp: sanitizer flags, device count) is printed for
    the reader and never gated on.
  - A missing or malformed JSON file is a clear one-line diagnostic and
    exit 1, never a traceback.

Exit status: 0 when everything passes, 1 on any regression or unreadable
input.
"""

import argparse
import json
import sys


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a bench report object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no 'metrics' object")
    # The optional "meta" block carries run conditions (sanitizer flags,
    # device count). It is informational by contract: printed for the
    # reader, never compared or gated on, and absent from older reports.
    meta = doc.get("meta")
    return doc.get("bench", "?"), metrics, meta if isinstance(meta, dict) else {}


def load_or_diagnose(path):
    """load_metrics with every failure mode turned into a one-line
    diagnostic (missing file, unreadable file, malformed JSON, wrong
    shape) instead of a traceback. Returns None on failure."""
    try:
        return load_metrics(path)
    except OSError as err:
        print(f"FAIL: cannot read bench report {path}: "
              f"{err.strerror or err}")
    except json.JSONDecodeError as err:
        print(f"FAIL: malformed bench report {path}: {err}")
    except ValueError as err:
        print(f"FAIL: {err}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max fractional regression for ratio keys")
    parser.add_argument("--key", action="append", default=[],
                        help="extra higher-is-better key to gate on")
    args = parser.parse_args()

    loaded_base = load_or_diagnose(args.baseline)
    loaded_cur = load_or_diagnose(args.current)
    if loaded_base is None or loaded_cur is None:
        return 1
    base_name, base, base_meta = loaded_base
    cur_name, cur, cur_meta = loaded_cur
    if base_name != cur_name:
        print(f"FAIL: comparing different benches: "
              f"{base_name!r} vs {cur_name!r}")
        return 1
    for key in sorted(set(base_meta) | set(cur_meta)):
        b = base_meta.get(key, "<absent>")
        c = cur_meta.get(key, "<absent>")
        note = "" if b == c else f" (baseline {b!r})"
        print(f"meta: {key}: {c!r}{note} (informational, not gated)")

    ratio_keys = set(args.key) | {"wall_speedup"} | {
        k for k in base if k.endswith("_gcups")}
    exact_keys = {k for k in base if k.endswith("_sim_cycles")}

    failed = False
    # wall_speedup has an absolute floor on top of the relative gate: a
    # value below 1.0 means the stepping fast paths are slower than exact
    # per-cycle stepping — a hard failure however the baseline drifted.
    if cur.get("wall_speedup", 1.0) < 1.0:
        print(f"FAIL: wall_speedup: {cur['wall_speedup']:.4f} < 1.0000 "
              f"(fast path slower than exact stepping)")
        failed = True
    for key in sorted(base):
        if key not in cur:
            # Symmetric with candidate-only keys below: a metric one side
            # does not carry is a baseline-refresh matter, not a failure.
            print(f"info: {key}: {base[key]:.4f} "
                  f"(baseline-only, absent from candidate, not gated)")
            continue
        b, c = base[key], cur[key]
        if key.startswith("host_wall_"):
            print(f"info: {key}: {c:.4f} (baseline {b:.4f}, "
                  f"host wall-clock, not gated)")
            continue
        if key in exact_keys:
            if b != c:
                print(f"FAIL: {key}: expected exactly {b}, got {c} "
                      f"(simulated cycles must not drift)")
                failed = True
            else:
                print(f"  ok: {key}: {c} (exact)")
        elif key in ratio_keys:
            floor = b * (1.0 - args.threshold)
            if c < floor:
                print(f"FAIL: {key}: {c:.4f} < {floor:.4f} "
                      f"(baseline {b:.4f}, threshold {args.threshold:.0%})")
                failed = True
            else:
                print(f"  ok: {key}: {c:.4f} (baseline {b:.4f})")
        else:
            print(f"info: {key}: {c:.4f} (baseline {b:.4f}, not gated)")

    for key in sorted(set(cur) - set(base)):
        print(f"info: {key}: {cur[key]:.4f} (new in candidate, not gated)")

    if failed:
        print("bench_compare: REGRESSION")
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
