#!/usr/bin/env python3
"""Judges one workload of the benchmark between two checkouts by alternated
pairs of runs.

Each checkout's `netcl_e2e` is built into its own CARGO_TARGET_DIR. Then N
pairs of `netcl_e2e --workload W --seed S --seconds T` run one after the
other, the side that runs first flipping from pair to pair, and each
process's last stdout line (the result JSON) is read. For every end-to-end
metric `BENCHMARK.json` lists, the script prints:

* every pair: the two values and their ratio (change / parent);
* per side: the median and the quartiles;
* the pairs the change is ahead in, by the metric's `better` direction;
* the Hodges–Lehmann shift of the paired log-ratios, as a ratio, with its
  rank-based (Wilcoxon signed-rank) interval at ≈ 95 % — the confidence
  the exact distribution achieves at N pairs is printed beside it;
* the largest gap between neighbouring values of both sides pooled, and
  how many runs of each side fall below and above it: a host that steps
  between speed modes shows as two clusters, and a side whose runs sit in
  one cluster while the other side's sit in both is a mode, not a change.

A run that exits non-zero or reports failed operations stops the script.

Usage:
    python3 scripts/pairs.py PARENT CHANGE [--workload W] [--pairs N]
        [--seconds T] [--seed S] [--target-root DIR]

PARENT and CHANGE are checkouts (e.g. `git archive HEAD~ | tar -x -C
DIR`). Build directories are DIR/parent-target and DIR/change-target under
--target-root (default: a `netcl-pairs` directory in the system's temporary
directory). Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

MANIFEST = "crates/bench/src/bin/netcl_e2e/Cargo.toml"
SIDES = ("parent", "change")


def build(checkout, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST]
    subprocess.run(cmd, cwd=checkout, env=env, check=True)
    return os.path.join(target, "release", "netcl_e2e")


def run(binary, checkout, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} (in {checkout}) exited {done.returncode}")
    result = json.loads(lines[-1])
    if result.get("failed", 0) or not result.get("correct", False):
        sys.exit(f"{' '.join(cmd)} (in {checkout}): {result.get('failed')} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def end_to_end(checkout):
    """`(name, better)` of every end-to-end metric the contract lists."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        contract = json.load(f)
    return [(m["name"], m["better"]) for m in contract["end_to_end"]]


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def signed_rank_cdf(n):
    """P(W+ <= w) for w = 0 .. n(n+1)/2, W+ the Wilcoxon signed-rank
    statistic of n untied pairs under the null."""
    counts = [1]
    for r in range(1, n + 1):
        nxt = counts + [0] * r
        for w, c in enumerate(counts):
            nxt[w + r] += c
        counts = nxt
    total = 2 ** n
    cdf, acc = [], 0
    for c in counts:
        acc += c
        cdf.append(acc / total)
    return cdf


def hodges_lehmann(diffs):
    """Hodges–Lehmann estimate of the shift of `diffs` with its rank-based
    interval at ≈ 95 %, and the confidence the interval achieves."""
    n = len(diffs)
    walsh = sorted((diffs[i] + diffs[j]) / 2 for i in range(n) for j in range(i, n))
    estimate = statistics.median(walsh)
    cdf = signed_rank_cdf(n)
    # The k-th smallest and k-th largest Walsh averages bound the interval,
    # k - 1 the largest statistic value with P(W+ <= k - 1) <= 2.5 % (at
    # most 5 pairs have none: the interval is then the whole range).
    k = 1
    while k < len(cdf) and cdf[k] <= 0.025:
        k += 1
    return estimate, walsh[k - 1], walsh[-k], 1.0 - 2 * cdf[k - 1]


def largest_gap(values):
    """Where the pooled values of both sides are furthest apart (as a
    ratio of neighbours), and the two neighbours."""
    pooled = sorted(v for side in values for v in side)
    best = max(range(len(pooled) - 1), key=lambda i: pooled[i + 1] / pooled[i])
    return pooled[best], pooled[best + 1]


def report(name, better, pairs):
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    print(f"== {name} ({better} is better)")
    for i, (p, c) in enumerate(pairs):
        first = SIDES[i % 2]
        print(f"  pair {i + 1:2} ({first:6} first)  parent {p:14.6g}  change {c:14.6g}"
              f"  ratio {c / p:6.3f}")
    for side, xs in (("parent", parent), ("change", change)):
        q1, q2, q3 = quartiles(xs)
        print(f"  {side:6}  median {q2:14.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    ahead = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    print(f"  change ahead in {ahead} of {len(pairs)} pairs")
    if any(v <= 0 for v in parent + change):
        print("  (a value is not positive: no ratio statistics)")
        return
    diffs = [math.log(c / p) for p, c in pairs]
    est, lo, hi, conf = hodges_lehmann(diffs)
    print(f"  Hodges-Lehmann ratio {math.exp(est):.3f}  interval {math.exp(lo):.3f} .. "
          f"{math.exp(hi):.3f} ({100 * conf:.1f} % confidence)")
    below, above = largest_gap([parent, change])
    counts = [(sum(v <= below for v in xs), sum(v >= above for v in xs))
              for xs in (parent, change)]
    print(f"  largest gap {below:.6g} .. {above:.6g} (x{above / below:.3f}): "
          f"parent {counts[0][0]} below / {counts[0][1]} above, "
          f"change {counts[1][0]} below / {counts[1][1]} above")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="compile_edit")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--target-root", default=os.path.join(tempfile.gettempdir(), "netcl-pairs"))
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    binaries = {}
    for side in SIDES:
        target = os.path.abspath(os.path.join(args.target_root, f"{side}-target"))
        binaries[side] = build(checkouts[side], target)

    metrics = end_to_end(checkouts["change"])
    results = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {side: run(binaries[side], checkouts[side], args) for side in order}
        results.append(got)
        line = "  ".join(f"{side} {name} {got[side][name]:.6g}"
                         for side in SIDES for name, _ in metrics)
        print(f"pair {i + 1}/{args.pairs}: {line}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} alternated pairs, seed {args.seed}, "
          f"{args.seconds:g} s each")
    for name, better in metrics:
        report(name, better, [(r["parent"][name], r["change"][name]) for r in results])


if __name__ == "__main__":
    main()
