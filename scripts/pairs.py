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
* the largest gap between neighbouring values of both sides pooled. It
  splits the runs into two modes only when it is wider, as a log-ratio,
  than the spread inside the clusters it leaves (`MODE_GAP`); otherwise
  the runs are one cluster and the script says so. For two modes, each
  side's runs below and above the gap and their median there: a host that
  steps between speed modes shows as two clusters, and a side whose runs
  sit in one cluster while the other side's sit in both is a mode, not a
  change;
* for each mode that holds at least 2 runs of each side, the change /
  parent ratio of the two medians within it: the change judged against
  the parent at one speed.

A run that exits non-zero or reports failed operations stops the script.

Usage:
    python3 scripts/pairs.py PARENT CHANGE [--workload W] [--pairs N]
        [--seconds T] [--seed S] [--target-root DIR]
    python3 scripts/pairs.py --self-test

`--self-test` checks the statistics on synthetic two-mode and one-cluster
values, builds and runs nothing, and exits non-zero on a failure.

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
# The largest gap splits two modes only when its log-ratio exceeds this
# many times the wider log-range of the two clusters it leaves: a gap no
# wider than the spread inside the clusters is one more step within one.
MODE_GAP = 1.0


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


def one_cluster(values, below, above):
    """Whether the gap `below .. above` in the pooled `values` is no wider,
    as a log-ratio, than `MODE_GAP` times the wider cluster beside it."""
    pooled = sorted(v for side in values for v in side)
    low = [v for v in pooled if v <= below]
    high = [v for v in pooled if v >= above]
    spread = max(math.log(low[-1] / low[0]), math.log(high[-1] / high[0]))
    return math.log(above / below) <= MODE_GAP * spread


def modes(parent, change):
    """Splits both sides at the pooled largest gap, or returns `None` when
    the runs are one cluster (`one_cluster`). Returns the gap's two
    neighbours, each side's `(runs, median)` below and above it (median
    `None` for no runs), and per mode the change / parent ratio of the
    medians where both sides have at least 2 runs there (else `None`)."""
    below, above = largest_gap([parent, change])
    if one_cluster([parent, change], below, above):
        return None
    split = {side: ([v for v in xs if v <= below], [v for v in xs if v >= above])
             for side, xs in zip(SIDES, (parent, change))}
    sides = {side: [(len(m), statistics.median(m) if m else None) for m in split[side]]
             for side in SIDES}
    ratios = [statistics.median(c) / statistics.median(p) if len(p) >= 2 and len(c) >= 2
              else None for p, c in zip(split["parent"], split["change"])]
    return below, above, sides, ratios


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
    split = modes(parent, change)
    if split is None:
        below, above = largest_gap([parent, change])
        print(f"  one cluster: the largest gap {below:.6g} .. {above:.6g} "
              f"(x{above / below:.3f}) is no wider than the spread inside it")
        return
    below, above, sides, ratios = split
    print(f"  largest gap {below:.6g} .. {above:.6g} (x{above / below:.3f})")
    for side in SIDES:
        cells = [f"{where} {n} runs, median {'-' if m is None else f'{m:.6g}'}"
                 for where, (n, m) in zip(("below", "above"), sides[side])]
        print(f"  {side:6}  {';  '.join(cells)}")
    for where, ratio in zip(("below", "above"), ratios):
        if ratio is not None:
            print(f"  {where} the gap, change / parent median {ratio:.3f}")


def self_test():
    """The statistics on synthetic values: both sides step between a slow
    and a fast mode, and the change is 2 % faster within each."""
    def close(a, b):
        return abs(a - b) <= 1e-9 * abs(b)

    slow = [100.0, 101.0, 99.0, 100.5]
    fast = [150.0, 151.0, 149.0]
    parent = slow + fast
    change = [v * 1.02 for v in slow[:2] + fast]
    below, above, sides, ratios = modes(parent, change)
    assert close(below, 101.0 * 1.02) and above == 149.0, (below, above)
    assert sides["parent"] == [(4, 100.25), (3, 150.0)], sides
    (n_slow, m_slow), (n_fast, m_fast) = sides["change"]
    assert (n_slow, n_fast) == (2, 3) and close(m_slow, 100.5 * 1.02), sides
    assert close(m_fast, 153.0), sides
    assert close(ratios[0], 100.5 * 1.02 / 100.25) and close(ratios[1], 1.02), ratios
    # One change run below the gap: no ratio there, one above it.
    _, _, sides, ratios = modes(parent, [v * 1.02 for v in slow[:1] + fast])
    assert sides["change"][0] == (1, 102.0) and ratios[0] is None, (sides, ratios)
    assert close(ratios[1], 1.02), ratios
    # One cluster: values spread evenly, and values spread unevenly whose
    # largest gap is still narrower than the cluster below it.
    even = [100.0, 101.0, 102.5, 103.0, 104.2, 105.0]
    assert modes(even, [v * 1.01 for v in even]) is None
    assert modes([100.0, 100.4, 110.0, 111.0], [100.2, 105.0, 120.0, 121.0]) is None
    # Two modes still split when the clusters are tight beside the gap.
    assert modes([100.0, 100.5, 150.0], [100.2, 150.3, 150.6]) is not None
    # Every pair 2 % ahead: the shift is exactly that, inside its interval.
    est, lo, hi, _ = hodges_lehmann([math.log(1.02)] * 10)
    assert close(math.exp(est), 1.02) and lo <= est <= hi, (est, lo, hi)
    report("work_per_s", "higher", [(v, v * 1.02) for v in parent])
    report("work_per_s", "higher", [(v, v * 1.01) for v in even])
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics on synthetic two-mode values and exit")
    ap.add_argument("--workload", default="compile_edit")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--target-root", default=os.path.join(tempfile.gettempdir(), "netcl-pairs"))
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.change is None:
        ap.error("PARENT and CHANGE are required")
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
