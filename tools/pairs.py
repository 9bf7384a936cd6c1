"""Benchmark a parent revision against the working tree in alternating pairs.

Usage (from the repository root):

    python3 tools/pairs.py --parent REV --workload NAME --pairs N --seconds S

REV is extracted with `git archive` into a temporary directory, which is
removed at the end. `perfbench/run.py --workload NAME --seconds S` then runs
there and in the working tree, N times each, in pairs; the side that runs
first alternates from pair to pair. NAME may be `all`.

For each workload and end-to-end metric of BENCHMARK.json the script prints
each side's median and quartiles, the pairs the change won (ties count for
neither side), and whether a gain may be claimed: the change wins at least
nine tenths of the pairs, and its median is better than the parent's by more
than the parent's inter-quartile range. It also prints whether the change
regresses the metric past its `bound` (`regression`), and then each metric's
runs, pair by pair. A run that fails its checks is reported and counts as no
sample. Nothing under perfbench/ is edited.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: Sequence[float]) -> List[float]:
    """The first quartile, the median and the third quartile of `values`."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: Sequence[float], change: Sequence[float], lower_is_better: bool) -> dict:
    """The comparison of one metric's paired runs, `parent[i]` against
    `change[i]`: each side's median and quartiles, the pairs the change won
    and whether a gain may be claimed."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per pair, at least one pair")

    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p_low, p_median, p_high), (c_low, c_median, c_high) = quartiles(parent), quartiles(change)
    return {
        "parent": [p_low, p_median, p_high],
        "change": [c_low, c_median, c_high],
        "wins": wins,
        "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and sign * (p_median - c_median) > p_high - p_low,
    }


def regression(parent: Sequence[float], change: Sequence[float], lower_is_better: bool,
               bound: float) -> str:
    """Whether the change's runs regress a metric whose BENCHMARK.json
    `bound` is a fraction of the parent's median: "yes" where the change's
    median is worse than the parent's by more than that; "unresolved" where
    the parent's quartiles lie further apart than that, unless every change
    run beats every parent run; else "no"."""
    sign = 1 if lower_is_better else -1
    parent, change = [sign * v for v in parent], [sign * v for v in change]  # lower is better
    if max(change) < min(parent):
        return "no"
    p_low, p_median, p_high = quartiles(parent)
    allowed = bound * abs(p_median)
    if p_high - p_low > allowed:
        return "unresolved"
    return "yes" if quartiles(change)[1] - p_median > allowed else "no"


def run_benchmark(tree: str, workload: str, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics of one `perfbench/run.py` run in `tree`, keyed
    `workload:metric`; empty where the run failed its checks."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"run in {tree} failed (exit {proc.returncode}): {proc.stderr[-500:]}",
              file=sys.stderr)
        return {}
    return {(key if ":" in key else f"{workload}:{key}"): entry["value"]
            for key, entry in result["metrics"].items()}


def extract(rev: str, into: str) -> None:
    """Write the files of `rev` into the directory `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Python 3.12 and later warn on an extraction that names no filter.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, metavar="NAME")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as parent_tree:
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_benchmark(trees[side], args.workload, args.seconds))
    print(f"{'metric':46} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'won':>6} gain regression")
    every = []
    for key in sorted({key for found in runs["parent"] + runs["change"] for key in found}):
        metric = next((m for m in spec["end_to_end"] if key.endswith(":" + m["name"])), None)
        paired = [(p[key], c[key]) for p, c in zip(runs["parent"], runs["change"])
                  if key in p and key in c]
        if metric is None or not paired:
            continue
        lower = metric["better"] == "lower"
        found = summarize(*zip(*paired), lower_is_better=lower)
        print(f"{key:46} {'/'.join(f'{v:.4g}' for v in found['parent']):>30} "
              f"{'/'.join(f'{v:.4g}' for v in found['change']):>30} "
              f"{found['wins']:>3}/{found['pairs']:<2} {'yes' if found['gain'] else 'no':4} "
              f"{regression(*zip(*paired), lower, metric['bound'])}")
        every.append(f"{key}: parent {' '.join(f'{p:.4g}' for p, _ in paired)}; "
                     f"change {' '.join(f'{c:.4g}' for _, c in paired)}")
    print("runs, pair by pair:", *every, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
