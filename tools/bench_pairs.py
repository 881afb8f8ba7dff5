"""Run the benchmark on two git revisions in alternation and compare them.

    python3 tools/bench_pairs.py BASE CHANGE --workload long_haul \\
        --pairs 10 --seconds 20 --first-seed 1

Both revisions are exported with ``git archive`` into a temporary
directory.  Pair k runs ``python3 perfbench/run.py --workload W --seed S
--seconds T`` once in each tree with seed S = first seed + k - 1, the base
first in odd pairs and the change first in even ones, so a drift of the
machine's speed falls on both sides.  For each workload and metric it then
prints the base's and the change's median with their quartiles and in how
many pairs the change read lower.  A run that reports ``"correct": false``
or fails stops the script.

A revision is anything ``git archive`` takes; to compare uncommitted work,
stage it and pass ``$(git stash create)``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> Path:
    """Extract ``revision`` into the new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its metrics as {name: value}."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{tree.name} {workload} seed {seed}: not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> str:
    """``median [q1-q3]`` of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; may be repeated")
    parser.add_argument("--pairs", type=int, default=10,
                        help="at least 2, for the quartiles")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"),
                 "change": export(args.change, Path(tmp) / "change")}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change",
                                                                "base")
                for side in order:
                    runs[side].append(bench(trees[side], workload, seed,
                                            args.seconds))
            print(f"{workload}: {args.base} -> {args.change}, "
                  f"{args.pairs} pairs of {args.seconds:g} s")
            for name in runs["base"][0]:
                base = [r[name] for r in runs["base"]]
                change = [r[name] for r in runs["change"]]
                lower = sum(c < b for b, c in zip(base, change))
                ratio = statistics.median(change) / statistics.median(base)
                print(f"  {name:12} {spread(base)} -> {spread(change)}  "
                      f"x{ratio:.3f}  change lower in {lower} of "
                      f"{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
