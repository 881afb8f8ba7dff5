"""Run the benchmark on two git revisions in alternation and compare them.

    python3 tools/bench_pairs.py BASE CHANGE --workload long_haul \\
        --pairs 10 --seconds 20 --first-seed 1 [--json BENCH.json]

Both revisions are exported with ``git archive`` into a temporary
directory.  Pair k runs ``python3 perfbench/run.py --workload W --seed S
--seconds T`` once in each tree with seed S = first seed + k - 1, the base
first in odd pairs and the change first in even ones, so a drift of the
machine's speed falls on both sides.  For each workload and metric it then
prints the base's and the change's median with their quartiles and in how
many pairs the change read lower.  Under it, two verdicts per metric:

- the gain rule: the change reads better (lower, or higher where
  ``BENCHMARK.json`` says so) in at least 9 of 10 pairs, and its median is
  better than the base's by more than the base's quartile spread;
- for an end-to-end metric of ``BENCHMARK.json``, whether the change's
  median is worse than the base's by no more than the metric's relative
  bound.

``BENCHMARK.json`` is only read.  A run that reports ``"correct": false``
or fails stops the script.

``--json PATH`` also writes every run to PATH: the ``command``, the
``base`` and ``change`` revisions (as given and as commits), the
``run_order``, and ``runs``, each with its ``pair`` (0-based),
``position`` in the pair (0 runs first), ``side``, ``revision``,
``seed``, ``workload``, ``exit`` status, the ``env`` line and the parsed
``result`` line of ``perfbench/run.py``.

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

RUN_ORDER = ("one run at a time; workloads in the order given, pairs in "
             "ascending seed; pair i (0-based) runs the base first when i "
             "is even and the change first when i is odd")


def export(revision: str, into: Path) -> Path:
    """Extract ``revision`` into the new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def commit(revision: str) -> str:
    """The commit ``revision`` names."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify",
         f"{revision}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its ``exit`` status, its ``env``
    line and its ``result`` line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True)
    *rest, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"{tree.name} {workload} seed {seed}: not correct: {result}")
    env = [json.loads(line[4:]) for line in rest if line.startswith("env ")]
    return {"exit": proc.returncode, "env": env[-1] if env else None,
            "result": result}


def spread(values: list) -> str:
    """``median [q1-q3]`` of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"


def declared_metrics() -> dict:
    """``name -> (better, bound)`` for each metric ``BENCHMARK.json``
    declares; the bound is None for a per-layer metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m.get("better", "lower"), m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def verdict(base: list, change: list, better: str = "lower",
            bound: float | None = None) -> str:
    """The gain rule and, with a ``bound``, the bound rule for one metric
    of paired runs (``base[k]`` and ``change[k]`` form pair k)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = statistics.quantiles(base, n=4, method="inclusive")
    gap = sign * (base_median - statistics.median(change))
    gain = 10 * wins >= 9 * len(base) and gap > q3 - q1
    text = f"gain rule {'holds' if gain else 'fails'}"
    if bound is not None:
        within = -gap <= bound * abs(base_median)
        text += (f"; median {'within' if within else 'BEYOND'} "
                 f"its bound of {bound:g}")
    return text


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
    parser.add_argument("--json", metavar="PATH",
                        help="also write every run to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    declared = declared_metrics()
    revisions = {"base": args.base, "change": args.change}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(rev, Path(tmp) / side)
                 for side, rev in revisions.items()}
        for workload in args.workload:
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change",
                                                                "base")
                for position, side in enumerate(order):
                    runs.append({
                        "pair": k, "position": position, "side": side,
                        "revision": revisions[side], "seed": seed,
                        "workload": workload,
                        **bench(trees[side], workload, seed, args.seconds)})
            print(f"{workload}: {args.base} -> {args.change}, "
                  f"{args.pairs} pairs of {args.seconds:g} s")
            metrics = {side: [r["result"]["metrics"] for r in runs
                              if r["workload"] == workload
                              and r["side"] == side]
                       for side in revisions}
            for name in metrics["base"][0]:
                base = [m[name]["value"] for m in metrics["base"]]
                change = [m[name]["value"] for m in metrics["change"]]
                lower = sum(c < b for b, c in zip(base, change))
                ratio = statistics.median(change) / statistics.median(base)
                print(f"  {name:12} {spread(base)} -> {spread(change)}  "
                      f"x{ratio:.3f}  change lower in {lower} of "
                      f"{args.pairs}")
                print(f"  {'':12} "
                      f"{verdict(base, change, *declared.get(name, ()))}")
    if args.json:
        record = {
            "command": ("python3 perfbench/run.py --workload <workload> "
                        f"--seed <seed> --seconds {args.seconds:g}"),
            "base": {"revision": args.base, "commit": commit(args.base)},
            "change": {"revision": args.change,
                       "commit": commit(args.change)},
            "run_order": RUN_ORDER, "runs": runs}
        Path(args.json).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
