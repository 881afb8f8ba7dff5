"""Compare ``schedules.validate`` on two git revisions over random schedules.

    python3 tools/validate_diff.py BASE CHANGE --count 3000 --seed 0

Both revisions are exported with ``git archive`` into a temporary
directory, and each builds the same ``--count`` schedules from one seeded
random spec in its own interpreter.  Three in five schedules sit near
the default one: admissible constants, with each sequence kept, moved to
the edge of its band or replaced.  The rest are fully random.  Sequences
come from the four families or are custom callables, with and without a
declared ``limit`` and ``divergent_sum``; constants and ``strict_paper``
are random.  Every condition of every report must agree in name, passed,
detail, value (with its type) and empirical, and in order.  The script
prints one summary line and exits 1 on any difference.

A revision is anything ``git archive`` takes; to compare uncommitted work,
stage it and pass ``$(git stash create)``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export  # noqa: E402

LABELS = ("alpha", "theta", "beta", "gamma", "mu", "lam")


def custom(shape, c, limit=None, divergent_sum=None, d=0.0, at=1):
    return {"family": "custom", "shape": shape, "c": c, "d": d,
            "limit": limit, "divergent_sum": divergent_sum, "at": at}


def random_seq(rng):
    """A family with a random scale, or a random custom sequence."""
    scale = rng.choice([rng.uniform(-0.5, 1.5), rng.uniform(0, 1),
                        rng.choice([0.0, 0.25, 0.5, 1.0, 2.0])])
    if rng.random() < 0.5:
        return {"family": rng.choice(["constant", "inverse", "inverse_square",
                                      "approaching_one"]), "scale": scale}
    return custom(rng.choice(["const", "inv", "inv2", "toone", "osc", "ramp",
                              "nan_at", "slow"]), scale,
                  limit=rng.choice([None, None, scale, rng.uniform(-0.2, 1.2),
                                    0.0, 1.0, 0, 1]),
                  divergent_sum=rng.choice([None, None, True, False]),
                  d=rng.uniform(0, 0.3), at=rng.randint(1, 600))


def near_spec(rng, wang_tau):
    """A schedule near the default one for admissible constants."""
    k = rng.uniform(0.5, 1.5)
    L = k * rng.uniform(1.0, 2.0)
    eta = rng.uniform(0.1, 1.9) * k / L ** 2
    tau = wang_tau(eta, k, L)
    b = rng.uniform(0.5, 1.5)
    gamma = rng.uniform(0.1, 0.9) * tau / b
    demi = rng.choice([0.0, 0.5, rng.uniform(0, 0.9)])
    ism = rng.choice([0.5, 1.0, rng.uniform(0.05, 2)])
    window = min(1.0, 2 * ism)
    lo = rng.choice([window / 2, rng.uniform(0, window), window])
    hi = rng.choice([lo, rng.uniform(lo, window), window])
    mu_bar = rng.choice([0.8 * (tau - gamma * b) / tau, rng.uniform(0, 1)])
    mid = (1 + demi) / 2

    def pick(default, *others):
        return default if rng.random() < 0.75 else rng.choice(others)

    def const(v, declared=True):
        return custom("const", v, limit=v if declared else None,
                      divergent_sum=rng.choice([None, v > 0]))

    def family(kind, scale):
        return {"family": kind, "scale": scale}

    edge = rng.choice([demi, 1.0, mid])
    seqs = {
        "alpha": pick(family("inverse", 1.0), family("inverse_square", 1.0),
                      custom("inv", 1.0, rng.choice([None, 0.0]),
                             rng.choice([None, True])),
                      custom("inv2", 1.0),
                      custom("slow", 0.9, rng.choice([None, 0.0])),
                      random_seq(rng)),
        "theta": pick(family("constant", mid), const(mid, False),
                      family("constant", edge),
                      const(edge, rng.random() < 0.5),
                      family("approaching_one", 0.5),
                      custom("osc", mid, d=rng.uniform(0, 0.3)),
                      random_seq(rng)),
        "beta": pick(family("constant", mid), const(mid, False),
                     family("constant", edge), random_seq(rng)),
        "gamma": pick(family("constant", 0.5), const(0.5, False),
                      family("approaching_one", 1.0),
                      custom("ramp", 0.9, rng.choice([None, 0.9])),
                      random_seq(rng)),
        "mu": pick(family("constant", mu_bar), const(mu_bar, False),
                   const(mu_bar * rng.uniform(0.5, 1.1), rng.random() < 0.5),
                   custom("nan_at", mu_bar / 2, at=rng.randint(1, 600)),
                   random_seq(rng)),
        "lam": pick(family("constant", lo), family("constant", hi),
                    const(lo, False), const(hi, rng.random() < 0.5),
                    custom("const", lo, rng.choice([hi, lo - 0.01, None])),
                    random_seq(rng)),
    }
    return {"params": {"gamma": gamma, "eta": eta, "k": k, "L": L, "b": b},
            "seqs": seqs, "beta_demi": demi, "alpha_ism": ism,
            "interval": [lo, hi], "mu_bar": mu_bar}


def random_spec(rng):
    """A schedule with every constant and sequence drawn at random."""
    lo = rng.uniform(-0.1, 1.2)
    return {"params": {"gamma": rng.uniform(-0.1, 1),
                       "eta": rng.uniform(-0.1, 2), "k": rng.uniform(-0.1, 1.5),
                       "L": rng.uniform(-0.1, 2), "b": rng.uniform(-0.1, 1.5)},
            "seqs": {label: random_seq(rng) for label in LABELS},
            "beta_demi": rng.choice([0.0, 0.5, rng.uniform(0, 0.99)]),
            "alpha_ism": rng.choice([0.5, 1.0, rng.uniform(0.01, 3)]),
            "interval": [lo, lo + rng.choice([0.0, rng.uniform(0, 0.5)])],
            "mu_bar": rng.choice([0.4, rng.uniform(-0.1, 1.1)])}


def build_seq(spec, ParamSeq):
    if spec["family"] != "custom":
        return getattr(ParamSeq, spec["family"])(spec["scale"])
    c, d, at = spec["c"], spec["d"], spec["at"]
    fn = {"const": lambda n: c,
          "inv": lambda n: c / (n + 1),
          "inv2": lambda n: c / (n + 1) ** 2,
          "toone": lambda n: 1 - c / (n + 1),
          "osc": lambda n: c + d * (-1) ** n,
          "ramp": lambda n: c * n / (n + 1),
          "nan_at": lambda n: math.nan if n == at else c,
          "slow": lambda n: c / math.sqrt(n + 1)}[spec["shape"]]
    return ParamSeq.custom(fn, limit=spec["limit"],
                           divergent_sum=spec["divergent_sum"])


def dump(count: int, seed: int) -> list:
    """Every condition of ``count`` seeded random reports, as JSON data."""
    import numpy as np
    from viscosplit.monotone import wang_tau
    from viscosplit.schedules import (ParamSeq, Schedule, ViscosityParams,
                                      validate)
    rng = random.Random(seed)
    reports = []
    with np.errstate(all="ignore"):
        for _ in range(count):
            spec = (near_spec(rng, wang_tau) if rng.random() < 0.6
                    else random_spec(rng))
            schedule = Schedule(
                **{label: build_seq(spec["seqs"][label], ParamSeq)
                   for label in LABELS},
                beta_demi=spec["beta_demi"], alpha_ism=spec["alpha_ism"],
                interval=tuple(spec["interval"]), mu_bar=spec["mu_bar"],
                strict_paper=rng.random() < 0.5)
            report = validate(schedule, ViscosityParams(**spec["params"]))
            reports.append([
                [c.name, bool(c.passed), c.detail,
                 None if c.value is None
                 else [type(c.value).__name__, repr(float(c.value))],
                 c.empirical] for c in report.conditions])
    return reports


def run_dump(tree: Path, count: int, seed: int) -> list:
    """:func:`dump` run against the package in ``tree``."""
    out = subprocess.run(
        [sys.executable, __file__, "--dump", "--count", str(count),
         "--seed", str(seed)],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--count", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        json.dump(dump(args.count, args.seed), sys.stdout)
        return 0
    if args.change is None:
        parser.error("BASE and CHANGE are required")

    with tempfile.TemporaryDirectory() as tmp:
        base = run_dump(export(args.base, Path(tmp) / "base"), args.count,
                        args.seed)
        change = run_dump(export(args.change, Path(tmp) / "change"),
                          args.count, args.seed)
    conds = [c for report in base for c in report]
    differ = [k for k, (b, c) in enumerate(zip(base, change)) if b != c]
    print(f"{args.count} schedules (seed {args.seed}), {len(conds)} "
          f"conditions: {sum(not c[1] for c in conds)} failing, "
          f"{sum(c[4] for c in conds)} empirical, "
          f"{sum(all(c[1] for c in r) for r in base)} schedules admissible; "
          f"{len(differ)} reports differ")
    for k in differ[:3]:
        print(f"  schedule {k}:\n    {base[k]}\n    {change[k]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
