"""The four workloads: inputs generated from the seed, one operation each,
and the check of every operation's output.

Each workload builds a list of operations from ``(program, seed)``.  The
benchmark runs the list in a closed loop with one caller: an operation
starts only when the previous one has returned.  ``perfbench/README.md``
says why each workload exists and which layers it is meant to stress.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .layers import CLI_CHECK, CLI_RUN, CLI_VALIDATE

ALGORITHMS = ("main", "sow", "fc", "forward_backward")

#: Stopping tolerance of every tolerance run.
TOL = 1e-8
#: A tolerance run fails if it ends farther than this from the solution.
MAX_DIST = 1e-6
#: A long run fails if its final iterate is off its closed form by more.
CLOSED_FORM_RTOL = 1e-12


@dataclass(frozen=True)
class Solve:
    """One ``run()`` call and the termination it must end with."""

    algorithm: str
    problem: object
    schedule: object
    psi0: np.ndarray
    max_iter: int
    tol: float = TOL
    expect: str = "tolerance"


@dataclass(frozen=True)
class CliCall:
    """One in-process ``viscosplit.cli.main(argv)`` call."""

    span: str
    argv: tuple


@dataclass(frozen=True)
class Checked:
    """What the loop keeps of one operation's output."""

    iterations: int
    failure: str | None
    output_bytes: int = 0


def check_solve(report, op: Solve) -> str | None:
    """Why a run's report is wrong, or None when it is as expected."""
    if report.terminated_by != op.expect:
        return f"terminated by {report.terminated_by}, expected {op.expect}"
    if report.fejer_violations or report.bound_violations:
        return (f"{report.fejer_violations} Fejer and "
                f"{report.bound_violations} bound violations")
    if op.expect == "tolerance":
        dist = report.trajectory[-1].dist_to_solution
        if not dist <= MAX_DIST:
            return f"ended {dist:g} from the solution"
    return None


def closed_form_final(psi0, alphas, mu: float | None) -> np.ndarray:
    """psi0 * prod(1 - alpha_i*(1 - mu)), or prod(1 - alpha_i) when mu is None.

    On ``trivial_collapse`` every stage point equals the iterate and the
    operators vanish, so ``main`` scales the iterate by 1 - alpha_i*(1 - mu)
    per step and ``fc`` by 1 - alpha_i.
    """
    x = np.array(psi0, dtype=float)
    for a in alphas:
        x = x * ((1.0 - a * (1.0 - mu)) if mu is not None else (1.0 - a))
    return x


def check_closed_form(final, expected, rtol: float = CLOSED_FORM_RTOL
                      ) -> str | None:
    """Why ``final`` is not ``expected`` to relative ``rtol``, or None."""
    final, expected = np.asarray(final), np.asarray(expected)
    err = float(np.max(np.abs(final - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= rtol * scale:
        return f"final iterate off its closed form by {err:g} of {scale:g}"
    return None


def _varying_lam(n: int) -> float:
    return 0.4 + 0.1 / (n + 1)


class SolveWorkload:
    """Operations are ``run()`` calls, checked by :func:`check_solve`."""

    #: Times the traced run repeats the operations in each of its passes.
    trace_repeat = 1

    def warm_up(self, ops: list) -> list:
        """The first solve of each (instance, dim, algorithm, step kind)."""
        first = {}
        for op in ops:
            first.setdefault((op.problem.name, op.problem.dim, op.algorithm,
                              op.schedule.lam.kind), op)
        return list(first.values())

    def span(self, op) -> str | None:
        return None

    def execute(self, vs, op: Solve):
        return vs.run(op.algorithm, op.problem, op.schedule, psi0=op.psi0,
                      tol=op.tol, max_iter=op.max_iter)

    def check(self, op: Solve, report) -> Checked:
        return Checked(report.iterations, check_solve(report, op))


class ShortSolves(SolveWorkload):
    """Many small solves to tolerance: per-run set-up dominates."""

    name = "short_solves"
    PAIRS = ([("inclusion_box", {"dim": 1}, a) for a in ALGORITHMS]
             + [("inclusion_box", {"dim": 2}, a) for a in ALGORITHMS]
             + [("inclusion_ball", {}, a) for a in ALGORITHMS]
             + [("sine_oscillation", {}, a) for a in ("main", "sow", "fc")])
    #: Starting points per (pair, schedule); 15 pairs x 2 schedules x 8.
    DRAWS = 8
    MAX_ITER = 1_000

    def build(self, vs, seed: int) -> list:
        rng = np.random.default_rng(seed)
        ops = []
        for instance, kwargs, algorithm in self.PAIRS:
            problem = vs.load_instance(instance, **kwargs)
            default = vs.default_schedule_for(problem)
            # An admissible step that changes every iteration, so no reuse
            # that needs lambda_{n+1} = lambda_n applies to this half.
            varying = dataclasses.replace(
                default, lam=vs.ParamSeq.custom(_varying_lam, limit=0.4),
                interval=(0.4, 0.45))
            for schedule in (default, varying):
                for _ in range(self.DRAWS):
                    ops.append(Solve(algorithm, problem, schedule,
                                     rng.uniform(-1.0, 1.0, problem.dim),
                                     self.MAX_ITER))
        return [ops[i] for i in rng.permutation(len(ops))]


class LongHaul(SolveWorkload):
    """``trivial_collapse`` for a pinned number of steps past n = 10 000."""

    name = "long_haul"
    MAX_ITER = 11_000
    WARM_UP_ITER = 300
    #: Small enough that no run stops early: fc's displacement is ~1/n^2.
    STOP_TOL = 1e-12

    def build(self, vs, seed: int) -> list:
        rng = np.random.default_rng(seed)
        problem = vs.load_instance("trivial_collapse")
        schedule = vs.default_schedule_for(problem)
        return [Solve(a, problem, schedule,
                      rng.uniform(-1.0, 1.0, problem.dim), self.MAX_ITER,
                      tol=self.STOP_TOL, expect="max_iter")
                for a in ("main", "fc")]

    def warm_up(self, ops: list) -> list:
        return [dataclasses.replace(op, max_iter=self.WARM_UP_ITER)
                for op in ops]

    def check(self, op: Solve, report) -> Checked:
        failure = check_solve(report, op)
        if failure is None:
            # The default schedule: alpha_i = 1/(i+1), constant mu = mu_bar.
            alphas = [1.0 / (i + 1) for i in range(1, op.max_iter + 1)]
            mu = op.schedule.mu_bar if op.algorithm == "main" else None
            failure = check_closed_form(
                report.final, closed_form_final(op.psi0, alphas, mu))
        return Checked(report.iterations, failure)


class WideVectors(SolveWorkload):
    """``inclusion_box`` at dim 100 000: per-coordinate array work."""

    name = "wide_vectors"
    DIM = 100_000
    DRAWS = 2
    MAX_ITER = 1_000

    def build(self, vs, seed: int) -> list:
        rng = np.random.default_rng(seed)
        problem = vs.load_instance("inclusion_box", dim=self.DIM)
        schedule = vs.default_schedule_for(problem)
        ops = [Solve(a, problem, schedule, rng.uniform(-1.0, 1.0, self.DIM),
                     self.MAX_ITER)
               for _ in range(self.DRAWS) for a in ALGORITHMS]
        return [ops[i] for i in rng.permutation(len(ops))]


class CliBatch:
    """In-process command line calls: run, check and validate."""

    name = "cli_batch"
    #: One batch takes well under a second; five give the traced run
    #: twenty checks and five runs per pass.
    trace_repeat = 5
    INSTANCES = ("inclusion_box", "inclusion_ball", "trivial_collapse",
                 "sine_oscillation")

    def __init__(self, root: Path, workdir: Path):
        self.config = str(root / "demos" / "sample_config.json")
        self.out = workdir / "out"
        self.reference: dict | None = None

    def build(self, vs, seed: int) -> list:
        return ([CliCall(CLI_RUN, ("run", self.config, "--out", str(self.out),
                                   "--seed", str(seed)))]
                + [CliCall(CLI_CHECK, ("check", i, "--seed", str(seed)))
                   for i in self.INSTANCES]
                + [CliCall(CLI_VALIDATE, ("validate", self.config))])

    def warm_up(self, ops: list) -> list:
        return list(ops)

    def span(self, op: CliCall) -> str:
        return op.span

    def execute(self, vs, op: CliCall) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return vs.cli.main(list(op.argv))

    def check(self, op: CliCall, code: int) -> Checked:
        if code != 0:
            return Checked(0, f"{op.argv[0]} exited with {code}")
        if op.span != CLI_RUN:
            return Checked(0, None)
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        if self.reference is None:
            self.reference = files
        iterations = sum(json.loads(data)["iterations"]
                         for name, data in files.items()
                         if name.endswith(".json"))
        failure = (None if files == self.reference
                   else "run output differs from the first run's")
        return Checked(iterations, failure,
                       sum(len(data) for data in files.values()))


def make(name: str, root: Path, workdir: Path):
    if name == CliBatch.name:
        return CliBatch(root, workdir)
    for cls in (ShortSolves, LongHaul, WideVectors):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (ShortSolves.name, LongHaul.name, WideVectors.name, CliBatch.name)
