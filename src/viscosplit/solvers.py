"""The viscosity forward-backward iteration, its audits and its run loop.

The problem: find psi in the solution set of the monotone inclusion
0 in (Forward + Inclusion)(psi) that is also a fixed point of three
multivalued mappings T1, T2, T3.  One step function serves all five
update rules:

  delta = J(psi - lam*Forward psi)
  pi    = theta*delta + (1-theta)*v,   v in T1 delta
  phi_p = beta*pi     + (1-beta)*u,    u in T2 pi
  xi    = gamma*phi_p + (1-gamma)*z,   z in T3 phi_p
  psi+  = P_K(alpha*g*phi(psi) + mu*xi + (1-mu)*(psi - eta*alpha*Strong psi))
          with mu mixing, else
  psi+  = P_K(alpha*g*phi(psi) + (I - eta*alpha*Strong) c)
          for the carried stage point c.

An :class:`Anchor` spec per rule says how many averaging lines run, which
stage point the anchor line carries and whether mu mixes it with psi:

  rule               stages  carried  mu mixes
  main               3       xi       yes
  sow                2       pi       no     (as printed)
  sow_phi            2       phi_p    no     (the last averaged point)
  fc                 3       xi       no
  forward_backward   0       -        -      psi+ = delta, no anchor line

Stage points past the last averaging line mirror it, so every state
carries its own chain ||xi - q|| <= ||phi_p - q|| <= ||pi - q|| <=
||delta - q|| <= ||psi_prev - q||, which :func:`run` audits against each
certified common point q.

Inputs are validated once, where they enter, and the loop then works on
plain arrays:

- :class:`ProblemInstance`: ``dim``, the constants, ``selection``, the
  known solution, the start and each common point, which it certifies;
- :func:`check_run_arguments`: the algorithm, ``tol``, ``max_iter`` and
  ``record_stride``;
- :func:`require_admissible`: the schedule, against ``problem.params``;
- :func:`initial_state`: ``psi0``;
- :func:`_step`: the values a step makes that nothing after it rejects.

Whether the declared classes hold is :func:`audit_instance`'s question.
"""
from __future__ import annotations

import functools
import numbers
import operator
from array import array
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .hilbert import (DEFAULT_TOL, ConvexSet, NonFiniteError, _coerce,
                      _is_real, _is_vector, _named, all_finite, as_vector,
                      inner, norm, project, row_norms)
from .monotone import (MaxMonotone, SingleOp, _forward_backward, _value,
                       check_inverse_strongly_monotone, check_lipschitz,
                       check_resolvent_firmly_nonexpansive,
                       check_wang_contraction)
from .schedules import Schedule, ValidationReport, ViscosityParams, validate
from .setvalued import (AuditResult, MultiMap, Sample, SelectionRule,
                        _image, _same_size, _Unmet, audit_mapping)

#: Iterates beyond this norm terminate the run as divergent.
DIVERGENCE_LIMIT = 1e12

#: Absolute tolerance of the per-iteration stage-chain audit: the one
#: audit tolerance, :data:`~viscosplit.hilbert.DEFAULT_TOL`.
AUDIT_TOL = DEFAULT_TOL

#: Absolute tolerance when certifying a point as a common solution, and of
#: the per-iteration boundedness radius audit.
CERTIFY_TOL = 1e-8

#: The floor of b, the contraction's Lipschitz constant in the problem's
#: params: an identically-zero contraction declares 0, and the margin
#: conditions need 0 < gamma*b; the audits are insensitive to its exact tiny
#: value.
ZERO_CONTRACTION_LIPSCHITZ = 1e-6

ALGORITHMS = ("main", "sow", "sow_phi", "fc", "forward_backward")


class ScheduleValidationError(ValueError):
    """A schedule failed validation; carries the full report."""

    def __init__(self, report: ValidationReport):
        self.report = report
        names = "; ".join(c.name for c in report.failures())
        super().__init__(f"schedule rejected: {names}")


class UncertifiedPointError(ValueError):
    """A point offered as a common solution does not certify; the message
    names the point and its defects."""


def require_admissible(schedule: Schedule, problem: ProblemInstance) -> None:
    """Raise :class:`ScheduleValidationError`, naming every failing
    condition, unless ``schedule`` passes :func:`validate` for the
    problem's constants, ``problem.params``.

    A caller that runs one schedule many times on one problem can judge
    it here once and pass ``check_schedule=False`` to :func:`run`, as the
    CLI does for its config cells.
    """
    report = validate(schedule, problem.params)
    if not report.ok:
        raise ScheduleValidationError(report)


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the iteration needs, with declared (auditable) constants.

    ``dim`` must be an integer >= 1, and ``selection`` a
    :class:`SelectionRule` or its value (``"metric"``, ...).  ``gamma`` and
    ``eta`` are the anchor step's own constants; ``params`` is built from
    them and from the pieces that declare the others: k and L are
    ``strong``'s ``strong_monotonicity`` and ``lipschitz``; b is
    ``contraction``'s ``lipschitz``, floored at
    :data:`ZERO_CONTRACTION_LIPSCHITZ`; ``beta_demi`` is the largest
    :attr:`~viscosplit.setvalued.MultiMap.demi_constant` of the mappings;
    ``alpha_ism`` is ``forward``'s ``inverse_strong_monotonicity``.  So a
    copy made with ``dataclasses.replace`` judges with its own pieces.  An
    operator that leaves one of these constants undeclared (None), or a
    forward operator whose ism modulus is 0, raises ``ValueError`` naming
    the operator and the constant.  Each of ``known_common_points`` is
    certified here, and every run audits against all of them; one that
    fails raises :class:`UncertifiedPointError` naming it and its defects.
    """

    name: str
    dim: int
    feasible: ConvexSet
    forward: SingleOp
    inclusion: MaxMonotone
    t1: MultiMap
    t2: MultiMap
    t3: MultiMap
    contraction: SingleOp
    strong: SingleOp
    gamma: float
    eta: float
    selection: SelectionRule = SelectionRule.METRIC
    known_solution: np.ndarray | None = None
    known_common_points: tuple = ()
    default_start: np.ndarray | None = None
    params: ViscosityParams = field(init=False)

    def __post_init__(self):
        if not _is_count(self.dim, 1):
            raise ValueError(
                f"dim must be a positive integer, got {self.dim!r}")
        strong, phi = self.strong, self.contraction
        for role, op, const in (("strong", strong, "strong_monotonicity"),
                                ("strong", strong, "lipschitz"),
                                ("contraction", phi, "lipschitz")):
            if getattr(op, const) is None:
                raise ValueError(f"{role} operator {op.name!r} has no {const}")
        ism = self.forward.inverse_strong_monotonicity
        if ism is None or not ism > 0:
            raise ValueError(f"forward operator {self.forward.name!r} has no "
                             f"positive inverse_strong_monotonicity")
        object.__setattr__(self, "params", ViscosityParams(
            self.gamma, self.eta, strong.strong_monotonicity, strong.lipschitz,
            max(phi.lipschitz, ZERO_CONTRACTION_LIPSCHITZ),
            max(t.demi_constant for t in self.maps), ism))
        object.__setattr__(self, "selection", SelectionRule(self.selection))
        known = self.known_solution
        # A known solution that is a declared common point, the same float
        # vector, is checked once, when that point is certified.
        if known is not None and not (_is_vector(known) and any(
                q is known for q in self.known_common_points)):
            object.__setattr__(self, "known_solution",
                               as_vector(known, self.dim))
        if self.default_start is not None:
            object.__setattr__(self, "default_start",
                               as_vector(self.default_start, self.dim))
        object.__setattr__(self, "known_common_points", tuple(
            self._require_common_point(q, "declared common point")
            for q in self.known_common_points))

    @property
    def maps(self) -> tuple[MultiMap, MultiMap, MultiMap]:
        return (self.t1, self.t2, self.t3)

    def common_point_defects(self, q) -> list[str]:
        """Reasons q is not certifiable, within :data:`CERTIFY_TOL`, as a
        common solution; empty = good.  Each T_i(q) must be {q} itself,
        not merely contain q, which the monotonicity chain requires.  Each
        value is checked where it is made, and an error names it
        (``"forward operator"``, ``"delta"``, ``"T1 image"``, ...); a
        mapping that is the one before it is not taken again."""
        q = as_vector(q, self.dim)
        defects = []
        res = norm(q - _forward_backward(self.inclusion, self.forward,
                                         self.params.lam_mid, q))
        if not res <= CERTIFY_TOL:
            defects.append(
                f"forward-backward residual {res:g} > {CERTIFY_TOL:g}")
        prev = None
        for i, (t, stage) in enumerate(zip(self.maps, _IMAGES), start=1):
            if t is not prev:
                try:
                    img = _image(t.image(q))
                    d = img.measure(q)[0]
                except ValueError as err:
                    raise _named(err, stage) from None
                h = img.farthest(q) if d <= CERTIFY_TOL else np.nan
                prev = t
            if not d <= CERTIFY_TOL:
                defects.append(f"d(q, T{i} q) = {d:g} > {CERTIFY_TOL:g}")
            elif not h <= CERTIFY_TOL:
                defects.append(f"T{i} q is not the singleton {{q}}: H = {h:g}")
        return defects

    def _require_common_point(self, q, what: str) -> np.ndarray:
        """``q`` as a vector, coerced and checked once, by
        :meth:`common_point_defects`; raise :class:`UncertifiedPointError`
        naming ``what``, the vector and its defects unless it certifies."""
        q = _coerce(q)
        defects = self.common_point_defects(q)
        if defects:
            raise UncertifiedPointError(
                f"{what} {q.tolist()} does not certify: " + "; ".join(defects))
        return q


def _sample_points(rng, dim: int, count: int) -> np.ndarray:
    # Uniform on [-5, 5]^dim, one row per point.  One draw of count*dim
    # numbers gives the same numbers, in the same order, as count draws of
    # dim.
    return 5.0 * (2.0 * rng.random((count, dim)) - 1.0)


def audit_instance(problem: ProblemInstance,
                   seed: int = 0) -> list[tuple[str, AuditResult]]:
    """Audit every class ``problem`` declares on one random sample, each
    result under its label; ``viscosplit check`` prints them in order.

    Draws 600 points uniform on [-5, 5]^dim from ``seed`` and scans them
    once: 200 points, then the x and the y of 200 pairs, shared by every
    audit.  Audits each distinct mapping once, by its declared kind
    (:func:`~viscosplit.setvalued.audit_mapping`), and lists it under each
    T_i it is; then the forward operator's ism modulus
    ``params.alpha_ism``, the inclusion's resolvent at the default step
    ``params.lam_mid``, the strong operator's averaged contraction at
    ``eta`` with t = 0.5, and the contraction's Lipschitz constant
    ``params.b``.  A mapping that declares no fixed point is audited
    against the problem's certified ``known_common_points``, each of which
    it fixes.  An audit whose precondition the declarations do not meet,
    an ``eta`` outside (0, 2k/L^2) or a mapping with neither declared fixed
    points nor common points, is a failed result with the reason in its
    ``note`` (see :func:`_unless_unmet`); any other error propagates.
    """
    drawn = _sample_points(np.random.default_rng(seed), problem.dim, 600)
    as_vector(drawn.ravel())
    k = np.arange(200)
    points = Sample(drawn, drawn, k, k)
    pairs = Sample(drawn, drawn, k + 200, k + 400)
    audited, out = {}, []
    for i, t in enumerate(problem.maps, start=1):
        if id(t) not in audited:
            # Each certified common point q has T q = {q}: a fixed point.
            audited[id(t)] = _unless_unmet(
                audit_mapping, t if t.fixed_points else replace(
                    t, fixed_points=problem.known_common_points),
                points, pairs)
        res = audited[id(t)]
        out.append((f"T{i} ({t.name or f'T{i}'}) {res.name}", res))
    p = problem.params
    res = check_inverse_strongly_monotone(problem.forward, p.alpha_ism, pairs)
    out.append((f"forward {res.name} (alpha={p.alpha_ism:g})", res))
    res = check_resolvent_firmly_nonexpansive(problem.inclusion, p.lam_mid,
                                              pairs)
    out.append((f"inclusion {res.name} (lambda={p.lam_mid:g})", res))
    res = _unless_unmet(check_wang_contraction, problem.strong, p.eta, t=0.5,
                        pairs=pairs)
    out.append((f"strong {res.name} (eta={p.eta:g})", res))
    res = check_lipschitz(problem.contraction, p.b, pairs)
    out.append((f"contraction {res.name} (b={p.b:g})", res))
    return out


def _unless_unmet(audit, *args, **kwargs) -> AuditResult:
    """``audit(*args, **kwargs)``, or a failed result with the reason as
    its note where it is :class:`~viscosplit.setvalued._Unmet`."""
    try:
        return audit(*args, **kwargs)
    except _Unmet as err:
        return AuditResult(err.audit, False, np.nan, note=str(err))


@dataclass(slots=True)
class IterState:
    """One iterate with the stage points of the step that produced it.

    ``psi_prev`` is the iterate the step started from (``psi`` itself at
    n = 0, where the stage points mirror the start).  ``psi_norm`` is
    ``norm(psi)``, which :func:`run`'s divergence guard reads.  Residuals
    are d(stage, T_i(stage)); ``fb_residual`` is measured at ``psi``
    through the point J(psi - lam*Forward psi), which ``fb_carry`` keeps
    as (problem, point) for the next step's delta on the same problem and
    an equal lambda; ``dataclasses.replace`` drops it.  ``alpha`` and
    ``mu`` are nan where the rule does not use them.  ``fejer_ok`` is
    :func:`run`'s chain verdict, None before it or without common points.
    """

    n: int
    psi: np.ndarray
    psi_prev: np.ndarray
    delta: np.ndarray
    pi: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    residual_t1: float
    residual_t2: float
    residual_t3: float
    fb_residual: float
    dist_to_solution: float
    alpha: float
    mu: float
    lam: float
    psi_norm: float
    fejer_ok: bool | None = None
    fb_carry: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)


#: What the vector fields of an interior :class:`Trajectory` item read:
#: one shared, read-only, empty array.
RELEASED = np.empty(0)
RELEASED.flags.writeable = False

#: The columns of a :class:`Trajectory` table, each a field of
#: :class:`IterState`; ``fejer_ok`` is nan, 0 or 1.
COLUMNS = ("n", "psi_norm", "dist_to_solution", "residual_t1", "residual_t2",
           "residual_t3", "fb_residual", "alpha", "mu", "lam", "fejer_ok")


class Trajectory:
    """The states :func:`run` recorded, as one ``table`` of scalars and the
    start and final :class:`IterState`, ``first`` and ``last``, whole.  It
    has a length, and its items are read by index (negative too) or by
    iterating.

    ``table`` is an ``array('d')`` with one row of :data:`COLUMNS` per
    recorded state, the only statement of the row's layout: :meth:`rows`
    gives each as a tuple, read by name with ``dict(zip(COLUMNS, row))``.
    Item 0 and item -1 are the stored states.  Any other item is an
    :class:`IterState` built from its row on access, its scalars equal to
    the row bit for bit and its vectors :data:`RELEASED`; step
    ``first`` again with the rule's ``step_*`` function to see them.
    """

    def __init__(self, table: array, first: IterState, last: IterState):
        self.table, self.first, self.last = table, first, last

    def __len__(self) -> int:
        return len(self.table) // len(COLUMNS)

    def __getitem__(self, k: int) -> IterState:
        k, w = range(len(self))[k], len(COLUMNS)
        if not 0 < k < len(self) - 1:
            return self.last if k else self.first
        row = dict(zip(COLUMNS, self.table[k * w:(k + 1) * w]))
        ok = row["fejer_ok"]
        row.update(n=int(row["n"]), fejer_ok=None if ok != ok else bool(ok))
        return IterState(**row, **dict.fromkeys(
            ("psi", "psi_prev", "delta", "pi", "phi", "xi"), RELEASED))

    def rows(self):
        """Each row of ``table``, a tuple of floats in :data:`COLUMNS`."""
        return zip(*[iter(self.table)] * len(COLUMNS))


@dataclass
class RunReport:
    """The outcome of :func:`run`.  ``diverged_at`` names what ended a
    ``divergence_guard`` run, the stage whose value turned non-finite or
    ``"norm limit"``, and is None for every other termination.
    """

    algorithm: str
    instance: str
    trajectory: Trajectory
    iterations: int
    terminated_by: str
    final: np.ndarray
    vi_residual: float
    fejer_violations: int
    bound_violations: int
    audit_points: int
    problem: ProblemInstance
    schedule: Schedule
    diverged_at: str | None = None

    def summary_dict(self) -> dict:
        final_dist = self.trajectory[-1].dist_to_solution
        return {
            "instance": self.instance,
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "terminated_by": self.terminated_by,
            "final_point": [float(v) for v in self.final],
            "final_distance_to_solution":
                None if np.isnan(final_dist) else float(final_dist),
            "vi_residual":
                None if np.isnan(self.vi_residual) else float(self.vi_residual),
            "fejer_violations": int(self.fejer_violations),
            "bound_violations": int(self.bound_violations),
            "audit_points": int(self.audit_points),
        }


# --------------------------------------------------------------------------
# Steps
# --------------------------------------------------------------------------

class Anchor(NamedTuple):
    """How one update rule turns its stage points into the next iterate.

    ``stages`` averaging lines run (0 means the plain forward-backward
    step, which has no anchor line); ``carry`` indexes the stage point
    (delta, pi, phi_p, xi) the anchor line carries; ``mixes`` says whether
    mu mixes it with psi.
    """

    stages: int
    carry: int = 3
    mixes: bool = False


MAIN = Anchor(stages=3, mixes=True)
SOW = Anchor(stages=2, carry=1)
SOW_PHI = Anchor(stages=2, carry=2)
FC = Anchor(stages=3)
FORWARD_BACKWARD = Anchor(stages=0)


#: Names of the images taken of the stage points, and of the points the
#: averaging lines make.
_IMAGES = ("T1 image", "T2 image", "T3 image")
_AVERAGED = ("pi", "phi_p", "xi")


def _step(problem: ProblemInstance, schedule: Schedule, state: IterState,
          anchor: Anchor) -> IterState:
    """One step of the rule ``anchor`` describes, at sequence index n + 1.

    Every T_i residual is measured at the stage point it would average,
    also where that averaging line does not run, and a point is selected
    only where it runs.  A stage that takes the mapping of the stage before
    at the same point, as every stage of the forward-backward rule does when
    T1 is T2 is T3, reads that residual and takes no image.

    The step is one pass.  It scans only what nothing after it rejects: the
    forward operator's value, each image (by its constructor) and the anchor
    target (by the projection).  delta, pi, phi_p and the carried point
    enter a residual :func:`~viscosplit.hilbert.norm`, and xi and the
    operator values enter the anchor target.  A failed pass names its
    culprit from the values it holds, calling no mapping again: the first
    of delta, pi, phi_p and xi that is not finite raises
    :class:`NonFiniteError` naming it; else, when the anchor line failed,
    :func:`_anchor_values` takes the operator values again, checked; else
    the error names the stage that was running.  So a
    :class:`~viscosplit.hilbert.DimensionMismatch` names the value of
    another dimension, and a ``TypeError`` the type of a mapping's value
    that is not an image.
    """
    i = state.n + 1
    lam = schedule.lam(i)
    psi = state.psi
    # Each image is dropped when it is measured, and its point after its
    # averaging line, so no image point reaches the anchor line.  A failure
    # reads the points made so far, which may be none.
    points, residuals = [], []
    stage = None
    try:
        # The residual of ``state`` evaluated J(psi - lam*Forward psi) with
        # its own problem and lambda; with the same ones that point is this
        # step's delta.
        carry = state.fb_carry
        if carry is not None and carry[0] is problem and lam == state.lam:
            x = carry[1]
        else:
            x = _forward_backward(problem.inclusion, problem.forward, lam,
                                  psi, False)
        points.append(x)
        weights = (schedule.theta, schedule.beta, schedule.gamma)
        for k, (t, weight) in enumerate(zip(problem.maps, weights)):
            stage = _IMAGES[k]
            rule = problem.selection if k < anchor.stages else None
            if k and t is problem.maps[k - 1] and x is points[k - 1]:
                # The mapping before, at the same point, so no averaging
                # line has run: its residual.
                residuals.append(residuals[-1])
                points.append(x)
                continue
            d, y = _image(t.image(x)).measure(x, rule)
            residuals.append(d)
            if rule is not None:
                w = weight(i)
                stage = _AVERAGED[k]
                x = w * x + (1.0 - w) * y
            points.append(x)
            del y

        if anchor.stages:
            a = schedule.alpha(i)
            m = schedule.mu(i) if anchor.mixes else np.nan
            p = problem.params
            c = points[anchor.carry]
            # The target is summed in place, in the order of the rule's
            # line, so that no operator value outlives its term; main's
            # psi - eta*alpha*Strong psi is -c*v + a (see
            # monotone._forward_backward).
            stage = "psi"
            target = a * p.gamma * _value(problem.contraction, psi, False)
            if anchor.mixes:
                target += m * c
                target += (1.0 - m) * (
                    -p.eta * a * _value(problem.strong, psi, False) + psi)
            else:
                target += c
                target -= p.eta * a * _value(problem.strong, c, False)
            psi_new = project(problem.feasible, target)
            del target
        else:
            a = m = np.nan
            psi_new = points[0]
        stage = "delta"
        return _build_state(problem, i, psi_new, psi, points, residuals, a,
                            m, lam)
    except Exception as err:
        # Unscanned values may reach a mapping, an operator or numpy
        # arithmetic that fails in its own way (a warning raised as an
        # error, say) before anything rejects them.
        for name, v in zip(("delta",) + _AVERAGED, points):
            if not all_finite(v):
                raise NonFiniteError(f"non-finite {name}", name) from None
        if stage == "psi":
            _anchor_values(problem, psi, psi if anchor.mixes else c)
        raise _named(err, stage) from None


def _build_state(problem: ProblemInstance, n: int, psi: np.ndarray,
                 psi_prev: np.ndarray, points, residuals, alpha: float,
                 mu: float, lam: float) -> IterState:
    """The state at the checked iterate ``psi``, with the stage ``points``
    (delta, pi, phi_p, xi) and their ``residuals`` that led to it, and the
    forward-backward point of ``psi`` at ``lam`` carried for the next
    step.  That point is not scanned: its residual ``norm`` rejects a
    non-finite one, which the caller names ``"delta"``.
    """
    fb_point = _forward_backward(problem.inclusion, problem.forward, lam, psi,
                                 False)
    dist = (np.nan if problem.known_solution is None
            else norm(psi - problem.known_solution))
    state = IterState(n, psi, psi_prev, *points, *residuals,
                      fb_residual=norm(psi - fb_point), dist_to_solution=dist,
                      alpha=alpha, mu=mu, lam=lam, psi_norm=norm(psi))
    state.fb_carry = (problem, fb_point)
    return state


def step_main(problem: ProblemInstance, schedule: Schedule,
              state: IterState) -> IterState:
    """One step of the mu-mixed viscosity rule (the full anchor line)."""
    return _step(problem, schedule, state, MAIN)


def step_sow(problem: ProblemInstance, schedule: Schedule, state: IterState,
             use_phi: bool = False) -> IterState:
    """One step of the two-stage variant anchored at pi.

    The printed rule carries pi into the anchor line even though phi_p is
    the last averaged point; ``use_phi`` switches the carry to phi_p (the
    ``"sow_phi"`` rule of :func:`run`).
    """
    return _step(problem, schedule, state, SOW_PHI if use_phi else SOW)


def step_fc(problem: ProblemInstance, schedule: Schedule,
            state: IterState) -> IterState:
    """One step of the three-stage variant anchored at xi (no mu mixing)."""
    return _step(problem, schedule, state, FC)


def step_forward_backward(problem: ProblemInstance, schedule: Schedule,
                          state: IterState) -> IterState:
    """One plain forward-backward step; stage points mirror the new iterate."""
    return _step(problem, schedule, state, FORWARD_BACKWARD)


def initial_state(problem: ProblemInstance, schedule: Schedule,
                  psi0) -> IterState:
    """State n = 0: the start projected onto the feasible set, mirrored.

    ``psi0`` is scanned once, by the feasible set's projection, and the
    state is built as a step builds one.  A start that cannot be built
    raises :class:`NonFiniteError` or
    :class:`~viscosplit.hilbert.DimensionMismatch` naming its stage:
    ``"psi"`` for ``psi0`` and its projection, ``"T1 image"`` ... for the
    images of the start, ``"forward operator"`` or ``"delta"`` for its
    forward-backward point.
    """
    stage = "psi"
    try:
        psi = project(problem.feasible, _coerce(psi0))
        _same_size(psi.size, problem.dim)
        residuals = []
        for k, (stage, t) in enumerate(zip(_IMAGES, problem.maps)):
            residuals.append(
                residuals[-1] if k and t is problem.maps[k - 1]
                else _image(t.image(psi)).measure(psi)[0])
        stage = "delta"
        return _build_state(problem, 0, psi, psi, (psi,) * 4, residuals,
                            np.nan, np.nan, schedule.lam(1))
    except ValueError as err:
        raise _named(err, stage) from None


# --------------------------------------------------------------------------
# Audits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FejerAudit:
    """The four chain links at one state, each as (name, lhs, rhs, ok)."""

    links: tuple


#: Chain link names; link k compares distance row k with row k + 1 of
#: :func:`_audit` over (xi, phi_p, pi, delta, psi_prev).
_LINKS = ("xi_le_phi", "phi_le_pi", "pi_le_delta", "delta_le_psi")


#: Largest difference, in bytes, that :func:`_distances` builds in one
#: stacked pass: glibc's default mmap threshold, above which each audit
#: would map and fault fresh pages.
STACKED_AUDIT_BYTES = 128 * 1024

#: Most states :func:`run` audits in one stacked pass, so that the states
#: waiting for the audit hold little memory.
AUDIT_BLOCK = 64


def _distances(points, q_rows: np.ndarray) -> np.ndarray:
    """||p - q|| for each point p and each row q of the (Q, d) ``q_rows``.

    Returns a (len(points), Q) array.  When the (len(points), Q, d)
    difference fits in :data:`STACKED_AUDIT_BYTES` it is built at once;
    otherwise the points are taken one at a time, and a point passed more
    than once (a mirrored stage) is measured once.  Every entry equals
    ``norm(p - q)`` bit for bit (see :func:`~viscosplit.hilbert.row_norms`).
    """
    if len(points) * q_rows.nbytes <= STACKED_AUDIT_BYTES:
        # One concatenation of the 1-D points costs less than np.array's
        # inspection of a list of arrays.
        return row_norms(np.concatenate(points).reshape(
            len(points), 1, q_rows.shape[1]) - q_rows)
    out = np.empty((len(points), len(q_rows)))
    first = {}
    for k, p in enumerate(points):
        j = first.setdefault(id(p), k)
        if j < k:
            out[k] = out[j]
        else:
            out[k] = row_norms(q_rows - p)
    return out


def _audit(states, q_rows: np.ndarray, limits, prev=None,
           known: bool = False) -> tuple:
    """Both per-iteration inequalities of the consecutive ``states``
    against each row of the (Q, d) ``q_rows``.

    Returns ``(d, failed_links, outside)``: the (B, 6, Q) distances of
    (xi, phi_p, pi, delta, psi_prev, psi) of every state, the (B, 4, Q)
    chain links that fail with the absolute tolerance :data:`AUDIT_TOL`,
    and the (B, Q) iterates beyond ``limits`` (the radii with their
    tolerance).  A nan distance fails.

    Each distance is taken once, by :func:`_distances`: the stage points,
    and psi unless ``known`` says that every row is the known solution,
    whose distances are then its ``dist_to_solution``.  A state's psi_prev
    distances are those of the state before; the first state's are
    ``prev``, or its own psi's when ``prev`` is None, as at the start.
    """
    b, q = len(states), len(q_rows)
    points = [p for st in states for p in (st.xi, st.phi, st.pi, st.delta)]
    if not known:
        points += [st.psi for st in states]
    m = _distances(points, q_rows)
    d = np.empty((b, 6, q))
    d[:, :4] = m[:4 * b].reshape(b, 4, q)
    d[:, 5] = [[st.dist_to_solution] for st in states] if known else m[4 * b:]
    d[1:, 4] = d[:-1, 5]
    d[0, 4] = d[0, 5] if prev is None else prev
    return d, ~(d[:, :4] <= d[:, 1:5] + AUDIT_TOL), ~(d[:, 5] <= limits)


def audit_fejer_chain(state: IterState, q) -> FejerAudit:
    """Audit the stage monotonicity chain of one state against a point q,
    as :func:`run` does (:func:`_audit`), measuring all six points.  An
    interior item of a :class:`Trajectory`, which holds no vector, raises
    ``ValueError``: its chain can only be read from ``fejer_ok``.
    """
    if not state.xi.size:
        raise ValueError(f"the vectors of state n={state.n} were "
                         f"released after run() audited the state")
    q_rows = as_vector(q, state.psi.size)[np.newaxis]
    d, failed, _ = _audit([state], q_rows, np.inf,
                          _distances([state.psi_prev], q_rows)[0])
    d, failed = d[0, :, 0].tolist(), failed[0, :, 0].tolist()
    return FejerAudit(tuple((name, d[k], d[k + 1], not failed[k])
                            for k, name in enumerate(_LINKS)))


def _anchor_values(problem: ProblemInstance, x: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The contraction's value at the checked point ``x`` and the strong
    operator's at the checked point ``y``, each checked against the size
    of its point; an error names ``"contraction"`` or ``"strong
    operator"``."""
    stage = "contraction"
    try:
        phi = _value(problem.contraction, x)
        stage = "strong operator"
        return phi, _value(problem.strong, y)
    except ValueError as err:
        raise _named(err, stage) from None


def boundedness_radius(problem: ProblemInstance, mu_bar: float, psi0,
                       q) -> float:
    """The a priori radius max(||psi0 - q||, ||g*phi(q) - eta*Strong q|| / m)
    with m = tau*(1 - mu_bar) - gamma*b, valid for every iterate."""
    p = problem.params
    margin = p.margin(mu_bar)
    if not margin > 0:
        raise ValueError("no contraction margin: tau*(1-mu_bar) <= gamma*b")
    qv = as_vector(q, problem.dim)
    phi, strong = _anchor_values(problem, qv, qv)
    drift = norm(p.gamma * phi - p.eta * strong)
    return max(norm(as_vector(psi0, problem.dim) - qv), drift / margin)


def vi_residual(problem: ProblemInstance, psi, probes=None) -> float:
    """Worst violation of the limiting variational inequality at psi.

    For each certified common point q the solution must satisfy
    <eta*Strong(psi) - g*phi(psi), psi - q> <= 0; the residual is the
    largest positive left side over the probes (0 when all hold).  Probes
    default to the instance's known common points; a probe passed in must
    certify, otherwise the metric would be meaningless.  Returns nan with
    no probes.
    """
    psiv = as_vector(psi, problem.dim)
    if probes is None:
        probes = problem.known_common_points
    else:
        probes = [problem._require_common_point(q, "probe") for q in probes]
    if not probes:
        return np.nan
    return _vi_worst(problem, psiv, probes)


def _vi_worst(problem: ProblemInstance, psi: np.ndarray, qs) -> float:
    """:func:`vi_residual` at a checked ``psi`` over certified points ``qs``."""
    p = problem.params
    phi, strong = _anchor_values(problem, psi, psi)
    direction = p.eta * strong - p.gamma * phi
    worst = 0.0
    for q in qs:
        worst = max(worst, inner(direction, psi - q))
    return worst


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def _is_count(value, low: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``low``."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= low)


def check_run_arguments(tol: float, max_iter, record_stride,
                        algorithm: str = "main") -> None:
    """Raise ``ValueError`` unless the arguments are ones :func:`run` can
    use: ``algorithm`` one of :data:`ALGORITHMS`, ``tol`` a real number
    (not a bool), finite and > 0, ``max_iter`` an integer >= 0 and
    ``record_stride`` an integer >= 1 or None."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHMS}")
    if not (_is_real(tol) and 0.0 < tol < np.inf):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not _is_count(max_iter, 0):
        raise ValueError(
            f"max_iter must be a nonnegative integer, got {max_iter!r}")
    if record_stride is not None and not _is_count(record_stride, 1):
        raise ValueError(f"record_stride must be a positive integer or "
                         f"None, got {record_stride!r}")


def run(algorithm: str, problem: ProblemInstance, schedule: Schedule,
        psi0=None, tol: float = 1e-8, max_iter: int = 100_000,
        check_schedule: bool = True,
        record_stride: int | None = None) -> RunReport:
    """Drive one update rule to termination with per-iteration audits.

    Terminates by "tolerance" when both the displacement and all four
    residuals fall below ``tol``, by "max_iter" otherwise, or by
    "divergence_guard" when an iterate leaves the norm ball of radius
    :data:`DIVERGENCE_LIMIT` or a step raises :class:`NonFiniteError`; the
    report's ``diverged_at`` then says which.  A start state that cannot
    be built raises (see :func:`initial_state`), and so does a step's
    :class:`~viscosplit.hilbert.DimensionMismatch` or ``TypeError``, from
    which no iteration can go on.

    Every iteration, recorded or not, is audited against each certified
    common point (:func:`_audit`): the stage chain within :data:`AUDIT_TOL`
    and the a priori :func:`boundedness_radius` within :data:`CERTIFY_TOL`.
    Recording keeps every state up to n = 10000 and then every hundredth,
    unless ``record_stride`` forces a fixed stride, and always the last,
    as rows of the report's :class:`Trajectory`.  When the step from the
    final state fails after its stage points were released, the state is
    stepped again from its start, which gives it back whole, bit for bit;
    if that repeated step fails too, it stays as it is, released.  The
    report's ``vi_residual`` is nan without common points, or when an
    operator it evaluates is non-finite at the last iterate.
    """
    check_run_arguments(tol, max_iter, record_stride, algorithm)
    if check_schedule:
        require_admissible(schedule, problem)

    if psi0 is None:
        psi0 = (problem.default_start if problem.default_start is not None
                else np.ones(problem.dim))

    # Looked up per call, so that a step function rebound on the module is
    # the one that runs.
    stepper = {"main": step_main, "sow": step_sow, "fc": step_fc,
               "forward_backward": step_forward_backward,
               "sow_phi": functools.partial(step_sow, use_phi=True)}[algorithm]
    # Certified when the problem was built.
    qs = problem.known_common_points

    def should_record(n: int) -> bool:
        if record_stride is not None:
            return n % record_stride == 0
        return n <= 10_000 or n % 100 == 0

    state = first = initial_state(problem, schedule, psi0)
    q_rows = np.array(qs).reshape(len(qs), problem.dim)
    limits = np.array([boundedness_radius(problem, schedule.mu_bar,
                                          state.psi, q) for q in qs]
                      ) + CERTIFY_TOL

    fejer_violations = bound_violations = 0
    # Where every certified point equals the known solution (None equals
    # none), each state's distance to it is its dist_to_solution, bit for
    # bit (a signed zero squares to +0.0 either way), which the audit
    # reads.
    known = all(np.array_equal(q, problem.known_solution) for q in qs)
    # The psi distances of the last audited state: the psi_prev distances
    # of the first state of the next block.
    prev = None
    # States wait here and are audited together, before the next step:
    # AUDIT_BLOCK of them, or fewer when their stacked difference would
    # pass STACKED_AUDIT_BYTES.  A state whose own difference passes it is
    # audited alone, point by point.
    pending = [state]
    block = 1 if not qs else max(1, min(
        AUDIT_BLOCK, STACKED_AUDIT_BYTES // (6 * q_rows.nbytes)))
    table = array("d")
    row = operator.attrgetter(*COLUMNS)

    def write(st: IterState) -> None:
        """Append the row of ``st`` to the table; a None reads nan."""
        table.extend(row(st) if st.fejer_ok is not None else
                     [np.nan if v is None else v for v in row(st)])

    def audit() -> None:
        """Audit the chain and the radius of the pending states against all
        common points at once, set ``fejer_ok`` on each, and write the rows
        the recording rule keeps; without common points nothing is
        audited."""
        nonlocal fejer_violations, bound_violations, prev
        if qs:
            d, failed, outside = _audit(pending, q_rows, limits, prev, known)
            prev = d[-1, 5]
            fejer_violations += int(np.count_nonzero(failed))
            bound_violations += int(np.count_nonzero(outside))
            for st, bad in zip(pending, failed.any(axis=(1, 2)).tolist()):
                st.fejer_ok = not bad
        for st in pending:
            if should_record(st.n):
                write(st)
        pending.clear()

    terminated, diverged_at = "max_iter", None
    steps = range(max_iter)
    # The start is checked here and every later iterate after its step.
    if max_iter and state.psi_norm > DIVERGENCE_LIMIT:
        terminated, diverged_at, steps = "divergence_guard", "norm limit", ()

    for _ in steps:
        if len(pending) == block:
            audit()
        if not pending and state is not first:
            # Audited and written: a step reads none of the stage points.
            state.delta = state.pi = state.phi = state.xi = RELEASED
        try:
            new = stepper(problem, schedule, state)
        except NonFiniteError as err:
            terminated, diverged_at = "divergence_guard", err.stage
            if state.xi is RELEASED:
                # The final state is kept whole: step it again from its
                # start, which gives it back bit for bit, unless a mapping
                # fails there too; then it stays as it is, released.
                try:
                    again = stepper(problem, schedule, replace(
                        state, n=state.n - 1, psi=state.psi_prev))
                except NonFiniteError:
                    break
                again.fejer_ok = state.fejer_ok
                state = again
            break
        # The step has taken the point; keep it out of the held states.
        state.fb_carry = None
        displacement = norm(new.psi - state.psi)
        state = new
        pending.append(state)
        if state.psi_norm > DIVERGENCE_LIMIT:
            terminated, diverged_at = "divergence_guard", "norm limit"
            break
        worst_residual = max(state.residual_t1, state.residual_t2,
                             state.residual_t3, state.fb_residual)
        if displacement <= tol and worst_residual <= tol:
            terminated = "tolerance"
            break

    # Every exit path leaves the loop here: the block it leaves is audited,
    # so the counts and each fejer_ok are exact, and the last state is
    # recorded.
    if pending:
        audit()
    if not should_record(state.n):
        write(state)
    state.fb_carry = None

    final_vi = np.nan
    if qs:
        try:
            final_vi = _vi_worst(problem, state.psi, q_rows)
        except NonFiniteError:
            pass  # an operator is non-finite at the last iterate

    return RunReport(
        algorithm=algorithm, instance=problem.name,
        trajectory=Trajectory(table, first, state),
        iterations=state.n, terminated_by=terminated, final=state.psi,
        vi_residual=final_vi, fejer_violations=fejer_violations,
        bound_violations=bound_violations, audit_points=len(qs),
        problem=problem, schedule=schedule, diverged_at=diverged_at)
