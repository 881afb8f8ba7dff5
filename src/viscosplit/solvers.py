"""Iterative solvers for the coupled inclusion / common-fixed-point problem.

The problem: find psi in the solution set of the monotone inclusion
0 in (Forward + Inclusion)(psi) that is also a fixed point of three
multivalued mappings T1, T2, T3.  Each iteration first takes one
forward-backward step, then averages through the mappings, and finally
applies a viscosity anchor step that combines a contraction phi and a
strongly monotone operator.

One step function serves all five update rules:

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

Stage points past the last averaging line mirror it.  A step returns
them on the state it produces, together with the previous iterate, so
the state carries its own monotonicity chain ||xi - q|| <= ||phi_p - q||
<= ||pi - q|| <= ||delta - q|| <= ||psi_prev - q||, auditable against
any certified common point q with :func:`audit_fejer_chain`.  :func:`run`
audits that chain on every state and then releases the four stage
points, so the states of ``RunReport.trajectory`` keep only ``psi``,
``psi_prev`` and the scalars, and ``psi_prev`` only where the state
before is recorded too; re-step a recorded state's predecessor to see
them again.

Values are validated where they enter, and the loop then works on the
plain arrays.  Vectors must be float, 1-D, finite and of the right
dimension:

- instance construction: ``dim`` (an integer >= 1), ``selection``
  (coerced to a :class:`SelectionRule`), the constants of
  :class:`ViscosityParams` (real numbers, not bools), the known solution,
  common points and start; each declared common point is certified there
  (:meth:`ProblemInstance.common_point_defects`), so every run audits
  against all of them;
- the run arguments, in :func:`check_run_arguments`, which :func:`run`
  calls first and the CLI calls for each config cell: the algorithm name
  (one of :data:`ALGORITHMS`), ``tol`` a real number (not a bool), finite
  and > 0, ``max_iter`` an integer >= 0 and ``record_stride`` an integer
  >= 1 or None; then the schedule, in :func:`require_admissible`, which
  judges it against the problem's own constants and raises
  :class:`ScheduleValidationError` naming every failing condition;
- ``psi0``, in :func:`initial_state`, which builds the start state on the
  step's own kernels and through the same state builder as a step: the
  projected start is checked once like a new iterate, and its images,
  residuals and forward-backward point are formed as in a step;
- in a step, the values nothing later in it would reject, each scanned
  once: the forward operator's value (``op.apply`` at a checked point;
  only the value is coerced and checked, and a value that is the point
  itself is not scanned again), because it enters the resolvent; each
  image a mapping returns (checked by its constructor: ``Singleton``,
  ``FiniteSet``, ``BallImage``); and the anchor target, which the
  projection checks at its own boundary before it returns the new
  iterate.

The other values a step makes are caught downstream, not scanned:
delta, pi and phi_p, and the forward-backward point carried to the next
step, each enter a residual :func:`~viscosplit.hilbert.norm`, which
raises on a non-finite argument; xi, the contraction value and the
strong operator value enter the anchor target (0*inf is nan).  A value
the solver did not make itself (a resolvent's or an operator's) is still
coerced to a float vector, and scanned, when it is not one already.

A projection checks the point it is given at its own public boundary, so
a point it returns unchanged (the whole space, or a point already inside
a ball or half-space) is not scanned again.  The resolvent is handed
psi - lam*Forward psi unchecked: the built-in resolvents take a checked
vector and do not check it again, but a projection (the normal cone)
checks the point at its own boundary and the others carry a non-finite
coordinate into their value.  The residuals, selections and norms run on
the arrays as they are.

So a non-finite value may reach a mapping or an operator before it is
caught.  A step that fails in any way is therefore replayed with every
value scanned where it is made (delta, each image, pi, phi_p, xi, the
contraction and strong operator values and the new iterate), and fails
as that fully checked step does: a non-finite value raises
:class:`NonFiniteError` naming it (``"forward operator"``, ``"delta"``,
``"T1 image"``, ``"pi"``, ``"contraction"``, ``"psi"``, ...), which
:func:`run` turns into the ``divergence_guard`` termination and keeps as
``RunReport.diverged_at``.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .hilbert import (DEFAULT_TOL, ConvexSet, NonFiniteError, _is_vector,
                      all_finite, as_vector, inner, norm, project)
from .monotone import (MaxMonotone, SingleOp, _check_lam, _value,
                       fixed_point_residual)
from .schedules import (Schedule, ValidationReport, ViscosityParams,
                        step_window, validate)
from .setvalued import (KIND_DEMICONTRACTIVE, MultiMap, SelectionRule,
                        _distance, _farthest, _select)

#: Iterates beyond this norm terminate the run as divergent.
DIVERGENCE_LIMIT = 1e12

#: Absolute tolerance of the per-iteration stage-chain audit: the one
#: audit tolerance, :data:`~viscosplit.hilbert.DEFAULT_TOL`.
AUDIT_TOL = DEFAULT_TOL

#: Absolute tolerance when certifying a point as a common solution, and of
#: the per-iteration boundedness radius audit.
CERTIFY_TOL = 1e-8

ALGORITHMS = ("main", "sow", "sow_phi", "fc", "forward_backward")


class ScheduleValidationError(ValueError):
    """A schedule failed validation; carries the full report."""

    def __init__(self, report: ValidationReport):
        self.report = report
        names = "; ".join(c.name for c in report.failures())
        super().__init__(f"schedule rejected: {names}")


def require_admissible(schedule: Schedule, problem: ProblemInstance) -> None:
    """Raise :class:`ScheduleValidationError`, naming every failing
    condition, unless ``schedule`` passes :func:`validate` for the
    problem's parameters.

    The lambda window and the theta/beta band are judged with the larger
    of the schedule's and the problem's demicontractivity constant and the
    smaller of their ism moduli, so a schedule made for another problem
    cannot carry looser constants onto this one.
    """
    report = validate(replace(
        schedule, beta_demi=max(schedule.beta_demi, problem.beta_demi),
        alpha_ism=min(schedule.alpha_ism, problem.alpha_ism)), problem.params)
    if not report.ok:
        raise ScheduleValidationError(report)


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the iteration needs, with declared (auditable) constants.

    ``dim`` must be an integer >= 1, and ``selection`` a
    :class:`SelectionRule` or its value (``"metric"``, ...).
    ``known_common_points`` lists members of the full solution set, which
    every run audits against; construction certifies each one and raises
    ``ValueError``, naming the point and its defects, for one that fails
    (see :meth:`common_point_defects`).  With ``strict_fixed_points`` the
    certification additionally demands T_i(q) = {q} rather than just
    q in T_i(q), which the monotonicity chain requires.
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
    params: ViscosityParams
    selection: SelectionRule = SelectionRule.METRIC
    known_solution: np.ndarray | None = None
    known_common_points: tuple = ()
    strict_fixed_points: bool = True
    default_start: np.ndarray | None = None

    def __post_init__(self):
        if not _is_count(self.dim, 1):
            raise ValueError(
                f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "selection", SelectionRule(self.selection))
        if self.known_solution is not None:
            object.__setattr__(self, "known_solution",
                               as_vector(self.known_solution, self.dim))
        if self.default_start is not None:
            object.__setattr__(self, "default_start",
                               as_vector(self.default_start, self.dim))
        qs = tuple(as_vector(q, self.dim) for q in self.known_common_points)
        object.__setattr__(self, "known_common_points", qs)
        for q in qs:
            self._require_common_point(q, "declared common point")

    @property
    def maps(self) -> tuple[MultiMap, MultiMap, MultiMap]:
        return (self.t1, self.t2, self.t3)

    @property
    def alpha_ism(self) -> float:
        """The forward operator's declared ism modulus; 1 when it declares
        none, or one that is not positive (nan included)."""
        ism = self.forward.inverse_strong_monotonicity
        return 1.0 if ism is None or not ism > 0 else ism

    @property
    def beta_demi(self) -> float:
        """The largest declared demicontractivity constant among the three
        mappings; 0 when none is declared demicontractive."""
        return max((t.constant or 0.0 for t in self.maps
                    if t.kind == KIND_DEMICONTRACTIVE), default=0.0)

    def certification_lambda(self) -> float:
        """The midpoint of the splitting-step window, as the default
        schedule uses."""
        return step_window(self.alpha_ism) / 2.0

    def common_point_defects(self, q) -> list[str]:
        """Reasons q is not certifiable, within :data:`CERTIFY_TOL`, as a
        common solution; empty = good."""
        qv = as_vector(q, self.dim)
        lam = self.certification_lambda()
        defects = []
        res = fixed_point_residual(self.inclusion, self.forward, lam, qv)
        if not res <= CERTIFY_TOL:
            defects.append(
                f"forward-backward residual {res:g} > {CERTIFY_TOL:g}")
        for i, t in enumerate(self.maps, start=1):
            img = t.image(qv)
            d = _distance(qv, img)
            if not d <= CERTIFY_TOL:
                defects.append(f"d(q, T{i} q) = {d:g} > {CERTIFY_TOL:g}")
            elif self.strict_fixed_points:
                h = _farthest(img, qv)
                if not h <= CERTIFY_TOL:
                    defects.append(
                        f"T{i} q is not the singleton {{q}}: H = {h:g}")
        return defects

    def certify_common_point(self, q) -> bool:
        return not self.common_point_defects(q)

    def _require_common_point(self, q: np.ndarray, what: str) -> None:
        """Raise ``ValueError`` naming ``what``, the vector ``q`` and its
        defects unless ``q`` certifies."""
        defects = self.common_point_defects(q)
        if defects:
            raise ValueError(f"{what} {q.tolist()} does not certify: "
                             + "; ".join(defects))


@dataclass(slots=True)
class IterState:
    """One iterate with the stage points of the step that produced it.

    ``psi_prev`` is the iterate the step started from (equal to ``psi`` at
    n = 0, where the stage points are mirrors of the start).  Residuals are
    d(stage, T_i(stage)); ``fb_residual`` is measured at ``psi`` itself,
    through the point J(psi - lam*Forward psi), which ``fb_carry`` keeps
    as (problem, point): the next step takes it as its delta when it steps
    the same problem with a lambda equal to ``lam``.  A copy made with
    ``dataclasses.replace`` drops it.  ``alpha``/``mu`` are nan when the
    rule does not use them.

    A state :func:`run` returns in its trajectory has had its stage
    points released once they were audited: ``delta``, ``pi``, ``phi`` and
    ``xi`` are then all :data:`RELEASED`, and :func:`audit_fejer_chain`
    raises on it.  ``fejer_ok`` keeps the audit's verdict.  Its
    ``psi_prev`` is :data:`RELEASED` too when the state before it was not
    recorded (past n = 10000, or with a ``record_stride`` above 1), and is
    otherwise the ``psi`` of the state recorded before it.
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
    fejer_ok: bool | None = None
    fb_carry: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)


@dataclass
class RunReport:
    """The outcome of :func:`run`.

    ``diverged_at`` names what ended a ``divergence_guard`` run: the stage
    whose value turned non-finite (see :class:`NonFiniteError`), or
    ``"norm limit"`` when an iterate left the ball of radius
    :data:`DIVERGENCE_LIMIT`.  It is None for every other termination.
    """

    algorithm: str
    instance: str
    trajectory: list
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


def _vector(v, checked: bool) -> np.ndarray:
    """``v`` coerced as by :func:`~viscosplit.hilbert.as_vector`; a float
    vector is scanned for finiteness only when ``checked``."""
    return as_vector(v) if checked or not _is_vector(v) else v


def _fb_point(problem: ProblemInstance, lam: float, x: np.ndarray,
              checked: bool = True) -> np.ndarray:
    """J(x - lam*Forward x) at the checked point ``x``; like
    :func:`~viscosplit.monotone.resolvent`, rejects a lam that is not > 0.
    The forward operator's value is checked, and with ``checked`` the
    resolvent's value too; a :class:`NonFiniteError` names
    ``"forward operator"`` or ``"delta"``."""
    stage = "forward operator"
    try:
        y = x - lam * _value(problem.forward, x)
        _check_lam(lam)
        stage = "delta"
        return _vector(problem.inclusion.resolvent(lam, y), checked)
    except NonFiniteError:
        raise NonFiniteError(f"non-finite {stage}", stage) from None


def _step(problem: ProblemInstance, schedule: Schedule, state: IterState,
          anchor: Anchor, checked: bool = False) -> IterState:
    """One step of the rule ``anchor`` describes.

    Uses sequence index n + 1 for the step leaving iterate n; sequences are
    defined from index 1.  Every T_i residual is measured, at the stage
    point it would average, also when that averaging line does not run.

    The first pass scans only the values nothing downstream rejects (see
    the module docstring).  If it fails in any way, the step is replayed
    with ``checked``, which scans every value where it is made, so the
    step fails as the fully checked step does: a :class:`NonFiniteError`
    names the value that turned non-finite.
    """
    i = state.n + 1
    lam = schedule.lam(i)
    psi = state.psi
    stage = None
    try:
        # The residual of ``state`` evaluated J(psi - lam*Forward psi) with
        # its own problem and lambda; with the same ones that point is this
        # step's delta.
        carry = state.fb_carry
        if carry is not None and carry[0] is problem and lam == state.lam:
            x = carry[1]
        else:
            x = _fb_point(problem, lam, psi, checked)
        # Selected points stay alive until the averaging is done and each
        # image is dropped after its pass: at dimension 1e5 other lifetimes
        # made the allocator fault up to two thirds more pages per step.
        points, residuals, selected = [x], [], []
        weights = (schedule.theta, schedule.beta, schedule.gamma)
        for k, (t, weight) in enumerate(zip(problem.maps, weights)):
            stage = _IMAGES[k]
            img = t.image(x)
            residuals.append(_distance(x, img))
            if k < anchor.stages:
                selected.append(_select(img, problem.selection, x))
                w = weight(i)
                stage = _AVERAGED[k]
                x = w * x + (1.0 - w) * selected[-1]
                if checked and not all_finite(x):
                    raise NonFiniteError()
            points.append(x)
            del img
        del selected

        if anchor.stages:
            a = schedule.alpha(i)
            m = schedule.mu(i) if anchor.mixes else np.nan
            p = problem.params
            c = points[anchor.carry]
            # The target is summed in place, in the order of the rule's
            # line, so that no operator value outlives its term.
            stage = "contraction"
            target = a * p.gamma * _vector(problem.contraction.apply(psi),
                                           checked)
            stage = "strong operator"
            if anchor.mixes:
                target += m * c
                target += (1.0 - m) * (psi - p.eta * a * _vector(
                    problem.strong.apply(psi), checked))
            else:
                target += c
                target -= p.eta * a * _vector(problem.strong.apply(c),
                                              checked)
            stage = "psi"
            psi_new = project(problem.feasible, target)
        else:
            a = m = np.nan
            psi_new = points[0]
        return _build_state(problem, i, psi_new, psi, points, residuals, a,
                            m, lam, checked)
    except Exception as err:
        # Unscanned values may reach a mapping, an operator or numpy
        # arithmetic that fails in its own way (a warning raised as an
        # error, say); the replay fails where the checked step fails.
        if checked:
            if isinstance(err, NonFiniteError) and err.stage is None:
                raise NonFiniteError(f"non-finite {stage}", stage) from None
            raise
    # Outside the handler, so that what the replay raises stands alone.
    return _step(problem, schedule, state, anchor, checked=True)


def _build_state(problem: ProblemInstance, n: int, psi: np.ndarray,
                 psi_prev: np.ndarray, points, residuals, alpha: float,
                 mu: float, lam: float, checked: bool = True) -> IterState:
    """The state at the checked iterate ``psi``, with the stage ``points``
    (delta, pi, phi_p, xi) and their ``residuals`` that led to it.

    Adds the forward-backward point of ``psi`` at ``lam``, carried for the
    next step, with its residual, and the distance to the known solution.
    Unless ``checked``, the point is not scanned: its residual ``norm``
    rejects a non-finite one.
    """
    fb_point = _fb_point(problem, lam, psi, checked)
    dist = (np.nan if problem.known_solution is None
            else norm(psi - problem.known_solution))
    state = IterState(n, psi, psi_prev, *points, *residuals,
                      fb_residual=norm(psi - fb_point), dist_to_solution=dist,
                      alpha=alpha, mu=mu, lam=lam)
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

    A start state that cannot be built raises :class:`NonFiniteError`
    naming its stage: ``"psi"`` for ``psi0`` and its projection,
    ``"T1 image"``, ``"T2 image"`` or ``"T3 image"`` for the images of the
    start, and ``"forward operator"`` or ``"delta"`` for its
    forward-backward point.
    """
    stage = "psi"
    try:
        psi = project(problem.feasible, as_vector(psi0, problem.dim))
        residuals = []
        for stage, t in zip(_IMAGES, problem.maps):
            residuals.append(_distance(psi, t.image(psi)))
    except NonFiniteError:
        raise NonFiniteError(f"non-finite {stage}", stage) from None
    return _build_state(problem, 0, psi, psi, (psi,) * 4, residuals, np.nan,
                        np.nan, schedule.lam(1))


# --------------------------------------------------------------------------
# Audits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FejerAudit:
    """The four chain links at one state, each as (name, lhs, rhs, ok)."""

    links: tuple


#: What the stage points of a state read once :func:`run` has audited
#: and released them: one shared, read-only, empty array.
RELEASED = np.empty(0)
RELEASED.flags.writeable = False


def _release(state: IterState) -> None:
    """Drop the stage points of an audited ``state``."""
    state.delta = state.pi = state.phi = state.xi = RELEASED


#: Chain link names; link k compares distance row k with row k + 1 of
#: :func:`_audit` over (xi, phi_p, pi, delta, psi_prev).
_LINKS = ("xi_le_phi", "phi_le_pi", "pi_le_delta", "delta_le_psi")


#: Largest difference, in bytes, that :func:`_distances` builds in one
#: stacked pass: glibc's default mmap threshold.  Below it the array comes
#: from the heap, and one pass over six 1-D points and three common points
#: took ~4 us against ~21 us point by point.  Above it each audit would map
#: and fault fresh pages: stacking at dimension 1e5 took 9 MB more peak
#: memory and 1.4-1.8x the time per iteration.
STACKED_AUDIT_BYTES = 128 * 1024

#: Most states :func:`run` audits in one stacked pass.  The byte cap alone
#: lets ~910 one-dimensional states wait against three common points, and
#: keeping them alive, unrecorded ones too, read 1.1-1.2 MB more peak
#: memory on the ``long_haul`` benchmark; with 64 it read within 0.1 MB of
#: auditing each state at once.
AUDIT_BLOCK = 64


def _distances(points, q_rows: np.ndarray) -> np.ndarray:
    """||p - q|| for each point p and each row q of the (Q, d) ``q_rows``.

    Returns a (len(points), Q) array.  When the (len(points), Q, d)
    difference fits in :data:`STACKED_AUDIT_BYTES` it is built at once;
    otherwise the points are taken one at a time, so one (Q, d) difference
    is alive at once, and a point passed more than once (a mirrored stage)
    is measured once.  ``np.vecdot`` reduces each row with the dot kernel
    of ``v.dot(v)``, so every entry equals ``norm(p - q)`` bit for bit on
    either path.
    """
    if len(points) * q_rows.nbytes <= STACKED_AUDIT_BYTES:
        diff = np.array(points)[:, np.newaxis] - q_rows
        return np.sqrt(np.vecdot(diff, diff))
    out = np.empty((len(points), len(q_rows)))
    first = {}
    for k, p in enumerate(points):
        j = first.setdefault(id(p), k)
        if j < k:
            out[k] = out[j]
        else:
            diff = q_rows - p
            out[k] = np.sqrt(np.vecdot(diff, diff))
    return out


def _audit(states, q_rows: np.ndarray, limits) -> tuple:
    """Both per-iteration inequalities of ``states`` against each row of
    the (Q, d) ``q_rows``.

    Measures (xi, phi_p, pi, delta, psi_prev, psi) of every state with
    :func:`_distances` and returns ``(d, failed_links, outside)``: the
    (B, 6, Q) distances, the (B, 4, Q) chain links that fail with the
    absolute tolerance :data:`AUDIT_TOL`, and the (B, Q) iterates beyond
    ``limits`` (the radii with their tolerance).  A nan distance fails.
    """
    d = _distances([p for st in states for p in (
        st.xi, st.phi, st.pi, st.delta, st.psi_prev, st.psi)],
        q_rows).reshape(len(states), 6, len(q_rows))
    return d, ~(d[:, :4] <= d[:, 1:5] + AUDIT_TOL), ~(d[:, 5] <= limits)


def audit_fejer_chain(state: IterState, q) -> FejerAudit:
    """Audit the stage monotonicity chain of one state against a point q.

    Checks ||xi - q|| <= ||phi_p - q|| <= ||pi - q|| <= ||delta - q|| <=
    ||psi_prev - q|| with the absolute tolerance :data:`AUDIT_TOL`, as
    :func:`run` does.  The last link is the averaging-monotone inequality
    tying the forward-backward point back to the iterate the step started
    from.  A q of another dimension than the state raises
    :class:`~viscosplit.hilbert.DimensionMismatch`, and a state whose
    stage points :func:`run` has released raises ``ValueError``: its
    chain can no longer be measured, only read from ``fejer_ok``.
    """
    if not state.xi.size:
        raise ValueError(f"the stage points of state n={state.n} were "
                         f"released after run() audited the state")
    qv = as_vector(q, state.psi.size)
    d, failed, _ = _audit([state], qv[np.newaxis], np.inf)
    d, failed = d[0, :, 0].tolist(), failed[0, :, 0].tolist()
    return FejerAudit(tuple((name, d[k], d[k + 1], not failed[k])
                            for k, name in enumerate(_LINKS)))


def boundedness_radius(problem: ProblemInstance, mu_bar: float, psi0,
                       q) -> float:
    """The a priori radius max(||psi0 - q||, ||g*phi(q) - eta*Strong q|| / m)
    with m = tau*(1 - mu_bar) - gamma*b, valid for every iterate."""
    p = problem.params
    margin = p.margin(mu_bar)
    if not margin > 0:
        raise ValueError("no contraction margin: tau*(1-mu_bar) <= gamma*b")
    qv = as_vector(q, problem.dim)
    drift = norm(p.gamma * problem.contraction(qv) - p.eta * problem.strong(qv))
    return max(norm(as_vector(psi0, problem.dim) - qv), drift / margin)


def vi_residual(problem: ProblemInstance, psi, probes=None) -> float:
    """Worst violation of the limiting variational inequality at psi.

    For each certified common point q the solution must satisfy
    <eta*Strong(psi) - g*phi(psi), psi - q> <= 0; the residual is the
    largest positive left side over the probes (0 when all hold).  Probes
    default to the instance's known common points, certified when it was
    built; a probe passed in must certify, otherwise the metric would be
    meaningless.  Returns nan with no probes.
    """
    psiv = as_vector(psi, problem.dim)
    if probes is None:
        probes = problem.known_common_points
    else:
        probes = [as_vector(q, problem.dim) for q in probes]
        for q in probes:
            problem._require_common_point(q, "probe")
    if not probes:
        return np.nan
    return _vi_worst(problem, psiv, probes)


def _vi_worst(problem: ProblemInstance, psi: np.ndarray, qs) -> float:
    """:func:`vi_residual` at a checked ``psi`` over certified points ``qs``."""
    p = problem.params
    direction = p.eta * problem.strong(psi) - p.gamma * problem.contraction(psi)
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
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not 0.0 < tol < np.inf):
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
    1e12 or a step meets a non-finite value; the report's ``diverged_at``
    then says which.  A start state that cannot be built raises
    :class:`NonFiniteError` naming its stage (see :func:`initial_state`).
    Every iteration (recorded or
    not) is audited against each known common point: the stage
    chain with absolute tolerance 1e-10 and the a priori boundedness radius
    with 1e-8.  States are audited in blocks of up to :data:`AUDIT_BLOCK`,
    in one stacked pass over a difference of at most
    :data:`STACKED_AUDIT_BYTES` (a state wider than that alone, point by
    point), and every exit audits the block it leaves; the violation
    counts and each state's ``fejer_ok`` are exact, the same as one state
    at a time.  Each state's stage points are released once its audit has
    run (without common points, once the next step has left it), so no
    state of the trajectory keeps them (see :class:`IterState`).  The
    ``psi_prev`` of a recorded state whose predecessor is not recorded is
    released at the same time, and every exit releases what is left of
    both.
    Recording keeps every state up to n = 10000 and then every
    hundredth, unless ``record_stride`` forces a fixed stride.  The
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

    state = initial_state(problem, schedule, psi0)
    q_rows = np.array(qs).reshape(len(qs), problem.dim)
    limits = np.array([boundedness_radius(problem, schedule.mu_bar,
                                          state.psi, q) for q in qs]
                      ) + CERTIFY_TOL

    fejer_violations = bound_violations = 0
    # States wait here and are audited together: AUDIT_BLOCK of them, or
    # fewer when their stacked difference would pass STACKED_AUDIT_BYTES.
    # A state whose own difference passes it is audited at once, point by
    # point.
    pending = []

    # Recorded states whose predecessor is not recorded: their psi_prev is
    # an iterate the trajectory does not keep, released once audited.
    orphans = []

    def release_orphans() -> None:
        for st in orphans:
            st.psi_prev = RELEASED
        orphans.clear()

    def audit() -> None:
        """Audit the chain and the radius of the pending states against all
        common points at once, set ``fejer_ok`` on each, release its stage
        points and let them go."""
        nonlocal fejer_violations, bound_violations
        _, failed, outside = _audit(pending, q_rows, limits)
        fejer_violations += int(np.count_nonzero(failed))
        bound_violations += int(np.count_nonzero(outside))
        for st, bad in zip(pending, failed.any(axis=(1, 2)).tolist()):
            st.fejer_ok = not bad
            _release(st)
        pending.clear()
        release_orphans()  # each was pending until now, or before

    def hold(st: IterState) -> None:
        """Queue ``st`` for the audit, and audit the queue once it is
        full."""
        pending.append(st)
        if len(pending) == block:
            audit()

    if qs:
        block = max(1, min(AUDIT_BLOCK,
                           STACKED_AUDIT_BYTES // (6 * q_rows.nbytes)))
        hold(state)
    recorded = [state]
    terminated, diverged_at = "max_iter", None
    steps = range(max_iter)
    # The start is checked here and every later iterate after its step.
    if max_iter and norm(state.psi) > DIVERGENCE_LIMIT:
        terminated, diverged_at, steps = "divergence_guard", "norm limit", ()

    for _ in steps:
        try:
            new = stepper(problem, schedule, state)
        except NonFiniteError as err:
            terminated, diverged_at = "divergence_guard", err.stage
            break
        # The step has taken the point; keep it out of the trajectory.
        state.fb_carry = None
        if qs:
            hold(new)
        else:
            _release(state)  # nothing audits it
            release_orphans()
        if should_record(new.n):
            if recorded[-1] is not state:
                orphans.append(new)
            recorded.append(new)
        displacement = norm(new.psi - state.psi)
        state = new
        if norm(state.psi) > DIVERGENCE_LIMIT:
            terminated, diverged_at = "divergence_guard", "norm limit"
            break
        worst_residual = max(state.residual_t1, state.residual_t2,
                             state.residual_t3, state.fb_residual)
        if displacement <= tol and worst_residual <= tol:
            terminated = "tolerance"
            break

    # Every exit path leaves the loop here.
    if pending:
        audit()
    if recorded[-1].n != state.n:
        if recorded[-1].n != state.n - 1:
            orphans.append(state)
        recorded.append(state)
    state.fb_carry = None
    _release(state)  # the last state, when no audit has released it
    release_orphans()

    final_vi = np.nan
    if qs:
        try:
            final_vi = _vi_worst(problem, state.psi, q_rows)
        except NonFiniteError:
            pass  # an operator is non-finite at the last iterate

    return RunReport(
        algorithm=algorithm, instance=problem.name, trajectory=recorded,
        iterations=state.n, terminated_by=terminated, final=state.psi,
        vi_residual=final_vi, fejer_violations=fejer_violations,
        bound_violations=bound_violations, audit_points=len(qs),
        problem=problem, schedule=schedule, diverged_at=diverged_at)
