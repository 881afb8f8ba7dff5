"""Single-valued operators, maximal monotone operators, and their resolvents.

Single-valued operators carry declared moduli (Lipschitz constant, strong
monotonicity, inverse strong monotonicity) which the solver conditions
consume.  Maximal monotone operators come from a small catalog with exact
resolvents: the zero operator, a normal cone of a projectable convex set,
a weighted l1 subdifferential, and a nonnegative scalar multiple of the
identity.  The resolvent with parameter lam > 0 is J(x) = (I + lam*A)^{-1} x.

:func:`resolvent` is the public boundary: it checks lam, coerces and
checks x once, and checks the value against the size of x.  A
:meth:`MaxMonotone.resolvent` method takes a vector already checked and
does not check it again.  So do
:func:`forward_backward_step` and :func:`fixed_point_residual`: they hand
the checked x to the one kernel of the forward-backward point
J(x - lam*Fx), which the solver's step, its start state and the
certification of a common point call too.  It checks the forward
operator's value and the resolvent's against the size of x, and a
:class:`~viscosplit.hilbert.NonFiniteError` or
:class:`~viscosplit.hilbert.DimensionMismatch` names ``"forward
operator"`` or ``"delta"``.  Every value checked here is compared with
the size of the point it was made at, so an operator's 1-vector does not
broadcast against a point of R^3.  The class audits hand
their pairs to :func:`~viscosplit.setvalued.sampled_audit`, which checks
the whole sample in one scan, and form each inequality over the stacked
rows at once.  The operators and resolvents run on the whole stack too:

- an operator that declares ``rowwise`` (``affine_op``, ``zero_op`` and
  ``identity_op``, so every operator of the catalog) is called once per
  stack, and its value is scanned once; any other operator is called
  case by case, and each value is checked as it is made;
- :meth:`MaxMonotone.resolvent_rows` of the zero operator, a multiple of
  the identity and the l1 subdifferential acts elementwise on the stack,
  and that of a normal cone projects it with
  :meth:`~viscosplit.hilbert.ConvexSet.project_rows`; any other resolvent
  runs row by row.  The stacked gap Jx - Jy is scanned once.

Each stacked value equals its rows' values bit for bit, so the audits
read the same numbers either way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, ConvexSet, DimensionMismatch, _is_real,
                      _is_vector, _named, as_vector, norm, row_norms)
from .setvalued import AuditResult, _stacked, sampled_audit


@dataclass(frozen=True)
class SingleOp:
    """A single-valued operator with declared (not verified) moduli.

    Each of ``lipschitz``, ``strong_monotonicity`` and
    ``inverse_strong_monotonicity`` is None (undeclared) or a finite real
    number >= 0, not a bool; construction raises ``ValueError`` naming a
    modulus that is neither.

    ``rowwise`` declares that ``apply`` also takes a (k, d) stack and
    returns the stack of its values at the rows, each equal bit for bit to
    the value at that row alone; the class audits then call it once per
    stack, and once more at the stack's first row to compare the two.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    strong_monotonicity: float | None = None
    inverse_strong_monotonicity: float | None = None
    name: str = ""
    rowwise: bool = False

    def __post_init__(self):
        for modulus in ("lipschitz", "strong_monotonicity",
                        "inverse_strong_monotonicity"):
            value = getattr(self, modulus)
            if value is not None and not (_is_real(value)
                                          and 0.0 <= value < np.inf):
                raise ValueError(
                    f"operator {self.name!r}: {modulus} must be None or a "
                    f"finite real number >= 0, got {value!r}")

    def __call__(self, x) -> np.ndarray:
        return _value(self, as_vector(x))


def _value(op: SingleOp, x: np.ndarray, checked: bool = True) -> np.ndarray:
    """``op`` at the checked point ``x``, made a vector by :func:`_vector`."""
    return _vector(op.apply(x), x, checked)


def _vector(v, x: np.ndarray, checked: bool) -> np.ndarray:
    """``v``, a value made at the checked point ``x``, coerced as by
    :func:`~viscosplit.hilbert.as_vector` and compared with the size of
    ``x``.  ``x`` itself is not scanned again, and a float vector of that
    size is scanned for finiteness only when ``checked``."""
    if v is x:
        return v
    fresh = checked or not _is_vector(v) or v.size != x.size
    return as_vector(v, x.size) if fresh else v


def _values(op: SingleOp, xs: np.ndarray) -> np.ndarray:
    """``op`` at every row of the checked (k, d) stack ``xs``, stacked.

    A ``rowwise`` operator is called once, and its value is scanned once
    unless it is ``xs`` itself; a value of another shape than ``xs``
    raises :class:`~viscosplit.hilbert.DimensionMismatch`.  Any other
    operator is called row by row through :func:`_value`, which compares
    each value with its row's size.
    """
    if not op.rowwise:
        return np.array([_value(op, x) for x in xs])
    return _stacked(op.apply, xs)


def zero_op(name: str = "zero") -> SingleOp:
    # Vacuously inverse strongly monotone for any modulus; declare 1 so the
    # splitting-step window stays the unit interval.
    return SingleOp(lambda x: np.zeros(x.shape), lipschitz=0.0,
                    inverse_strong_monotonicity=1.0, name=name, rowwise=True)


def identity_op(name: str = "identity") -> SingleOp:
    return SingleOp(lambda x: x, lipschitz=1.0, strong_monotonicity=1.0,
                    inverse_strong_monotonicity=1.0, name=name, rowwise=True)


def affine_op(coef: float, offset=None, dim: int | None = None,
              name: str = "affine") -> SingleOp:
    """x -> coef * x + offset with the moduli of a scaled shift.

    For coef > 0 this is coef-strongly monotone and (1/coef)-inverse
    strongly monotone.  For coef = 0 it is a constant map, inverse strongly
    monotone with every modulus, and declares 1, as :func:`zero_op` does,
    so it can serve as a problem's forward operator.  For coef = 1 the
    value is x + offset, and x itself without an offset.  With an offset,
    a point of another dimension raises
    :class:`~viscosplit.hilbert.DimensionMismatch`.
    """
    coef = float(coef)
    if not coef >= 0:
        raise ValueError("affine_op needs a nonnegative coefficient")
    off = None if offset is None else as_vector(offset, dim)

    def apply(x):
        if off is not None and x.shape[-1] != off.size:
            raise DimensionMismatch(f"an operator of dimension {off.size} "
                                    f"at a point of dimension {x.shape[-1]}")
        # 1.0 * x is x bit for bit, so that pass is not made.
        y = x if coef == 1.0 else coef * x
        return y if off is None else y + off

    return SingleOp(
        apply,
        lipschitz=abs(coef),
        strong_monotonicity=coef if coef > 0 else None,
        inverse_strong_monotonicity=(1.0 / coef) if coef > 0 else 1.0,
        name=name, rowwise=True,
    )


# --------------------------------------------------------------------------
# Maximal monotone catalog
# --------------------------------------------------------------------------

class MaxMonotone:
    """Base for maximal monotone operators with exact resolvents."""

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        """J(x) for lam > 0 at a checked vector ``x``."""
        raise NotImplementedError

    def resolvent_rows(self, lam: float, xs: np.ndarray) -> np.ndarray:
        """:meth:`resolvent` at every row of the checked (k, d) stack
        ``xs``, stacked, each row equal to its resolvent bit for bit.  Row
        by row here; the built-in operators take the stack at once."""
        return np.array([self.resolvent(lam, x) for x in xs])


@dataclass(frozen=True)
class ZeroOperator(MaxMonotone):
    """A = 0; the resolvent is the identity for every lam."""

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return x

    resolvent_rows = resolvent  # elementwise, so a stack too


@dataclass(frozen=True)
class NormalCone(MaxMonotone):
    """Normal cone of a convex set; the resolvent is the projection."""

    set: ConvexSet

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return self.set.project(x)

    def resolvent_rows(self, lam: float, xs: np.ndarray) -> np.ndarray:
        return self.set.project_rows(xs)


@dataclass(frozen=True)
class L1Subdifferential(MaxMonotone):
    """Subdifferential of x -> sum_i w_i |x_i|; resolvent soft-thresholds."""

    weight: np.ndarray | float = 1.0

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weight, dtype=float))
        if not np.all(w >= 0):
            raise ValueError("l1 weights must be nonnegative")
        object.__setattr__(self, "weight", w)

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.maximum(np.abs(x) - lam * self.weight, 0.0)

    resolvent_rows = resolvent  # elementwise, so a stack too


@dataclass(frozen=True)
class LinearMonotone(MaxMonotone):
    """A = coef * I with coef >= 0; the resolvent shrinks by 1/(1 + lam*coef)."""

    coef: float

    def __post_init__(self):
        object.__setattr__(self, "coef", float(self.coef))
        if not self.coef >= 0:
            raise ValueError("coefficient must be nonnegative for monotonicity")

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return x / (1.0 + lam * self.coef)

    resolvent_rows = resolvent  # elementwise, so a stack too


def _check_lam(lam: float) -> None:
    """Reject a resolvent parameter that is not > 0 (nan included)."""
    if not lam > 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")


def resolvent(op: MaxMonotone, lam: float, x) -> np.ndarray:
    """J(x) = (I + lam*op)^{-1} x, requiring lam > 0.  The value is checked
    against the size of x: one of another size raises
    :class:`~viscosplit.hilbert.DimensionMismatch`, a non-finite one
    :class:`~viscosplit.hilbert.NonFiniteError`."""
    _check_lam(lam)
    xv = as_vector(x)
    return _vector(op.resolvent(lam, xv), xv, True)


def _forward_backward(inclusion: MaxMonotone, forward: SingleOp, lam: float,
                      x: np.ndarray, checked: bool = True) -> np.ndarray:
    """J(x - lam*forward(x)) at the checked point ``x``; like
    :func:`resolvent`, rejects a lam that is not > 0.  The forward
    operator's value is checked, and so is the resolvent's value when
    ``checked``; the size of both is compared with that of ``x``.  A
    :class:`~viscosplit.hilbert.NonFiniteError` or
    :class:`~viscosplit.hilbert.DimensionMismatch` names ``"forward
    operator"`` or ``"delta"``.

    The forward point x - lam*forward(x) is computed as
    ``-lam * forward(x) + x``, which has the same bits (see the
    :mod:`~viscosplit.solvers` module docstring) and lets numpy write the
    sum into the fresh product instead of a third vector.  A box's clip in
    the resolvent reads bounds derived once (see
    :class:`~viscosplit.hilbert.Box`)."""
    stage = "forward operator"
    try:
        y = -lam * _value(forward, x) + x
        _check_lam(lam)
        stage = "delta"
        return _vector(inclusion.resolvent(lam, y), x, checked)
    except ValueError as err:
        raise _named(err, stage) from None


def forward_backward_step(inclusion: MaxMonotone, forward: SingleOp,
                          lam: float, x) -> np.ndarray:
    """One forward-backward application J(x - lam * forward(x)), each value
    checked (see the module docstring)."""
    return _forward_backward(inclusion, forward, lam, as_vector(x))


def fixed_point_residual(inclusion: MaxMonotone, forward: SingleOp,
                         lam: float, x) -> float:
    """||x - J(x - lam*forward(x))||; zero exactly on the solution set."""
    xv = as_vector(x)
    return norm(xv - _forward_backward(inclusion, forward, lam, xv))


# --------------------------------------------------------------------------
# Operator audits
# --------------------------------------------------------------------------

def check_inverse_strongly_monotone(op: SingleOp, alpha: float,
                                    pairs: Sequence) -> AuditResult:
    """Audit  <op x - op y, x - y> >= alpha * ||op x - op y||^2  on pairs."""
    if not alpha > 0:
        raise ValueError("inverse strong monotonicity modulus must be positive")

    def sides(xs, ys):
        gap = _values(op, xs) - _values(op, ys)
        size = row_norms(gap)
        return alpha * (size * size), np.vecdot(gap, xs - ys)
    return sampled_audit("inverse_strongly_monotone", pairs, sides)


def check_forward_nonexpansive(op: SingleOp, alpha: float, theta: float,
                               pairs: Sequence) -> AuditResult:
    """Audit nonexpansiveness of I - theta*op for an alpha-ism operator.

    The guarantee only holds for theta in [0, 2*alpha]; outside that window
    the audit still runs on the data but the result is annotated, since a
    pass there is coincidental rather than implied.
    """
    note = ""
    if not 0.0 <= theta <= 2.0 * alpha:
        note = (f"theta={theta} outside [0, {2.0 * alpha}]; "
                "nonexpansiveness is not guaranteed in this range")

    def sides(xs, ys):
        vx, vy = _values(op, xs), _values(op, ys)
        return (row_norms((xs - theta * vx) - (ys - theta * vy)),
                row_norms(xs - ys))
    return sampled_audit("forward_nonexpansive", pairs, sides, note=note)


def check_lipschitz(op: SingleOp, L: float, pairs: Sequence) -> AuditResult:
    """Audit  ||op x - op y|| <= L * ||x - y||  on pairs; L >= 0 is enforced
    before any sampling."""
    if not L >= 0:
        raise ValueError(f"Lipschitz constant must be nonnegative, got {L}")

    def sides(xs, ys):
        gap = _values(op, xs) - _values(op, ys)
        return row_norms(gap), L * row_norms(xs - ys)
    return sampled_audit("lipschitz", pairs, sides)


def wang_tau(eta: float, k: float, L: float) -> float:
    """Contraction modulus tau = eta * (k - L^2 * eta / 2)."""
    return eta * (k - L ** 2 * eta / 2.0)


def check_wang_contraction(op: SingleOp, eta: float, t: float,
                           pairs: Sequence) -> AuditResult:
    """Audit  ||(I - t*eta*op)x - (I - t*eta*op)y|| <= (1 - t*tau)||x - y||.

    ``op`` must declare strong monotonicity k and Lipschitz constant L.
    Preconditions 0 < eta < 2k/L^2 and 0 < t < min(1, 1/tau) are enforced
    before any sampling; violating them is a usage error, not an audit fail.
    """
    k, L = op.strong_monotonicity, op.lipschitz
    if k is None or L is None:
        raise ValueError("operator must declare strong monotonicity and "
                         "Lipschitz moduli for the contraction audit")
    if not 0.0 < eta < 2.0 * k / L ** 2:
        raise ValueError(f"eta={eta} outside (0, {2.0 * k / L ** 2})")
    tau = wang_tau(eta, k, L)
    if not 0.0 < t < min(1.0, 1.0 / tau):
        raise ValueError(f"t={t} outside (0, {min(1.0, 1.0 / tau)})")

    def sides(xs, ys):
        vx, vy = _values(op, xs), _values(op, ys)
        return (row_norms((xs - t * eta * vx) - (ys - t * eta * vy)),
                (1.0 - t * tau) * row_norms(xs - ys))
    return sampled_audit("averaged_contraction", pairs, sides)


def check_resolvent_firmly_nonexpansive(op: MaxMonotone, lam: float,
                                        pairs: Sequence,
                                        tol: float = DEFAULT_TOL) -> AuditResult:
    """Audit  ||Jx - Jy||^2 <= <Jx - Jy, x - y>  for J the lam-resolvent.

    lam > 0 is enforced before any sampling.  The resolvent values are not
    checked one by one: a stack of values of another shape than its stack
    of points raises :class:`~viscosplit.hilbert.DimensionMismatch` naming
    both shapes, the stacked gap Jx - Jy is scanned once, and a non-finite
    value raises :class:`~viscosplit.hilbert.NonFiniteError`.
    """
    _check_lam(lam)

    def rows(xs):
        vs = np.asarray(op.resolvent_rows(lam, xs), dtype=float)
        if vs.shape != xs.shape:
            raise DimensionMismatch(
                f"resolvent value shape {vs.shape}, not {xs.shape}")
        return vs

    def sides(xs, ys):
        gap = rows(xs) - rows(ys)
        as_vector(gap.ravel())  # one scan rejects a non-finite value
        size = row_norms(gap)
        return size * size, np.vecdot(gap, xs - ys)
    return sampled_audit("resolvent_firmly_nonexpansive", pairs, sides, tol)
