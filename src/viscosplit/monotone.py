"""Single-valued operators, maximal monotone operators, and their resolvents.

Single-valued operators carry declared moduli (Lipschitz constant, strong
monotonicity, inverse strong monotonicity) which the solver conditions
consume.  Maximal monotone operators come from a small catalog with exact
resolvents: the zero operator, a normal cone of a projectable convex set,
a weighted l1 subdifferential, and a nonnegative scalar multiple of the
identity.  The resolvent with parameter lam > 0 is J(x) = (I + lam*A)^{-1} x.

:func:`resolvent` is the public boundary: it checks lam and coerces and
checks x, once.  A :meth:`MaxMonotone.resolvent` method takes a vector
already checked and does not check it again.  The class audits hand
their pairs to :func:`~viscosplit.setvalued.sampled_audit`, which checks
the whole sample in one scan, and form each inequality over the stacked
rows at once: the operator or resolvent is called at each row, an operator
value is checked once, as it is made, and the stacked resolvent gap
Jx - Jy is scanned once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import DEFAULT_TOL, ConvexSet, as_vector, norm, row_norms
from .setvalued import AuditResult, sampled_audit


@dataclass(frozen=True)
class SingleOp:
    """A single-valued operator with declared (not verified) moduli."""

    apply: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    strong_monotonicity: float | None = None
    inverse_strong_monotonicity: float | None = None
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        return _value(self, as_vector(x))


def _value(op: SingleOp, xv: np.ndarray) -> np.ndarray:
    """``op`` at the checked point ``xv``.  The value is coerced and checked,
    unless it is ``xv`` itself."""
    v = op.apply(xv)
    return v if v is xv else as_vector(v)


def zero_op(name: str = "zero") -> SingleOp:
    # Vacuously inverse strongly monotone for any modulus; declare 1 so the
    # splitting-step window stays the unit interval.
    return SingleOp(lambda x: np.zeros_like(x), lipschitz=0.0,
                    inverse_strong_monotonicity=1.0, name=name)


def identity_op(name: str = "identity") -> SingleOp:
    return SingleOp(lambda x: x, lipschitz=1.0, strong_monotonicity=1.0,
                    inverse_strong_monotonicity=1.0, name=name)


def affine_op(coef: float, offset=None, dim: int | None = None,
              name: str = "affine") -> SingleOp:
    """x -> coef * x + offset with the moduli of a scaled shift.

    For coef > 0 this is coef-strongly monotone and (1/coef)-inverse
    strongly monotone; for coef = 0 it is a constant map.
    """
    coef = float(coef)
    if not coef >= 0:
        raise ValueError("affine_op needs a nonnegative coefficient")
    off = None if offset is None else as_vector(offset, dim)

    def apply(x):
        y = coef * x
        return y if off is None else y + off

    return SingleOp(
        apply,
        lipschitz=abs(coef),
        strong_monotonicity=coef if coef > 0 else None,
        inverse_strong_monotonicity=(1.0 / coef) if coef > 0 else None,
        name=name,
    )


# --------------------------------------------------------------------------
# Maximal monotone catalog
# --------------------------------------------------------------------------

class MaxMonotone:
    """Base for maximal monotone operators with exact resolvents."""

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        """J(x) for lam > 0 at a checked vector ``x``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroOperator(MaxMonotone):
    """A = 0; the resolvent is the identity for every lam."""

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return x


@dataclass(frozen=True)
class NormalCone(MaxMonotone):
    """Normal cone of a convex set; the resolvent is the projection."""

    set: ConvexSet

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        return self.set.project(x)


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


def _check_lam(lam: float) -> None:
    """Reject a resolvent parameter that is not > 0 (nan included)."""
    if not lam > 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")


def resolvent(op: MaxMonotone, lam: float, x) -> np.ndarray:
    """J(x) = (I + lam*op)^{-1} x, requiring lam > 0."""
    _check_lam(lam)
    return op.resolvent(lam, as_vector(x))


def forward_backward_step(inclusion: MaxMonotone, forward: SingleOp,
                          lam: float, x) -> np.ndarray:
    """One forward-backward application J(x - lam * forward(x))."""
    xv = as_vector(x)
    return resolvent(inclusion, lam, xv - lam * _value(forward, xv))


def fixed_point_residual(inclusion: MaxMonotone, forward: SingleOp,
                         lam: float, x) -> float:
    """||x - J(x - lam*forward(x))||; zero exactly on the solution set."""
    xv = as_vector(x)
    return norm(xv - forward_backward_step(inclusion, forward, lam, xv))


# --------------------------------------------------------------------------
# Operator audits
# --------------------------------------------------------------------------

def _paired(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
            ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f`` at every row of ``xs`` and of ``ys``, stacked as two arrays.
    ``f`` is called case by case, at x and then at y."""
    fx, fy = zip(*[(f(x), f(y)) for x, y in zip(xs, ys)])
    return np.array(fx), np.array(fy)


def check_inverse_strongly_monotone(op: SingleOp, alpha: float,
                                    pairs: Sequence) -> AuditResult:
    """Audit  <op x - op y, x - y> >= alpha * ||op x - op y||^2  on pairs."""
    if not alpha > 0:
        raise ValueError("inverse strong monotonicity modulus must be positive")

    def sides(xs, ys):
        vx, vy = _paired(lambda x: _value(op, x), xs, ys)
        gap = vx - vy
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
        vx, vy = _paired(lambda x: _value(op, x), xs, ys)
        return (row_norms((xs - theta * vx) - (ys - theta * vy)),
                row_norms(xs - ys))
    return sampled_audit("forward_nonexpansive", pairs, sides, note=note)


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
        vx, vy = _paired(lambda x: _value(op, x), xs, ys)
        return (row_norms((xs - t * eta * vx) - (ys - t * eta * vy)),
                (1.0 - t * tau) * row_norms(xs - ys))
    return sampled_audit("averaged_contraction", pairs, sides)


def check_resolvent_firmly_nonexpansive(op: MaxMonotone, lam: float,
                                        pairs: Sequence,
                                        tol: float = DEFAULT_TOL) -> AuditResult:
    """Audit  ||Jx - Jy||^2 <= <Jx - Jy, x - y>  for J the lam-resolvent.

    lam > 0 is enforced before any sampling.  The resolvent values are not
    checked one by one: the stacked gap Jx - Jy is scanned once, and a
    non-finite value raises :class:`~viscosplit.hilbert.NonFiniteError`.
    """
    _check_lam(lam)

    def sides(xs, ys):
        jx, jy = _paired(lambda x: op.resolvent(lam, x), xs, ys)
        gap = jx - jy
        as_vector(gap.ravel())  # one scan rejects a non-finite value
        size = row_norms(gap)
        return size * size, np.vecdot(gap, xs - ys)
    return sampled_audit("resolvent_firmly_nonexpansive", pairs, sides, tol)
