"""Finite-dimensional real Hilbert space primitives.

The ambient space is R^d with the standard dot product.  Feasible sets are
described by closed-form-projectable convex sets (whole space, box, ball,
half-space, affine subspace), so every projection here is exact up to
floating point; no inner QP solve is involved.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance of the stage-chain audit, the sampled operator-class
#: audits and :meth:`ConvexSet.contains`.  The boundedness radius audit
#: and common-point certification use ``solvers.CERTIFY_TOL`` = 1e-8.
DEFAULT_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Two vectors (or a vector and a set) live in different dimensions.

    ``stage`` names the value that failed (``"forward operator"``,
    ``"T1 image"``, ...) when a solver step or the certification of a
    common point raised the error, and is None otherwise.
    """

    def __init__(self, message: str = "", stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class NonFiniteError(ValueError):
    """A vector has a non-finite coordinate.

    ``stage`` names the value that failed (``"delta"``, ``"T2 image"``,
    ``"strong operator"``, ...) when a solver step raised the error, and
    is None otherwise.
    """

    def __init__(self, message: str = "vector has non-finite coordinates",
                 stage: str | None = None):
        super().__init__(message)
        self.stage = stage


def _named(err: Exception, stage: str | None) -> Exception:
    """``err`` naming ``stage`` when it is a :class:`NonFiniteError` or a
    :class:`DimensionMismatch` that names no stage yet, else ``err``."""
    if getattr(err, "stage", "") is not None:
        return err
    return type(err)(f"non-finite {stage}" if isinstance(err, NonFiniteError)
                     else f"{stage}: {err}", stage)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_vector(x) -> bool:
    return type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64


#: Up to this many coordinates, :func:`all_finite` sums them in Python,
#: which costs less than a call of ``np.vdot``.
SMALL_VECTOR = 32


def all_finite(v: np.ndarray) -> bool:
    """Whether every coordinate of the 1-D float64 array ``v`` is finite.

    Any inf or nan coordinate makes the sum of the coordinates, and the
    sum of their squares, non-finite, so the full coordinate scan runs
    only when that sum is not finite (a non-finite coordinate, or finite
    ones whose sum overflows).  A vector of at most :data:`SMALL_VECTOR`
    coordinates is summed as Python floats, a longer one by ``np.vdot``
    as its sum of squares; neither warns on overflow.
    """
    s = sum(v.tolist()) if v.size <= SMALL_VECTOR else np.vdot(v, v)
    return math.isfinite(s) or bool(np.isfinite(v).all())


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array.

    Scalars become length-1 vectors so the 1-D examples read naturally; a
    1-D float64 array is returned as it is.  Raises
    :class:`NonFiniteError` on non-finite coordinates and
    ``DimensionMismatch`` when ``dim`` is given and does not match.
    """
    v = x if _is_vector(x) else _coerce(x)
    if not all_finite(v):
        raise NonFiniteError()
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def _coerce(x) -> np.ndarray:
    """``x`` as a 1-D float array, not scanned for finiteness."""
    if _is_vector(x):
        return x
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def _width(xs: np.ndarray, dim: int) -> np.ndarray:
    """The (k, d) stack ``xs``; raises :class:`DimensionMismatch` unless
    d is ``dim``."""
    if xs.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {xs.shape[1]}")
    return xs


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv, yv = as_vector(x), as_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatch(f"dimensions differ: {xv.size} vs {yv.size}")
    return xv, yv


def inner(x, y) -> float:
    """Standard inner product <x, y>."""
    xv, yv = _pair(x, y)
    return float(xv @ yv)


def norm(x) -> float:
    """Norm induced by :func:`inner`; equal bit for bit to ``np.linalg.norm``,
    which also takes the square root of ``v.dot(v)`` for a real vector.

    A finite ``v.dot(v)`` of a 1-D float64 array shows every coordinate is
    finite, so only other input, or a sum that is not finite, goes through
    :func:`as_vector`.
    """
    if _is_vector(x):
        s = float(x.dot(x))
        if math.isfinite(s):
            return math.sqrt(s)
    v = as_vector(x)
    return math.sqrt(float(v.dot(v)))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row (along the last axis) of the float array
    ``rows``, equal to :func:`norm` of that row bit for bit: ``np.vecdot``
    reduces each row with the dot kernel of ``v.dot(v)``.  Nothing is
    scanned, so an overflowing row reads inf."""
    return np.sqrt(np.vecdot(rows, rows))


# --------------------------------------------------------------------------
# Convex sets with exact projections
# --------------------------------------------------------------------------

class ConvexSet:
    """Base for projectable closed convex sets."""

    def project(self, x) -> np.ndarray:
        """The nearest point of the set to ``x``, which is coerced and
        checked as by :func:`as_vector`."""
        raise NotImplementedError

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`project` of every row of the checked (k, d) stack ``xs``,
        stacked; each row equals its projection bit for bit.  Row by row
        here; the whole space, a box and a ball project the stack at once."""
        return np.array([self.project(x) for x in xs])

    def contains(self, x) -> bool:
        """Whether x lies within :data:`DEFAULT_TOL` of the set."""
        xv = as_vector(x)
        return norm(xv - self.project(xv)) <= DEFAULT_TOL


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    """All of R^d; projection is the identity."""

    def project(self, x) -> np.ndarray:
        return as_vector(x)

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        return xs


def _clip_bound(b: np.ndarray) -> np.ndarray:
    """The bound ``b`` to clip against: a 0-d array of its one value when
    every coordinate has the same bits and that value is not zero, else
    ``b`` itself.

    numpy clips against 0-d bounds in a faster loop of its own.  It gives
    the same bytes as the per-coordinate clip except where a coordinate
    equals a bound in value but not in bits, which only a zero can: against
    a zero bound, a zero of the other sign is kept by the 0-d loop and
    replaced by the bound in the per-coordinate one.  So a zero bound, and
    a bound that mixes 0.0 and -0.0 (compared as int64 bits), stay per
    coordinate.
    """
    bits = b.view(np.int64)
    if b.size and b[0] != 0.0 and (bits == bits[0]).all():
        return b[:1].reshape(())
    return b


@dataclass(frozen=True)
class Box(ConvexSet):
    """{x : lower <= x <= upper} componentwise.

    The clip bounds are derived once, when the box is made: a bound whose
    coordinates all share one nonzero value is clipped against as a 0-d
    array (see :func:`_clip_bound`), with the same bytes as clipping
    against every coordinate.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, hi = _pair(self.lower, self.upper)
        if np.any(lo > hi):
            raise ValueError("box is empty: lower > upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "_bounds", (_clip_bound(lo), _clip_bound(hi)))

    # ``ndarray.clip`` is what ``np.clip`` dispatches to, without its
    # wrapper: the same values, signed zeros and nan included.
    def project(self, x) -> np.ndarray:
        return as_vector(x, self.lower.size).clip(*self._bounds)

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        return _width(xs, self.lower.size).clip(*self._bounds)


@dataclass(frozen=True)
class Ball(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def project(self, x) -> np.ndarray:
        xv = as_vector(x, self.center.size)
        d = norm(xv - self.center)
        if d <= self.radius:
            return xv
        return self.center + (self.radius / d) * (xv - self.center)

    def project_rows(self, xs: np.ndarray) -> np.ndarray:
        gap = _width(xs, self.center.size) - self.center
        d = row_norms(gap)[:, np.newaxis]
        far = self.center + (self.radius / np.maximum(d, self.radius)) * gap
        return np.where(d <= self.radius, xs, far)


@dataclass(frozen=True)
class HalfSpace(ConvexSet):
    """{x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        nv = as_vector(self.normal)
        if np.linalg.norm(nv) == 0.0:
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", nv)
        # The offset is checked like a coordinate: NonFiniteError (a
        # ValueError) unless it is finite.
        object.__setattr__(self, "offset", float(as_vector(self.offset, 1)[0]))

    def project(self, x) -> np.ndarray:
        xv = as_vector(x, self.normal.size)
        excess = float(self.normal @ xv) - self.offset
        if excess <= 0:
            return xv
        return -(excess / float(self.normal @ self.normal)) * self.normal + xv


@dataclass(frozen=True)
class AffineSet(ConvexSet):
    """anchor + span(basis); ``basis`` rows must be orthonormal."""

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor)
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.shape[1] != anchor.size:
            raise DimensionMismatch("basis rows must match anchor dimension")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-10):
            raise ValueError("basis rows are not orthonormal")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "basis", basis)

    def project(self, x) -> np.ndarray:
        xv = as_vector(x, self.anchor.size)
        return self.anchor + self.basis.T @ (self.basis @ (xv - self.anchor))


#: Sets whose projection of a checked point is checked already: the whole
#: space returns the point it checked, and a box clips it between finite
#: bounds.  A subclass may project otherwise, so the type must match.
_CHECKED_PROJECTIONS = (WholeSpace, Box)


def project(K: ConvexSet, x) -> np.ndarray:
    """Nearest-point projection of ``x`` onto ``K``.

    The returned point p satisfies the variational characterization
    <x - p, y - p> <= 0 for every y in K.  ``K.project`` checks ``x``, so
    p is checked here only when it is a new point that ``K``'s own type
    does not make finite: a box's clip is not scanned again.
    """
    p = K.project(x)
    return p if p is x or type(K) in _CHECKED_PROJECTIONS else as_vector(p)


# --------------------------------------------------------------------------
# Norm-identity audit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityAudit:
    """Both sides of the two norm identities used by the convergence audits.

    ``id1_printed_*`` evaluates the difference form ||x - y||^2 on the left;
    ``id1_corrected_*`` evaluates the sum form ||x + y||^2, which is the
    standard subdifferential inequality.  Both readings are recorded because
    only the sum form holds for all inputs.  ``id2`` is the convex-combination
    identity, exact up to roundoff.
    """

    id1_printed_lhs: float
    id1_printed_rhs: float
    id1_printed_holds: bool
    id1_corrected_lhs: float
    id1_corrected_holds: bool
    id2_lhs: float
    id2_rhs: float
    id2_equal: bool


def hilbert_identity_check(x, y, lam: float, tol: float = DEFAULT_TOL) -> IdentityAudit:
    """Audit the two Hilbert norm identities at (x, y, lam).

    Identity 2 states  ||lam*x + (1-lam)*y||^2
    = lam*||x||^2 + (1-lam)*||y||^2 - lam*(1-lam)*||x-y||^2
    and is checked as an equality, which implies the inequality form.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    xv, yv = _pair(x, y)

    rhs1 = norm(xv) ** 2 + 2.0 * float(yv @ (xv + yv))
    lhs1_printed = norm(xv - yv) ** 2
    lhs1_corrected = norm(xv + yv) ** 2

    lhs2 = norm(lam * xv + (1.0 - lam) * yv) ** 2
    rhs2 = (lam * norm(xv) ** 2 + (1.0 - lam) * norm(yv) ** 2
            - lam * (1.0 - lam) * norm(xv - yv) ** 2)

    return IdentityAudit(
        id1_printed_lhs=lhs1_printed,
        id1_printed_rhs=rhs1,
        id1_printed_holds=lhs1_printed <= rhs1 + tol,
        id1_corrected_lhs=lhs1_corrected,
        id1_corrected_holds=lhs1_corrected <= rhs1 + tol,
        id2_lhs=lhs2,
        id2_rhs=rhs2,
        id2_equal=abs(lhs2 - rhs2) <= tol,
    )
