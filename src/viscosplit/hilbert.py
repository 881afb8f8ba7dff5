"""Finite-dimensional real Hilbert space primitives.

The ambient space is R^d with the standard dot product.  Feasible sets are
described by closed-form-projectable convex sets (whole space, box, ball,
half-space, affine subspace), so every projection here is exact up to
floating point; no inner QP solve is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance of the stage-chain audit, the sampled operator-class
#: audits and :meth:`ConvexSet.contains`.  The boundedness radius audit
#: and common-point certification use ``solvers.CERTIFY_TOL`` = 1e-8.
DEFAULT_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Two vectors (or a vector and a set) live in different dimensions."""


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


def _is_vector(x) -> bool:
    return type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64


def all_finite(v: np.ndarray) -> bool:
    """Whether every coordinate of the 1-D float64 array ``v`` is finite.

    Any inf or nan coordinate makes the sum of squares non-finite, so the
    full coordinate scan runs only when that sum is not finite (a
    non-finite coordinate, or finite ones whose squares overflow).
    ``np.vdot`` forms the sum without an overflow warning.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


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


def as_rows(values) -> tuple[list, np.ndarray]:
    """Coerce each of ``values`` as :func:`as_vector` does and stack them.

    Returns the coerced vectors (a 1-D float64 array is its own) and their
    (k, d) stack, which is scanned for finiteness once.  Raises
    :class:`DimensionMismatch` naming both sizes when two values differ in
    dimension, and :class:`NonFiniteError` when any coordinate is not
    finite.
    """
    vectors = [_coerce(v) for v in values]
    try:
        rows = np.array(vectors)
    except ValueError:
        # numpy refuses a ragged stack; name the first size that differs.
        size = next(v.size for v in vectors if v.size != vectors[0].size)
        raise DimensionMismatch(f"dimensions differ: "
                                f"{vectors[0].size} vs {size}") from None
    if not all_finite(rows.ravel()):
        raise NonFiniteError()
    return vectors, rows


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
    """The norm of each row of the 2-D float array ``rows``, equal to
    :func:`norm` of that row bit for bit: ``np.vecdot`` reduces each row
    with the dot kernel of ``v.dot(v)``.  Nothing is scanned, so an
    overflowing row reads inf."""
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

    def contains(self, x) -> bool:
        """Whether x lies within :data:`DEFAULT_TOL` of the set."""
        xv = as_vector(x)
        return norm(xv - self.project(xv)) <= DEFAULT_TOL


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    """All of R^d; projection is the identity."""

    def project(self, x) -> np.ndarray:
        return as_vector(x)


@dataclass(frozen=True)
class Box(ConvexSet):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, hi = _pair(self.lower, self.upper)
        if np.any(lo > hi):
            raise ValueError("box is empty: lower > upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, x) -> np.ndarray:
        return np.clip(as_vector(x, self.lower.size), self.lower, self.upper)


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
        d = np.linalg.norm(xv - self.center)
        if d <= self.radius:
            return xv
        return self.center + (self.radius / d) * (xv - self.center)


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
        return xv - (excess / float(self.normal @ self.normal)) * self.normal


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


def project(K: ConvexSet, x) -> np.ndarray:
    """Nearest-point projection of ``x`` onto ``K``.

    The returned point p satisfies the variational characterization
    <x - p, y - p> <= 0 for every y in K.  ``K.project`` checks ``x``, so
    p is checked here only when it is a new point.
    """
    p = K.project(x)
    return p if p is x else as_vector(p)


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
