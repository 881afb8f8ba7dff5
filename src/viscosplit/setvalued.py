"""Multivalued mappings with closed images and their class audits.

A mapping T assigns to each point a nonempty closed bounded image, here one
of: a singleton, a finite point set, or a closed ball.  Distances between
images use the Hausdorff metric.  The audit functions sample-check the
defining inequality of a declared mapping class (demicontractive,
quasi-nonexpansive, strictly pseudocontractive) and report the worst slack
together with a witness pair, never just a bare boolean.

An audit checks its whole sample once, in :func:`sampled_audit`: the
distinct values are stacked and the stack is scanned in one pass.  A batch
``sides(xs, ys)`` then evaluates the inequality over all cases at once, one
row per case, and returns one lhs and one rhs array.  Only what belongs to
a single case runs case by case: the images ``T.image`` and the private
kernels behind :func:`distance_to_set` and :func:`hausdorff`, which check
nothing again.  Each image is checked by its constructor.  Norms of the
stacked rows come from :func:`~viscosplit.hilbert.row_norms`, equal to
:func:`~viscosplit.hilbert.norm` bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, DimensionMismatch, as_rows, as_vector,
                      norm, row_norms)


class UnsupportedPairing(TypeError):
    """Hausdorff distance requested for an image pair with no closed form."""


# --------------------------------------------------------------------------
# Image types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Singleton:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_vector(self.point))


@dataclass(frozen=True)
class FiniteSet:
    points: tuple

    def __post_init__(self):
        pts = tuple(as_vector(p) for p in self.points)
        if not pts:
            raise ValueError("finite image must be nonempty")
        if len({p.size for p in pts}) != 1:
            raise DimensionMismatch("points in one image must share a dimension")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class BallImage:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        # The radius is checked like a coordinate: NonFiniteError unless
        # it is finite.
        object.__setattr__(self, "radius", float(as_vector(self.radius, 1)[0]))
        if self.radius < 0:
            raise ValueError("image radius must be nonnegative")


SetImage = Singleton | FiniteSet | BallImage


def distance_to_set(x, S: SetImage) -> float:
    """d(x, S) = min over s in S of ||x - s||."""
    return _distance(as_vector(x), S)


def _distance(xv: np.ndarray, S: SetImage) -> float:
    """:func:`distance_to_set` at a vector ``xv`` already checked."""
    if isinstance(S, Singleton):
        return norm(xv - S.point)
    if isinstance(S, FiniteSet):
        return min(norm(xv - p) for p in S.points)
    if isinstance(S, BallImage):
        return max(norm(xv - S.center) - S.radius, 0.0)
    raise TypeError(f"unknown image type {type(S).__name__}")


def _farthest(S: SetImage, q: np.ndarray) -> float:
    """H(S, {q}) for a checked point ``q``: the largest distance from q to
    a point of S, so d + r for a ball whose center lies at distance d."""
    if isinstance(S, Singleton):
        return norm(S.point - q)
    if isinstance(S, FiniteSet):
        return max(norm(p - q) for p in S.points)
    if isinstance(S, BallImage):
        return norm(S.center - q) + S.radius
    raise TypeError(f"unknown image type {type(S).__name__}")


def hausdorff(A: SetImage, B: SetImage) -> float:
    """Hausdorff distance between two images.

    Against a singleton {q} it is the farthest point of the other image
    from q.  Two balls use the closed form max(d + r1 - r2, d + r2 - r1, 0)
    with d the distance of the centers, and two finite sets the max-min
    formula.  A finite set with more than one point against a ball has no
    closed form here and raises :class:`UnsupportedPairing`.
    """
    if isinstance(A, Singleton):
        A, B = B, A
    if isinstance(B, Singleton):
        return _farthest(A, B.point)
    if isinstance(A, BallImage) and isinstance(B, BallImage):
        d = norm(A.center - B.center)
        return max(d + A.radius - B.radius, d + B.radius - A.radius, 0.0)

    pa, pb = _enumerable(A), _enumerable(B)
    return max(max(_distance(a, B) for a in pa),
               max(_distance(b, A) for b in pb))


# --------------------------------------------------------------------------
# Selection rules
# --------------------------------------------------------------------------

class SelectionRule(Enum):
    """How to pick one point out of an image.

    METRIC picks the nearest point to the query (ties in a finite image go
    to the lowest index; the center of a ball is its own nearest point).
    FIRST_ENUMERATED ignores the query: first listed point of a finite
    image, the center of a ball.
    """

    METRIC = "metric"
    FIRST_ENUMERATED = "first_enumerated"


def select_from(S: SetImage, rule: SelectionRule, x) -> np.ndarray:
    """One point of the image ``S`` under ``rule``, for the query ``x``."""
    return _select(S, rule, as_vector(x))


def _select(S: SetImage, rule: SelectionRule, xv: np.ndarray) -> np.ndarray:
    """:func:`select_from` for a query ``xv`` already checked."""
    if isinstance(S, Singleton):
        return S.point
    if isinstance(S, FiniteSet):
        if rule is SelectionRule.FIRST_ENUMERATED:
            return S.points[0]
        dists = [norm(xv - p) for p in S.points]
        return S.points[int(np.argmin(dists))]
    if isinstance(S, BallImage):
        if rule is SelectionRule.FIRST_ENUMERATED:
            return S.center
        gap = xv - S.center
        d = norm(gap)
        if d <= S.radius:
            return xv
        return S.center + (S.radius / d) * gap
    raise TypeError(f"unknown image type {type(S).__name__}")


# --------------------------------------------------------------------------
# Multivalued mappings
# --------------------------------------------------------------------------

KIND_DEMICONTRACTIVE = "demicontractive"
KIND_QUASI_NONEXPANSIVE = "quasi_nonexpansive"
KIND_STRICTLY_PSEUDOCONTRACTIVE = "strictly_pseudocontractive"
KIND_NONEXPANSIVE = "nonexpansive"


@dataclass(frozen=True)
class MultiMap:
    """A multivalued mapping with a declared class.

    ``image`` maps a point to a :data:`SetImage`.  ``constant`` is the class
    modulus: beta in [0, 1) for demicontractive maps, k in [0, 1] for
    strictly pseudocontractive ones, unused otherwise.  ``fixed_points``
    lists known members of Fix(T) for audits; it need not be exhaustive.
    """

    image: Callable[[np.ndarray], SetImage]
    kind: str = KIND_DEMICONTRACTIVE
    constant: float | None = None
    fixed_points: tuple = ()
    name: str = ""

    def __post_init__(self):
        kinds = (KIND_DEMICONTRACTIVE, KIND_QUASI_NONEXPANSIVE,
                 KIND_STRICTLY_PSEUDOCONTRACTIVE, KIND_NONEXPANSIVE)
        if self.kind not in kinds:
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        if self.kind == KIND_DEMICONTRACTIVE:
            c = self.constant
            if c is None or not 0.0 <= c < 1.0:
                raise ValueError("demicontractive maps need constant in [0, 1)")
        object.__setattr__(
            self, "fixed_points", tuple(as_vector(p) for p in self.fixed_points))

    def __call__(self, x) -> SetImage:
        return self.image(as_vector(x))


def select(T: MultiMap, rule: SelectionRule, x) -> np.ndarray:
    """One point of T(x) under the given selection rule."""
    return select_from(T(x), rule, as_vector(x))


# --------------------------------------------------------------------------
# Class audits
# --------------------------------------------------------------------------

@dataclass
class AuditResult:
    """Outcome of a sampled inequality audit.

    ``worst_slack`` is max(lhs - rhs) over all tested combinations, so any
    positive value beyond the tolerance is a violation.  A nan slack (a
    side that cannot be evaluated, such as inf - inf) is a violation too,
    and the first one is the worst slack.  ``witness`` holds the arguments
    achieving it.  ``note`` flags degenerate situations such as an empty
    sample or a vacuously true check.
    """

    name: str
    passed: bool
    worst_slack: float
    witness: tuple | None = None
    checked: int = 0
    note: str = ""
    violations: list = field(default_factory=list)


def sampled_audit(name: str, cases: Sequence,
                  sides: Callable[[np.ndarray, np.ndarray],
                                  tuple[np.ndarray, np.ndarray]],
                  tol: float = DEFAULT_TOL, note: str = "") -> AuditResult:
    """Audit  lhs <= rhs  on every case (x, y) of a sample at once.

    The distinct case values are coerced and stacked, and the stack is
    scanned for finiteness once (:func:`~viscosplit.hilbert.as_rows`), so a
    fixed point paired with every sample point is checked once, and values
    of different dimensions raise
    :class:`~viscosplit.hilbert.DimensionMismatch`.  ``sides(xs, ys)`` then
    gets the checked sample as two (cases, d) arrays, row k holding case k,
    and returns the lhs and the rhs of every case as two arrays; it works on
    the rows without checking them again.  numpy's overflow and invalid
    warnings are silenced while it runs and the slack is taken, as Python
    float arithmetic is silent: an overflow reads inf and inf - inf nan.

    Keeps the worst slack lhs - rhs with its witness (x, y), and records
    every case whose slack is not <= ``tol`` as (x, y, lhs, rhs): a nan
    slack is a violation, and the first one is the worst.  A sample whose
    every slack is -inf keeps no witness.  ``tol`` defaults to the one
    audit tolerance, :data:`~viscosplit.hilbert.DEFAULT_TOL`; only the
    resolvent audit passes its caller's.  An empty sample passes
    vacuously, with a note that says so.
    """
    # The tuples keep every value alive, so its id names it for the audit.
    cases = [tuple(case) for case in cases]
    if not cases:
        note = "; ".join(filter(None, (note, "empty sample")))
        return AuditResult(name, True, -np.inf, None, 0, note)
    distinct = {id(v): v for case in cases for v in case}
    row = {key: k for k, key in enumerate(distinct)}
    vectors, stack = as_rows(distinct.values())
    xi, yi = np.array([[row[id(x)], row[id(y)]] for x, y in cases]).T
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = sides(stack[xi], stack[yi])
        slack = lhs - rhs
    nan = np.isnan(slack)
    k = int(nan.argmax() if nan.any() else slack.argmax())
    worst = float(slack[k])
    witness = (None if worst == -np.inf
               else (vectors[xi[k]], vectors[yi[k]]))
    violations = [(vectors[xi[j]], vectors[yi[j]], float(lhs[j]),
                   float(rhs[j])) for j in np.flatnonzero(~(slack <= tol))]
    return AuditResult(name, not violations, worst, witness, len(cases),
                       note, violations)


def _fixed_point_pairs(T: MultiMap, points: Sequence) -> list[tuple]:
    if not T.fixed_points:
        raise ValueError("audit needs at least one known fixed point")
    return [(x, q) for x in points for q in T.fixed_points]


def check_demicontractive(T: MultiMap, beta: float,
                          points: Sequence) -> AuditResult:
    """Audit  H(T x, T q)^2 <= ||x - q||^2 + beta * d(x, T x)^2  on a sample.

    q ranges over the declared fixed points of T; for those the left side
    reduces to sup over y in T(x) of ||y - q||^2 whenever T q = {q}, which is
    exactly the Hausdorff form used here.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("demicontractive constant must lie in [0, 1)")

    def sides(xs, qs):
        far, dist = [], []
        for x, q in zip(xs, qs):
            img = T.image(x)
            far.append(_farthest(img, q))
            dist.append(_distance(x, img))
        far, dist, gap = np.array(far), np.array(dist), row_norms(xs - qs)
        return far * far, gap * gap + beta * (dist * dist)
    return sampled_audit("demicontractive", _fixed_point_pairs(T, points),
                         sides)


def check_quasi_nonexpansive(T: MultiMap, points: Sequence) -> AuditResult:
    """Audit  H(T x, T q) <= ||x - q||  on a sample, q a fixed point."""
    return sampled_audit(
        "quasi_nonexpansive", _fixed_point_pairs(T, points),
        lambda xs, qs: (np.array([_farthest(T.image(x), q)
                                  for x, q in zip(xs, qs)]),
                        row_norms(xs - qs)))


def check_strictly_pseudocontractive(T: MultiMap, k: float,
                                     pairs: Sequence) -> AuditResult:
    """Audit  H(T x, T y)^2 <= ||x - y||^2 + k * d((x - y), (Tx - Ty))^2.

    The displacement term is evaluated through selections: with u in T(x)
    and w in T(y) the audited right side uses ||(x - u) - (y - w)||^2
    minimized over the available selections, which upper-bounds the true
    inequality violation.  ``k`` may be any value in [0, 1]; k = 1 is
    accepted and noted, since the class is then only pseudocontractive
    rather than strictly so.
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError("pseudocontractive constant must lie in [0, 1]")
    note = "k = 1 is the non-strict boundary case" if k == 1.0 else ""

    def sides(xs, ys):
        # The displacements of all cases are measured in one stack; case j
        # owns the rows from starts[j] to the next case's start.
        haus, disp, starts = [], [], []
        for x, y in zip(xs, ys):
            img_x, img_y = T.image(x), T.image(y)
            starts.append(len(disp))
            disp += [(x - u) - (y - w) for u in _enumerable(img_x)
                     for w in _enumerable(img_y)]
            haus.append(hausdorff(img_x, img_y))
        haus, gap = np.array(haus), row_norms(xs - ys)
        disp = np.minimum.reduceat(row_norms(np.array(disp)), starts)
        return haus * haus, gap * gap + k * (disp * disp)
    return sampled_audit("strictly_pseudocontractive", pairs, sides,
                         note=note)


def _enumerable(S: SetImage) -> tuple:
    """The points of a singleton or finite image; any other image raises
    :class:`UnsupportedPairing`, since no closed form pairs it here."""
    if isinstance(S, Singleton):
        return (S.point,)
    if isinstance(S, FiniteSet):
        return S.points
    raise UnsupportedPairing(
        f"no closed form here for a {type(S).__name__}: "
        "the pairing needs enumerable images")
