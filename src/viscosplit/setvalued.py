"""Multivalued mappings with closed images and their class audits.

A mapping T assigns to each point a nonempty closed bounded image, here one
of: a singleton, a finite point set, or a closed ball.  Distances between
images use the Hausdorff metric.  The audit functions sample-check the
defining inequality of a declared mapping class (demicontractive,
quasi-nonexpansive, strictly pseudocontractive) and report the worst slack
together with a witness pair, never just a bare boolean.  This module
alone decides by a mapping's kind: :func:`audit_mapping` runs the audit of
the declared class, and :attr:`MultiMap.demi_constant` is the constant
that bounds the averaging weights.

An audit checks its whole sample once, in :func:`prepare`: the distinct
values are stacked and the stack is scanned in one pass.
:func:`~viscosplit.solvers.audit_instance` prepares one :class:`Sample`
per call and hands it to every audit; a public audit given a list
prepares its own.  A batch ``sides(xs, ys)`` then evaluates the
inequality over all cases at once, one row per case, and returns one lhs
and one rhs array.  Operators and resolvents run on the whole stack too
(see :mod:`viscosplit.monotone`), and so does a single-valued mapping that
declares ``points`` (every mapping of :mod:`viscosplit.problems`): its
function is called once per stack, its value is checked for shape and
scanned once, unless it is the stack itself.
The function must take a (k, d) stack to the stack of its image points,
each row equal bit for bit to the image point at that row alone, so the
audits read the same numbers as case by case; the first row of each
stacked value is compared with the function at that row alone, and a
mismatch raises ``ValueError``.  Any other mapping runs case by case: each
of its images is checked to be one (see :meth:`MultiMap.__call__`), and
then measures itself and checks nothing again.  Each image is checked by
its constructor.  Norms of the stacked rows come
from :func:`~viscosplit.hilbert.row_norms`, equal to
:func:`~viscosplit.hilbert.norm` bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, DimensionMismatch, _coerce, _is_real,
                      as_vector, norm, row_norms)


class UnsupportedPairing(TypeError):
    """Hausdorff distance requested for an image pair with no closed form."""


# --------------------------------------------------------------------------
# Images
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


# Each image kind measures itself, checking nothing again: its
# constructor checked it.  ``measure(x, rule)`` is one pass at a checked
# point x that returns d(x, S) and the point of S that ``rule`` selects,
# None without a rule (a singleton gives its point under any rule).  It
# first compares the size of the image's points with the size of x, and
# another size raises DimensionMismatch.  ``farthest(q)`` is H(S, {q}),
# the largest distance from a checked q to a point of S, and compares the
# two sizes first in the same way.  ``members()`` gives the points of S;
# a ball has no members here and raises UnsupportedPairing.

def _same_size(size: int, dim: int) -> None:
    """Raise DimensionMismatch, naming both sizes, unless ``size`` is
    ``dim``."""
    if size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {size}")


@dataclass(frozen=True)
class Singleton:
    """The image {point}.  ``point`` is coerced and scanned as by
    :func:`~viscosplit.hilbert.as_vector`, so a checked float64 vector is
    its own point."""

    point: np.ndarray

    def __init__(self, point):
        # Written to the instance dict: the generated frozen __init__
        # would pay one object.__setattr__ per field.
        self.__dict__["point"] = as_vector(point)

    def measure(self, x, rule=None):
        # The residual is 0.0 with no subtraction when the point is x
        # itself, as an identity mapping's is.
        y = self.point
        _same_size(y.size, x.size)
        return (0.0 if y is x else norm(x - y)), y

    def farthest(self, q) -> float:
        _same_size(self.point.size, q.size)
        return norm(self.point - q)

    def members(self) -> tuple:
        return (self.point,)


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

    def measure(self, x, rule=None):
        pts = self.points
        _same_size(pts[0].size, x.size)
        # Each norm is taken once; index() finds the lowest-index minimum.
        norms = [norm(x - p) for p in pts]
        d = min(norms)
        return d, (None if rule is None else pts[0]
                   if rule is SelectionRule.FIRST_ENUMERATED
                   else pts[norms.index(d)])

    def farthest(self, q) -> float:
        _same_size(self.points[0].size, q.size)
        return max(norm(p - q) for p in self.points)

    def members(self) -> tuple:
        return self.points


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

    def measure(self, x, rule=None):
        # The metric selection is x inside the ball, else the point where
        # the segment from the center to x leaves it.
        c, r = self.center, self.radius
        _same_size(c.size, x.size)
        gap = x - c
        dist = norm(gap)
        d = max(dist - r, 0.0)
        if rule is None:
            return d, None
        if rule is SelectionRule.FIRST_ENUMERATED:
            return d, c
        return d, x if dist <= r else c + (r / dist) * gap

    def farthest(self, q) -> float:
        _same_size(self.center.size, q.size)
        return norm(self.center - q) + self.radius

    def members(self) -> tuple:
        raise UnsupportedPairing("no closed form here for a BallImage: "
                                 "the pairing needs enumerable images")


SetImage = Singleton | FiniteSet | BallImage


def _image(S) -> SetImage:
    """``S``, unless it is not an image: then ``TypeError`` naming its
    type."""
    if not isinstance(S, SetImage):
        raise TypeError(f"unknown image type {type(S).__name__}")
    return S


def distance_to_set(x, S: SetImage) -> float:
    """d(x, S) = min over s in S of ||x - s||; an image of another
    dimension than ``x`` raises
    :class:`~viscosplit.hilbert.DimensionMismatch`."""
    x = as_vector(x)
    return _image(S).measure(x)[0]


def select_from(S: SetImage, rule: SelectionRule | str, x) -> np.ndarray:
    """One point of the image ``S`` under ``rule``, a
    :class:`SelectionRule` or its value, for the query ``x``; an image of
    another dimension than ``x`` raises
    :class:`~viscosplit.hilbert.DimensionMismatch`."""
    x = as_vector(x)
    return _image(S).measure(x, SelectionRule(rule))[1]


def hausdorff(A: SetImage, B: SetImage) -> float:
    """Hausdorff distance between two images.

    Against a one-member image {q}, a singleton or a one-point finite set,
    it is the farthest point of the other image from q.  Two balls use the
    closed form max(d + r1 - r2, d + r2 - r1, 0) with d the distance of
    the centers, and two finite sets the max-min formula.  A finite set
    with more than one point against a ball has no closed form here and
    raises :class:`UnsupportedPairing`.  Images of different dimensions
    raise :class:`~viscosplit.hilbert.DimensionMismatch` naming both.
    """
    A, B = _image(A), _image(B)
    for P, Q in ((A, B), (B, A)):
        if not isinstance(P, BallImage) and len(P.members()) == 1:
            return Q.farthest(P.members()[0])
    if isinstance(A, BallImage) and isinstance(B, BallImage):
        _same_size(A.center.size, B.center.size)
        d = norm(A.center - B.center)
        return max(d + A.radius - B.radius, d + B.radius - A.radius, 0.0)
    return max(max(B.measure(a)[0] for a in A.members()),
               max(A.measure(b)[0] for b in B.members()))


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
    strictly pseudocontractive ones, unused otherwise; construction raises
    ``ValueError`` unless it is a real number (not a bool) in that range.
    ``fixed_points`` lists known members of Fix(T) for audits; it need not
    be exhaustive.

    A single-valued mapping may declare ``points`` instead of ``image``: a
    function that takes a point to its image point and a (k, d) stack to
    the stack of image points, each row equal bit for bit to the image
    point at that row alone.  ``image`` is then built from it, as
    x -> {points(x)}, and the class audits call it once per stack.  An
    ``image`` given beside ``points``, as ``dataclasses.replace(T,
    image=...)`` gives it, is the mapping from then on, and ``points`` is
    dropped.
    """

    image: Callable[[np.ndarray], SetImage] | None = None
    kind: str = KIND_DEMICONTRACTIVE
    constant: float | None = None
    fixed_points: tuple = ()
    name: str = ""
    points: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        kinds = (KIND_DEMICONTRACTIVE, KIND_QUASI_NONEXPANSIVE,
                 KIND_STRICTLY_PSEUDOCONTRACTIVE, KIND_NONEXPANSIVE)
        if self.kind not in kinds:
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        c = self.constant
        if self.kind == KIND_DEMICONTRACTIVE:
            ok, span = _is_real(c) and 0.0 <= c < 1.0, "[0, 1)"
        elif self.kind == KIND_STRICTLY_PSEUDOCONTRACTIVE:
            ok, span = _is_real(c) and 0.0 <= c <= 1.0, "[0, 1]"
        else:
            ok = True
        if not ok:
            raise ValueError(
                f"{self.kind} maps need constant in {span}, got {c!r}")
        # An image built from points carries them; one that carries other
        # points is rebuilt, and one of the caller's own replaces them.
        built_from = getattr(self.image, "points", None)
        if self.points is not None and built_from is not self.points:
            if self.image is None or built_from is not None:
                object.__setattr__(self, "image", _singletons(self.points))
            else:
                object.__setattr__(self, "points", None)
        if self.image is None:
            raise ValueError("a mapping needs an image or points")
        object.__setattr__(
            self, "fixed_points", tuple(as_vector(p) for p in self.fixed_points))

    def __call__(self, x) -> SetImage:
        """The image at ``x``; a value that is not an image raises
        ``TypeError`` naming its type."""
        return _image(self.image(as_vector(x)))

    @property
    def demi_constant(self) -> float:
        """The constant theta_n and beta_n must stay above: the declared
        one for a demicontractive or a strictly pseudocontractive mapping
        (a k-strictly pseudocontractive mapping with a fixed point is
        k-demicontractive, Chidume & Maruster 2010), else 0."""
        demi = (KIND_DEMICONTRACTIVE, KIND_STRICTLY_PSEUDOCONTRACTIVE)
        return self.constant if self.kind in demi else 0.0


def _singletons(points: Callable[[np.ndarray], np.ndarray]):
    """The image x -> {points(x)}, marked with the ``points`` it is built
    from."""
    def image(x):
        return Singleton(points(x))
    image.points = points
    return image


def _stacked(f: Callable[[np.ndarray], np.ndarray],
             xs: np.ndarray) -> np.ndarray:
    """``f`` at the checked (k, d) stack ``xs``, for an ``f`` that takes
    a stack row by row.

    A value of another shape than ``xs`` raises
    :class:`~viscosplit.hilbert.DimensionMismatch`; any other value is
    scanned once, unless it is ``xs`` itself, and a non-finite one raises
    :class:`~viscosplit.hilbert.NonFiniteError`.  Its first row is then
    compared bit for bit with ``f`` at that row alone, and a row that
    differs raises ``ValueError``: ``f`` does not take a stack row by row.
    """
    vs = np.asarray(f(xs), dtype=float)
    if vs.shape != xs.shape:
        raise DimensionMismatch(f"value shape {vs.shape}, not {xs.shape}")
    if vs is xs:
        return vs
    vs = as_vector(vs.ravel()).reshape(xs.shape)
    if len(xs) and (np.asarray(f(xs[0]), dtype=float).tobytes()
                    != vs[0].tobytes()):
        raise ValueError("the stacked value's first row differs from the "
                         "value at that row alone")
    return vs


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


#: Audit cases after their one check.  ``rows`` stacks the distinct
#: values, scanned for finiteness once, and case k is the pair of rows
#: (xi[k], yi[k]).  ``values[j]`` is the value behind row j that a witness
#: and a violation report: the caller's own array for a sample
#: :func:`prepare` made.
Sample = NamedTuple("Sample", [("values", Sequence), ("rows", np.ndarray),
                               ("xi", np.ndarray), ("yi", np.ndarray)])


def prepare(cases: Sequence) -> Sample:
    """The pairs ``cases`` as a :class:`Sample`, checked once.

    The distinct values are coerced as by
    :func:`~viscosplit.hilbert.as_vector` (a 1-D float64 array is its own)
    and stacked, and the stack is scanned for finiteness once, so a value
    in many cases, such as a fixed point paired with every sample point,
    is checked once.  Values of different dimensions raise
    :class:`~viscosplit.hilbert.DimensionMismatch` naming both sizes, and
    a non-finite coordinate :class:`~viscosplit.hilbert.NonFiniteError`.
    """
    # The tuples keep every value alive, so its id names it for the audit.
    cases = [tuple(case) for case in cases]
    distinct = {id(v): v for case in cases for v in case}
    row = {key: k for k, key in enumerate(distinct)}
    values = [_coerce(v) for v in distinct.values()]
    # Values of different sizes do not stack; name the first that differs.
    size = next((v.size for v in values if v.size != values[0].size), None)
    if size is not None:
        raise DimensionMismatch(f"dimensions differ: {values[0].size} vs "
                                f"{size}")
    rows = np.array(values)
    as_vector(rows.ravel())  # one scan of the whole stack
    index = np.array([[row[id(x)], row[id(y)]] for x, y in cases],
                     dtype=np.intp).reshape(-1, 2)
    return Sample(values, rows, *index.T)


def sampled_audit(name: str, cases: Sequence | Sample,
                  sides: Callable[[np.ndarray, np.ndarray],
                                  tuple[np.ndarray, np.ndarray]],
                  tol: float = DEFAULT_TOL, note: str = "") -> AuditResult:
    """Audit  lhs <= rhs  on every case (x, y) of a sample at once.

    ``cases`` is a :class:`Sample`, or pairs that :func:`prepare` checks
    here.  ``sides(xs, ys)`` gets the checked sample as two (cases, d)
    arrays, row k holding case k, and returns the lhs and the rhs of every
    case as two arrays; it works on the rows without checking them again.
    numpy's overflow and invalid warnings are silenced while it runs and
    the slack is taken, as Python float arithmetic is silent: an overflow
    reads inf and inf - inf nan.

    Keeps the worst slack lhs - rhs with its witness (x, y), and records
    every case whose slack is not <= ``tol`` as (x, y, lhs, rhs): a nan
    slack is a violation, and the first one is the worst.  A sample whose
    every slack is -inf keeps no witness.  ``tol`` defaults to the one
    audit tolerance, :data:`~viscosplit.hilbert.DEFAULT_TOL`; only the
    resolvent audit passes its caller's.  An empty sample passes
    vacuously, with a note that says so.
    """
    vals, rows, xi, yi = cases if isinstance(cases, Sample) else prepare(cases)
    if not len(xi):
        note = "; ".join(filter(None, (note, "empty sample")))
        return AuditResult(name, True, -np.inf, None, 0, note)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = sides(rows[xi], rows[yi])
        slack = lhs - rhs
    nan = np.isnan(slack)
    k = int(nan.argmax() if nan.any() else slack.argmax())
    worst = float(slack[k])
    witness = None if worst == -np.inf else (vals[xi[k]], vals[yi[k]])
    violations = [(vals[xi[j]], vals[yi[j]], float(lhs[j]), float(rhs[j]))
                  for j in np.flatnonzero(~(slack <= tol))]
    return AuditResult(name, not violations, worst, witness, len(xi),
                       note, violations)


def _fixed_point_pairs(T: MultiMap, points: Sequence | Sample):
    """Every point paired with every declared fixed point of T.

    ``points`` is a sequence, or a :class:`Sample` whose cases' x are the
    points.  From a sample, the pairs are a sample over its rows and the
    fixed points, which T checked when it was built; its witnesses are
    rows of that stack.
    """
    if not T.fixed_points:
        raise ValueError("audit needs at least one known fixed point")
    if not isinstance(points, Sample):
        return [(x, q) for x in points for q in T.fixed_points]
    n, m = len(points.rows), len(T.fixed_points)
    rows = np.concatenate([points.rows, T.fixed_points])
    return Sample(rows, rows, np.repeat(points.xi, m),
                  np.tile(np.arange(n, n + m), len(points.xi)))


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
        if T.points is not None:
            ys = _stacked(T.points, xs)
            far, dist = row_norms(ys - qs), row_norms(xs - ys)
        else:
            far, dist = [], []
            for x, q in zip(xs, qs):
                img = _image(T.image(x))
                far.append(img.farthest(q))
                dist.append(img.measure(x)[0])
            far, dist = np.array(far), np.array(dist)
        gap = row_norms(xs - qs)
        return far * far, gap * gap + beta * (dist * dist)
    return sampled_audit("demicontractive", _fixed_point_pairs(T, points),
                         sides)


def check_quasi_nonexpansive(T: MultiMap, points: Sequence) -> AuditResult:
    """Audit  H(T x, T q) <= ||x - q||  on a sample, q a fixed point."""
    def sides(xs, qs):
        if T.points is not None:
            far = row_norms(_stacked(T.points, xs) - qs)
        else:
            far = np.array([_image(T.image(x)).farthest(q)
                            for x, q in zip(xs, qs)])
        return far, row_norms(xs - qs)
    return sampled_audit("quasi_nonexpansive", _fixed_point_pairs(T, points),
                         sides)


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
        if T.points is not None:
            us, ws = _stacked(T.points, xs), _stacked(T.points, ys)
            haus, disp = row_norms(ws - us), row_norms((xs - us) - (ys - ws))
        else:
            # The displacements of all cases are measured in one stack;
            # case j owns the rows from starts[j] to the next case's start.
            haus, disp, starts = [], [], []
            for x, y in zip(xs, ys):
                img_x, img_y = _image(T.image(x)), _image(T.image(y))
                starts.append(len(disp))
                disp += [(x - u) - (y - w) for u in img_x.members()
                         for w in img_y.members()]
                haus.append(hausdorff(img_x, img_y))
            haus = np.array(haus)
            disp = np.minimum.reduceat(row_norms(np.array(disp)), starts)
        gap = row_norms(xs - ys)
        return haus * haus, gap * gap + k * (disp * disp)
    return sampled_audit("strictly_pseudocontractive", pairs, sides,
                         note=note)


def audit_mapping(T: MultiMap, points: Sequence | Sample,
                  pairs: Sequence | Sample) -> AuditResult:
    """Audit the class ``T`` declares, with its declared constant: a
    demicontractive mapping on ``points``, a strictly pseudocontractive one
    on ``pairs``, and any other (quasi-nonexpansive or nonexpansive) as
    quasi-nonexpansive on ``points``.  The audit's own precondition errors
    propagate, such as the ``ValueError`` of a mapping with no declared
    fixed point."""
    if T.kind == KIND_DEMICONTRACTIVE:
        return check_demicontractive(T, T.constant, points)
    if T.kind == KIND_STRICTLY_PSEUDOCONTRACTIVE:
        return check_strictly_pseudocontractive(T, T.constant, pairs)
    return check_quasi_nonexpansive(T, points)

