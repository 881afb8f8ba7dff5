"""The stacked class audits against a per-case reference loop.

``sampled_audit`` evaluates an audit over the whole sample at once.  The
reference here is the loop it replaced: it checks each distinct case value
with ``as_vector``, calls ``sides(x, y)`` once per case on scalars, and keeps
the worst slack, its witness and the violations as it goes.  The seven
reference audits form their sides case by case with ``norm``, ``@`` and the
per-image kernels.  Squares are written as products: Python's ``x ** 2`` on
a float goes through libm ``pow``, which is not always the correctly
rounded ``x * x`` that numpy's ``arr ** 2`` and ``arr * arr`` give, so with
products the two paths agree bit for bit.

On seeded random samples both paths must agree on ``passed``, ``checked``,
``note``, the witness (by identity), the violation list and
``worst_slack``.
"""
import math

import numpy as np
import pytest

from viscosplit.hilbert import DEFAULT_TOL, as_vector, norm
from viscosplit.monotone import (L1Subdifferential, SingleOp, _check_lam,
                                 _value, affine_op,
                                 check_forward_nonexpansive,
                                 check_inverse_strongly_monotone,
                                 check_resolvent_firmly_nonexpansive,
                                 check_wang_contraction, wang_tau)
from viscosplit.problems import make_example1
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, AuditResult,
                                  BallImage, FiniteSet, MultiMap, Singleton,
                                  UnsupportedPairing, _distance, _enumerable,
                                  _farthest, check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive,
                                  hausdorff)


# --------------------------------------------------------------------------
# The per-case reference
# --------------------------------------------------------------------------

def reference_audit(name, cases, sides, tol=DEFAULT_TOL, note=""):
    """``lhs <= rhs`` with ``(lhs, rhs) = sides(x, y)``, case by case."""
    cases = [tuple(case) for case in cases]
    if not cases:
        note = "; ".join(filter(None, (note, "empty sample")))
    distinct = {id(v): v for case in cases for v in case}
    checked = {key: as_vector(v) for key, v in distinct.items()}
    worst, witness, violations = -np.inf, None, []
    for x, y in cases:
        xv, yv = checked[id(x)], checked[id(y)]
        lhs, rhs = sides(xv, yv)
        slack = lhs - rhs
        if not (slack <= worst or np.isnan(worst)):
            worst, witness = slack, (xv, yv)
        if not slack <= tol:
            violations.append((xv, yv, lhs, rhs))
    return AuditResult(name, not violations, worst, witness, len(cases),
                       note, violations)


def fixed_point_pairs(T, points):
    return [(x, q) for x in points for q in T.fixed_points]


def ref_demicontractive(T, beta, points):
    def sides(x, q):
        img = T.image(x)
        far, gap, dist = _farthest(img, q), norm(x - q), _distance(x, img)
        return far * far, gap * gap + beta * (dist * dist)
    return reference_audit("demicontractive", fixed_point_pairs(T, points),
                           sides)


def ref_quasi_nonexpansive(T, points):
    return reference_audit(
        "quasi_nonexpansive", fixed_point_pairs(T, points),
        lambda x, q: (_farthest(T.image(x), q), norm(x - q)))


def ref_strictly_pseudocontractive(T, k, pairs):
    note = "k = 1 is the non-strict boundary case" if k == 1.0 else ""

    def sides(x, y):
        img_x, img_y = T.image(x), T.image(y)
        disp = min(norm((x - u) - (y - w)) for u in _enumerable(img_x)
                   for w in _enumerable(img_y))
        haus, gap = hausdorff(img_x, img_y), norm(x - y)
        return haus * haus, gap * gap + k * (disp * disp)
    return reference_audit("strictly_pseudocontractive", pairs, sides,
                           note=note)


def ref_inverse_strongly_monotone(op, alpha, pairs):
    def sides(x, y):
        gap = _value(op, x) - _value(op, y)
        size = norm(gap)
        return alpha * (size * size), float(gap @ (x - y))
    return reference_audit("inverse_strongly_monotone", pairs, sides)


def ref_forward_nonexpansive(op, alpha, theta, pairs):
    note = ""
    if not 0.0 <= theta <= 2.0 * alpha:
        note = (f"theta={theta} outside [0, {2.0 * alpha}]; "
                "nonexpansiveness is not guaranteed in this range")
    return reference_audit(
        "forward_nonexpansive", pairs,
        lambda x, y: (norm((x - theta * _value(op, x))
                           - (y - theta * _value(op, y))),
                      norm(x - y)), note=note)


def ref_wang_contraction(op, eta, t, pairs):
    tau = wang_tau(eta, op.strong_monotonicity, op.lipschitz)
    return reference_audit(
        "averaged_contraction", pairs,
        lambda x, y: (norm((x - t * eta * _value(op, x))
                           - (y - t * eta * _value(op, y))),
                      (1.0 - t * tau) * norm(x - y)))


def ref_resolvent_firmly_nonexpansive(op, lam, pairs, tol=DEFAULT_TOL):
    _check_lam(lam)

    def sides(x, y):
        gap = op.resolvent(lam, x) - op.resolvent(lam, y)
        size = norm(gap)
        return size * size, float(gap @ (x - y))
    return reference_audit("resolvent_firmly_nonexpansive", pairs, sides,
                           tol)


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def assert_agree(stacked, reference):
    assert stacked.name == reference.name
    assert stacked.passed is reference.passed
    assert stacked.checked == reference.checked
    assert stacked.note == reference.note
    assert same_float(stacked.worst_slack, reference.worst_slack)
    if reference.witness is None:
        assert stacked.witness is None
    else:
        assert stacked.witness[0] is reference.witness[0]
        assert stacked.witness[1] is reference.witness[1]
    assert len(stacked.violations) == len(reference.violations)
    for got, want in zip(stacked.violations, reference.violations):
        assert got[0] is want[0] and got[1] is want[1]
        assert same_float(got[2], want[2]) and same_float(got[3], want[3])


# --------------------------------------------------------------------------
# Seeded random samples
# --------------------------------------------------------------------------

DIMS = (1, 2, 3, 7, 50)
SEEDS = (0, 1, 2)


def sample(rng, dim, count=30):
    """``count`` points of mixed scale, one of them passed twice."""
    scales = rng.choice([1e-3, 1.0, 1e3], size=(count, 1))
    points = list(scales * rng.standard_normal((count, dim)))
    return points + [points[0]]


def random_map(rng, dim, kind):
    """A map x -> image of A x (and B x) with 0 and a random point as its
    declared fixed points; A and B have norms near 1, so some sampled
    cases pass and some fail."""
    a = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    b = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    r = rng.uniform(0.0, 0.5)
    image = {
        "singleton": lambda x: Singleton(a @ x),
        "finite_set": lambda x: FiniteSet((a @ x, b @ x, 0.5 * x)),
        "ball": lambda x: BallImage(a @ x, r * norm(x)),
    }[kind]
    return MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                    fixed_points=(np.zeros(dim), rng.standard_normal(dim)))


IMAGES = ("singleton", "finite_set", "ball")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", IMAGES)
def test_map_audits_agree_with_the_reference(kind, dim, seed):
    rng = np.random.default_rng([seed, dim, IMAGES.index(kind)])
    T = random_map(rng, dim, kind)
    points = sample(rng, dim)
    pairs = list(zip(points, sample(rng, dim)))
    beta, k = rng.uniform(0.0, 1.0), rng.choice([rng.uniform(), 1.0])
    assert_agree(check_demicontractive(T, beta, points),
                 ref_demicontractive(T, beta, points))
    assert_agree(check_quasi_nonexpansive(T, points),
                 ref_quasi_nonexpansive(T, points))
    if kind == "ball":
        # A ball pairs with nothing here, in either path.
        for audit in (check_strictly_pseudocontractive,
                      ref_strictly_pseudocontractive):
            with pytest.raises(UnsupportedPairing):
                audit(T, k, pairs)
    else:
        assert_agree(check_strictly_pseudocontractive(T, k, pairs),
                     ref_strictly_pseudocontractive(T, k, pairs))


def psd_operator(rng, dim):
    """x -> A x for a random symmetric positive definite A, declaring its
    extreme eigenvalues with the strong monotonicity overstated by half,
    so the contraction audit can fail."""
    m = rng.standard_normal((dim, dim))
    a = m @ m.T / dim + 0.1 * np.eye(dim)
    eig = np.linalg.eigvalsh(a)
    return SingleOp(lambda x: a @ x, lipschitz=eig[-1],
                    strong_monotonicity=min(1.5 * eig[0], eig[-1]),
                    inverse_strong_monotonicity=1.0 / eig[-1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_operator_audits_agree_with_the_reference(dim, seed):
    rng = np.random.default_rng([seed, dim, 7])
    op = psd_operator(rng, dim)
    pairs = list(zip(sample(rng, dim), sample(rng, dim)))
    # Overstated moduli, so that some cases fail.
    alpha = 1.2 * op.inverse_strong_monotonicity
    theta = 2.2 * op.inverse_strong_monotonicity
    assert_agree(check_inverse_strongly_monotone(op, alpha, pairs),
                 ref_inverse_strongly_monotone(op, alpha, pairs))
    assert_agree(check_forward_nonexpansive(op, alpha, theta, pairs),
                 ref_forward_nonexpansive(op, alpha, theta, pairs))
    k, L = op.strong_monotonicity, op.lipschitz
    eta = rng.uniform(0.1, 0.9) * 2.0 * k / L ** 2
    t = 0.5 * min(1.0, 1.0 / wang_tau(eta, k, L))
    assert_agree(check_wang_contraction(op, eta, t, pairs),
                 ref_wang_contraction(op, eta, t, pairs))
    inclusion = L1Subdifferential(rng.uniform(0.0, 2.0, dim))
    lam = rng.uniform(0.1, 3.0)
    assert_agree(check_resolvent_firmly_nonexpansive(inclusion, lam, pairs),
                 ref_resolvent_firmly_nonexpansive(inclusion, lam, pairs))


HALVING, AFFINE = make_example1(), affine_op(1.0)


@pytest.mark.parametrize("stacked, reference, case", [
    (lambda cases: check_inverse_strongly_monotone(AFFINE, 1.0, cases),
     lambda cases: ref_inverse_strongly_monotone(AFFINE, 1.0, cases),
     (np.array([1e200]), np.array([-1e200]))),
    (lambda cases: check_quasi_nonexpansive(HALVING, [x for x, _ in cases]),
     lambda cases: ref_quasi_nonexpansive(HALVING, [x for x, _ in cases]),
     (np.array([1e200]), np.array([0.0])))],
    ids=["inverse_strongly_monotone", "quasi_nonexpansive"])
def test_overflow_to_nan_agrees_with_the_reference(stacked, reference, case):
    # Both sides overflow to inf; inf - inf is nan, the worst slack, next
    # to finite cases on either side.
    cases = [(np.array([1.0]), np.array([0.5])), case,
             (np.array([3.0]), np.array([-2.0]))]
    with np.errstate(over="ignore"):
        want = reference(cases)
    got = stacked(cases)
    assert math.isnan(got.worst_slack)
    assert_agree(got, want)


def test_a_sample_of_minus_inf_slacks_keeps_no_witness():
    # lhs 0 against an overflowing ||x - q||: every slack is -inf.
    T = MultiMap(lambda x: Singleton(np.zeros(1)), KIND_DEMICONTRACTIVE,
                 0.5, fixed_points=(np.zeros(1),))
    points = [np.array([1e200]), np.array([-3e200])]
    got = check_quasi_nonexpansive(T, points)
    assert got.worst_slack == -np.inf and got.witness is None
    assert got.passed and not got.violations
    with np.errstate(over="ignore"):
        want = ref_quasi_nonexpansive(T, points)
    assert_agree(got, want)
