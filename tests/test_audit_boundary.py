"""The class audits check their inputs once, at their boundary.

``sampled_audit`` coerces and stacks the sampled values and checks the stack
once, and the audits then work on the checked arrays.  These tests pin both
halves: a non-finite sample point, image or operator value still raises
``NonFiniteError`` from each of the seven audits, a sample of mixed
dimension raises ``DimensionMismatch`` naming both sizes, and ``viscosplit
check`` makes few finiteness scans per audited case.
"""
import inspect

import numpy as np
import pytest

import viscosplit.hilbert as hilbert
import viscosplit.solvers as solvers
from viscosplit.cli import _sample_points, main
from viscosplit.hilbert import DimensionMismatch, NonFiniteError
from viscosplit.monotone import (MaxMonotone, SingleOp, affine_op,
                                 check_forward_nonexpansive,
                                 check_inverse_strongly_monotone,
                                 check_resolvent_firmly_nonexpansive,
                                 check_wang_contraction)
from viscosplit.problems import catalog, make_example1
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, BallImage, FiniteSet,
                                  MultiMap, Singleton, check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive)


def vec(*xs):
    return np.array(xs, dtype=float)


def pairs_of(xs):
    return [(x, -0.5 * x) for x in xs]


class Resolvent(MaxMonotone):
    """A resolvent whose value at x is ``value(x)``."""

    def __init__(self, value):
        self.value = value

    def resolvent(self, lam, x):
        return self.value(x)


def halving_map(image):
    return MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                    fixed_points=(vec(0.0),))


def operator(value):
    return SingleOp(value, lipschitz=1.0, strong_monotonicity=1.0,
                    inverse_strong_monotonicity=1.0)


#: Each audit on a sample ``xs``, given the image (mappings) or the value
#: (operators, resolvents) its operator takes at x.
MAP_AUDITS = {
    "demicontractive":
        lambda img, xs: check_demicontractive(halving_map(img), 0.5, xs),
    "quasi_nonexpansive":
        lambda img, xs: check_quasi_nonexpansive(halving_map(img), xs),
    "strictly_pseudocontractive":
        lambda img, xs: check_strictly_pseudocontractive(
            halving_map(img), 0.5, pairs_of(xs)),
}
OPERATOR_AUDITS = {
    "inverse_strongly_monotone":
        lambda val, xs: check_inverse_strongly_monotone(
            operator(val), 1.0, pairs_of(xs)),
    "forward_nonexpansive":
        lambda val, xs: check_forward_nonexpansive(
            operator(val), 1.0, 1.0, pairs_of(xs)),
    "averaged_contraction":
        lambda val, xs: check_wang_contraction(
            operator(val), 1.0, 0.5, pairs_of(xs)),
    "resolvent_firmly_nonexpansive":
        lambda val, xs: check_resolvent_firmly_nonexpansive(
            Resolvent(val), 0.5, pairs_of(xs)),
}
AUDITS = {**MAP_AUDITS, **OPERATOR_AUDITS}

#: Images that are non-finite at the sample point 1, one per image type.
BAD_IMAGES = {
    "singleton": lambda bad: lambda x: Singleton(bad * x),
    "finite_set": lambda bad: lambda x: FiniteSet((0.5 * x, bad * x)),
    "ball_radius": lambda bad: lambda x: BallImage(0.5 * x, bad),
}

CASES = (
    [(name, "sample point") for name in sorted(AUDITS)]
    + [(name, f"{kind} image") for name in sorted(MAP_AUDITS)
       for kind in sorted(BAD_IMAGES)]
    + [(name, "operator value") for name in sorted(OPERATOR_AUDITS)])


def test_every_audit_is_covered():
    assert len(AUDITS) == 7


def test_audits_share_the_one_tolerance():
    # Only the resolvent audit takes a tolerance; the others and the
    # per-iteration audits use hilbert.DEFAULT_TOL itself.
    audits = (check_demicontractive, check_quasi_nonexpansive,
              check_strictly_pseudocontractive,
              check_inverse_strongly_monotone, check_forward_nonexpansive,
              check_wang_contraction)
    for audit in audits:
        assert "tol" not in inspect.signature(audit).parameters, audit
    assert "tol" in inspect.signature(
        check_resolvent_firmly_nonexpansive).parameters
    assert list(inspect.signature(_sample_points).parameters) == [
        "rng", "dim", "count"]
    assert solvers.AUDIT_TOL is hilbert.DEFAULT_TOL


def good_value(name):
    if name in MAP_AUDITS:
        return lambda x: Singleton(0.5 * x)
    return lambda x: 0.5 * x


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_finite_sample_passes(name):
    # The same set-up with nothing non-finite passes, so each failure
    # below comes from the injected value.
    res = AUDITS[name](good_value(name), [vec(1.0), vec(-3.0)])
    assert res.passed and res.checked == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name, fault", CASES,
                         ids=[f"{name}-{fault}".replace(" ", "_")
                              for name, fault in CASES])
def test_non_finite_input_raises_at_the_boundary(name, fault, bad):
    xs, value = [vec(1.0)], good_value(name)
    if fault == "sample point":
        xs = [vec(1.0), vec(bad)]
    elif fault == "operator value":
        value = lambda x: bad * x
    else:
        value = BAD_IMAGES[fault.removesuffix(" image")](bad)
    with pytest.raises(NonFiniteError):
        AUDITS[name](value, xs)


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_mixed_dimensions_raise_at_the_boundary(name):
    # Numpy would broadcast the 1-vector against the 2-vector.  Every map
    # audit pairs the sample with the fixed point vec(0.0); every operator
    # audit pairs x with -0.5 * x, so the sizes differ across cases.
    with pytest.raises(DimensionMismatch, match="1 vs 2"):
        AUDITS[name](good_value(name), [vec(1.0), vec(1.0, 2.0)])


def test_mixed_dimensions_within_one_case_raise():
    with pytest.raises(DimensionMismatch, match="2 vs 1"):
        check_quasi_nonexpansive(make_example1(), [vec(1.0, 2.0)])
    with pytest.raises(DimensionMismatch, match="2 vs 1"):
        check_inverse_strongly_monotone(affine_op(1.0), 1.0,
                                        [(vec(1.0, 2.0), vec(3.0))])


@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_check_scans_each_value_about_once(instance_id, monkeypatch, capsys):
    # ~1200 audited cases: at most a few finiteness scans each (the
    # validate-once audits make 3432-3832; re-checking every helper's
    # input made 8683-9264).
    scans = [0]
    real = hilbert.all_finite

    def counting(v):
        scans[0] += 1
        return real(v)

    monkeypatch.setattr(hilbert, "all_finite", counting)
    assert main(["check", instance_id, "--seed", "0"]) == 0
    assert 0 < scans[0] <= 4500


@pytest.mark.parametrize("audit", [
    lambda t, xs: check_demicontractive(t, 0.5, xs),
    check_quasi_nonexpansive], ids=["demicontractive", "quasi_nonexpansive"])
def test_each_fixed_point_is_scanned_once_per_audit(audit, monkeypatch):
    # Every sample point is paired with the fixed point; the audit checks
    # that one array once, not once per case.
    q = vec(0.0)
    t = MultiMap(lambda x: Singleton(0.5 * x), KIND_DEMICONTRACTIVE, 0.5,
                 fixed_points=(q,))
    xs = [vec(float(x)) for x in range(1, 201)]
    scans = []
    real = hilbert.all_finite

    def counting(v):
        scans.append(v)
        return real(v)

    monkeypatch.setattr(hilbert, "all_finite", counting)
    res = audit(t, xs)
    assert res.passed and res.checked == 200
    assert sum(v is t.fixed_points[0] for v in scans) <= 1
