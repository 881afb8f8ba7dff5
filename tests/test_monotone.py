import numpy as np
import pytest
from hypothesis import given, strategies as st

from viscosplit.hilbert import (Ball, Box, DimensionMismatch, HalfSpace,
                                NonFiniteError)
from viscosplit.monotone import (L1Subdifferential, LinearMonotone,
                                 MaxMonotone, NormalCone, SingleOp,
                                 ZeroOperator, affine_op,
                                 check_forward_nonexpansive,
                                 check_inverse_strongly_monotone,
                                 check_lipschitz,
                                 check_resolvent_firmly_nonexpansive,
                                 check_wang_contraction, fixed_point_residual,
                                 forward_backward_step, identity_op,
                                 resolvent, wang_tau, zero_op)
from viscosplit.problems import make_box_instance
from viscosplit.solvers import boundedness_radius


def vec(*xs):
    return np.array(xs, dtype=float)


coords = st.floats(min_value=-10, max_value=10, allow_nan=False)
vectors_2d = st.lists(coords, min_size=2, max_size=2).map(np.array)


class TestResolvents:
    def test_zero_operator_resolvent_is_identity(self):
        x = vec(3, -1)
        assert np.array_equal(resolvent(ZeroOperator(), 0.7, x), x)

    def test_normal_cone_resolvent_is_projection(self):
        K = Box(vec(-1, -1), vec(1, 1))
        assert np.array_equal(resolvent(NormalCone(K), 2.0, vec(4, 0.5)),
                              vec(1, 0.5))

    def test_soft_threshold(self):
        out = resolvent(L1Subdifferential(1.0), 0.5, vec(2.0, -0.3))
        assert np.array_equal(out, vec(1.5, 0.0))

    def test_soft_threshold_componentwise_weights(self):
        out = resolvent(L1Subdifferential(vec(1.0, 0.0)), 0.5, vec(2.0, -0.3))
        assert np.array_equal(out, vec(1.5, -0.3))
        with pytest.raises(ValueError):
            L1Subdifferential(-1.0)

    def test_linear_shrink(self):
        assert resolvent(LinearMonotone(1.0), 1.0, vec(3.0))[0] == 1.5
        with pytest.raises(ValueError):
            LinearMonotone(-0.5)

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError):
            resolvent(ZeroOperator(), 0.0, vec(1.0))

    @given(vectors_2d, vectors_2d)
    def test_projection_resolvent_firmly_nonexpansive(self, x, y):
        op = NormalCone(Box(-np.ones(2), np.ones(2)))
        res = check_resolvent_firmly_nonexpansive(op, 0.5, [(x, y)])
        assert res.passed

    @given(vectors_2d, vectors_2d)
    def test_soft_threshold_firmly_nonexpansive(self, x, y):
        res = check_resolvent_firmly_nonexpansive(
            L1Subdifferential(1.0), 0.5, [(x, y)], tol=1e-9)
        assert res.passed


class TestForwardBackward:
    def test_hand_step_on_box(self):
        K = Box(vec(-1.0), vec(1.0))
        out = forward_backward_step(NormalCone(K), identity_op(), 0.5, vec(2.0))
        assert out[0] == 1.0  # P_K(2 - 0.5*2) = P_K(1) = 1

    def test_residual_zero_at_solution(self):
        K = Box(vec(-1.0), vec(1.0))
        r = fixed_point_residual(NormalCone(K), identity_op(), 0.5, vec(0.0))
        assert r == 0.0

    def test_residual_positive_off_solution(self):
        K = Box(vec(-1.0), vec(1.0))
        r = fixed_point_residual(NormalCone(K), identity_op(), 0.5, vec(0.5))
        assert r > 0


class Shrink(MaxMonotone):
    """A resolvent whose value is a point of R^1 wherever it is taken."""

    def resolvent(self, lam, x):
        return np.zeros(1)


class Bad(MaxMonotone):
    """A resolvent whose value is nan in every coordinate."""

    def resolvent(self, lam, x):
        return x * np.nan


#: An operator that is not row-wise, with a value in R^1 at a point of R^n.
one = SingleOp(lambda x: np.array([x.sum()]), lipschitz=1.0,
               inverse_strong_monotonicity=1.0)


class TestForwardBackwardChecksEachValue:
    """The public helpers check the forward operator's and the resolvent's
    values against the size of the point, as the solver's step does; a
    1-vector would broadcast against x, and a nan would be returned."""

    @pytest.mark.parametrize("helper, inclusion, forward, error, stage", [
        (forward_backward_step, Shrink(), identity_op(), DimensionMismatch,
         "delta"),
        (fixed_point_residual, Shrink(), identity_op(), DimensionMismatch,
         "delta"),
        (forward_backward_step, Bad(), identity_op(), NonFiniteError,
         "delta"),
        (forward_backward_step, ZeroOperator(), one, DimensionMismatch,
         "forward operator"),
    ], ids=["step-shrink", "residual-shrink", "step-nan", "step-forward"])
    def test_value_is_checked(self, helper, inclusion, forward, error, stage):
        with pytest.raises(error, match=stage) as info:
            helper(inclusion, forward, 0.5, np.ones(3))
        assert info.value.stage == stage

    @pytest.mark.parametrize("inclusion, error, match", [
        (Shrink(), DimensionMismatch, "^expected dimension 3, got 1$"),
        (Bad(), NonFiniteError, "non-finite")], ids=["shrink", "nan"])
    def test_public_resolvent_checks_its_value(self, inclusion, error,
                                               match):
        # Unchecked, these read [0.] and [nan nan nan].
        with pytest.raises(error, match=match):
            resolvent(inclusion, 0.5, np.ones(3))

    def test_resolvent_audit_names_both_shapes(self):
        # Unchecked, numpy's vecdot raised on its core dimensions.
        with pytest.raises(DimensionMismatch, match=r"^resolvent value "
                           r"shape \(1, 1\), not \(1, 3\)$"):
            check_resolvent_firmly_nonexpansive(
                Shrink(), 0.5, [(np.ones(3), np.zeros(3))])

    def test_operator_call_compares_the_size(self):
        with pytest.raises(DimensionMismatch,
                           match="^expected dimension 3, got 1$"):
            one(np.ones(3))


class TestOperatorHelpers:
    def test_affine_moduli(self):
        op = affine_op(2.0, vec(1.0), 1)
        assert op(vec(3.0))[0] == 7.0
        assert op.lipschitz == 2.0
        assert op.strong_monotonicity == 2.0
        assert op.inverse_strong_monotonicity == 0.5
        with pytest.raises(ValueError):
            affine_op(-1.0)

    def test_affine_with_unit_coefficient_makes_no_scaled_copy(self):
        # 1.0 * x is x bit for bit, so x itself is the value, and x plus
        # the offset with one.
        x = np.array([-0.0, 1.5, -2.25])
        assert affine_op(1.0).apply(x) is x
        shifted = affine_op(1.0, vec(0.5, 0.0, -1.0), 3).apply(x)
        assert shifted.tobytes() == (1.0 * x + vec(0.5, 0.0, -1.0)).tobytes()

    def test_zero_and_identity(self):
        assert zero_op()(vec(5.0))[0] == 0.0
        assert identity_op()(vec(5.0))[0] == 5.0


MODULI = ("lipschitz", "strong_monotonicity", "inverse_strong_monotonicity")


class TestDeclaredModuli:
    @pytest.mark.parametrize("modulus", MODULI)
    @pytest.mark.parametrize("value", [-3.0, np.nan, np.inf, True, "1",
                                       np.float64(-1.0)])
    def test_modulus_outside_its_range_rejected(self, modulus, value):
        with pytest.raises(ValueError, match=f"^operator 'op': {modulus} "
                           "must be None or a finite real number >= 0"):
            SingleOp(lambda x: x, name="op", **{modulus: value})

    @pytest.mark.parametrize("modulus", MODULI)
    @pytest.mark.parametrize("value", [None, 0, 0.0, 2, np.float64(1.5)])
    def test_modulus_inside_its_range_kept(self, modulus, value):
        op = SingleOp(lambda x: x, **{modulus: value})
        assert getattr(op, modulus) is value


class TestOperatorAudits:
    def test_identity_is_inverse_strongly_monotone(self):
        pairs = [(vec(1, 0), vec(0, 1)), (vec(2, 2), vec(-1, 3))]
        res = check_inverse_strongly_monotone(identity_op(), 1.0, pairs)
        assert res.passed

    def test_negation_fails_monotonicity(self):
        from viscosplit.monotone import SingleOp
        neg = SingleOp(lambda x: -x)
        res = check_inverse_strongly_monotone(neg, 1.0,
                                              [(vec(1.0), vec(0.0))])
        assert not res.passed
        assert res.worst_slack > 0

    def test_forward_nonexpansive_inside_window(self):
        pairs = [(vec(1, 2), vec(0, 0)), (vec(-3, 1), vec(2, 2))]
        res = check_forward_nonexpansive(identity_op(), 1.0, 1.5, pairs)
        assert res.passed
        assert res.note == ""

    def test_forward_nonexpansive_outside_window_noted(self):
        res = check_forward_nonexpansive(identity_op(), 1.0, 3.0,
                                         [(vec(1.0), vec(0.0))])
        assert res.note != ""
        assert not res.passed  # |1 - 3| = 2 expands by factor 2

    def test_wang_contraction_identity(self):
        assert wang_tau(1.0, 1.0, 1.0) == 0.5
        pairs = [(vec(1, 1), vec(0, 0)), (vec(5, -2), vec(1, 1))]
        res = check_wang_contraction(identity_op(), 1.0, 0.5, pairs)
        assert res.passed

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    @pytest.mark.parametrize("pairs", [[], [(vec(1.0), vec(0.0))]],
                             ids=["empty", "one pair"])
    def test_resolvent_audit_rejects_lam_before_sampling(self, lam, pairs):
        with pytest.raises(ValueError):
            check_resolvent_firmly_nonexpansive(ZeroOperator(), lam, pairs)

    def test_empty_operator_audit_is_noted(self):
        res = check_forward_nonexpansive(identity_op(), 1.0, 3.0, [])
        assert res.passed and res.checked == 0
        assert "outside" in res.note and "empty sample" in res.note

    def test_lipschitz_audit_rejects_a_negative_constant(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            check_lipschitz(identity_op(), -1.0, [])

    def test_wang_preconditions_enforced(self):
        from viscosplit.monotone import SingleOp
        bare = SingleOp(lambda x: x)
        with pytest.raises(ValueError):
            check_wang_contraction(bare, 1.0, 0.5, [])
        with pytest.raises(ValueError):
            check_wang_contraction(identity_op(), 2.5, 0.5, [])  # eta window
        with pytest.raises(ValueError):
            check_wang_contraction(identity_op(), 1.0, 1.5, [])  # t window


@pytest.mark.parametrize("build", [
    lambda: Ball(vec(0.0), np.nan),
    lambda: HalfSpace(vec(1.0), np.nan),
    lambda: LinearMonotone(np.nan),
    lambda: affine_op(np.nan),
    lambda: L1Subdifferential(np.nan),
    lambda: L1Subdifferential([1.0, np.nan]),
    lambda: resolvent(ZeroOperator(), np.nan, vec(1.0)),
    lambda: check_resolvent_firmly_nonexpansive(ZeroOperator(), np.nan, []),
    lambda: check_inverse_strongly_monotone(identity_op(), np.nan, []),
    lambda: boundedness_radius(make_box_instance(1), np.nan, vec(1.0),
                               vec(0.0)),
], ids=["ball_radius", "half_space_offset", "linear_monotone_coef",
        "affine_op_coef", "l1_weight", "l1_weights", "resolvent_lam",
        "resolvent_audit_lam", "ism_modulus", "radius_margin"])
def test_nan_parameter_is_rejected(build):
    # Each range check states the condition that must hold, so nan fails it.
    with pytest.raises(ValueError):
        build()
