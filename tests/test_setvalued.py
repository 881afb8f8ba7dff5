import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from viscosplit.monotone import affine_op, check_inverse_strongly_monotone
from viscosplit.problems import make_example1
from viscosplit.setvalued import (BallImage, FiniteSet, MultiMap,
                                  SelectionRule, Singleton,
                                  UnsupportedPairing, check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive,
                                  distance_to_set, hausdorff, sampled_audit,
                                  select, select_from)


def vec(*xs):
    return np.array(xs, dtype=float)


points_2d = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=2, max_size=2).map(np.array)


class TestImages:
    def test_finite_set_nonempty(self):
        with pytest.raises(ValueError):
            FiniteSet(())

    def test_finite_set_dimension_consistency(self):
        with pytest.raises(Exception):
            FiniteSet((vec(1.0), vec(1.0, 2.0)))

    def test_ball_image_allows_radius_zero(self):
        assert BallImage(vec(0, 0), 0.0).radius == 0.0
        with pytest.raises(ValueError):
            BallImage(vec(0, 0), -1.0)

    def test_distances(self):
        assert distance_to_set(vec(3, 0), Singleton(vec(0, 0))) == 3.0
        s = FiniteSet((vec(0, 0), vec(2, 0)))
        assert distance_to_set(vec(3, 0), s) == 1.0
        b = BallImage(vec(0, 0), 1.0)
        assert distance_to_set(vec(3, 0), b) == 2.0
        assert distance_to_set(vec(0.5, 0), b) == 0.0


class TestHausdorff:
    def test_finite_pairs(self):
        a = FiniteSet((vec(0.0), vec(1.0)))
        b = FiniteSet((vec(0.0),))
        assert hausdorff(a, b) == 1.0

    def test_two_balls_closed_form(self):
        a = BallImage(vec(0, 0), 1.0)
        b = BallImage(vec(3, 0), 0.5)
        # d = 3; max(3 + 1 - 0.5, 3 + 0.5 - 1, 0) = 3.5
        assert hausdorff(a, b) == 3.5

    def test_nested_balls(self):
        a = BallImage(vec(0, 0), 2.0)
        b = BallImage(vec(0, 0), 0.5)
        assert hausdorff(a, b) == 1.5

    def test_singleton_against_ball(self):
        s = Singleton(vec(4, 0))
        b = BallImage(vec(0, 0), 1.0)
        assert hausdorff(s, b) == 5.0

    def test_multipoint_finite_against_ball_refused(self):
        f = FiniteSet((vec(0, 0), vec(1, 0)))
        b = BallImage(vec(0, 0), 1.0)
        with pytest.raises(UnsupportedPairing):
            hausdorff(f, b)

    @given(points_2d, points_2d, points_2d)
    def test_symmetry_and_triangle_on_finite_sets(self, p, q, r):
        a = FiniteSet((p, q))
        b = FiniteSet((q, r))
        c = FiniteSet((r,))
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9

    @given(points_2d, st.lists(points_2d, min_size=1, max_size=4),
           st.floats(min_value=0, max_value=3))
    def test_distance_to_a_point_matches_an_oracle(self, q, pts, r):
        # H(S, {q}) on either side, bit for bit: brute-force max-min
        # enumeration with np.linalg.norm for singleton and finite images,
        # and d + r for a ball whose center lies at distance d.
        def max_min(A, B):
            return max(max(min(np.linalg.norm(a - b) for b in B) for a in A),
                       max(min(np.linalg.norm(b - a) for a in A) for b in B))

        point = Singleton(q)
        for image, members in ((Singleton(pts[0]), pts[:1]),
                               (FiniteSet(tuple(pts)), pts)):
            assert hausdorff(image, point) == max_min(members, [q])
            assert hausdorff(point, image) == max_min([q], members)
        ball = BallImage(pts[0], r)
        d_plus_r = np.linalg.norm(pts[0] - q) + r
        assert hausdorff(ball, point) == d_plus_r
        assert hausdorff(point, ball) == d_plus_r
        assert hausdorff(ball, BallImage(q, 0.0)) == d_plus_r

    @given(points_2d, points_2d,
           st.floats(min_value=0, max_value=3),
           st.floats(min_value=0, max_value=3))
    def test_ball_formula_symmetry(self, c1, c2, r1, r2):
        a, b = BallImage(c1, r1), BallImage(c2, r2)
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, a) == 0.0


class TestSelection:
    def test_metric_picks_nearest_with_lowest_index_ties(self):
        img = FiniteSet((vec(1.0), vec(-1.0)))
        assert select_from(img, SelectionRule.METRIC, vec(0.9))[0] == 1.0
        # Equidistant: the first listed point wins.
        assert select_from(img, SelectionRule.METRIC, vec(0.0))[0] == 1.0

    def test_first_enumerated_ignores_query(self):
        img = FiniteSet((vec(5.0), vec(0.0)))
        assert select_from(img, SelectionRule.FIRST_ENUMERATED, vec(0.1))[0] == 5.0

    def test_ball_metric_projects_radially(self):
        img = BallImage(vec(0, 0), 1.0)
        assert np.allclose(select_from(img, SelectionRule.METRIC, vec(2, 0)),
                           vec(1, 0))
        inside = select_from(img, SelectionRule.METRIC, vec(0.3, 0.1))
        assert np.array_equal(inside, vec(0.3, 0.1))

    def test_ball_center_query_returns_center(self):
        img = BallImage(vec(2, 2), 1.0)
        assert np.array_equal(select_from(img, SelectionRule.METRIC, vec(2, 2)),
                              vec(2, 2))
        assert np.array_equal(
            select_from(img, SelectionRule.FIRST_ENUMERATED, vec(9, 9)),
            vec(2, 2))

    def test_select_through_multimap(self):
        half = MultiMap(lambda x: Singleton(0.5 * x), "demicontractive", 0.5,
                        fixed_points=(vec(0.0),))
        assert select(half, SelectionRule.METRIC, vec(4.0))[0] == 2.0


class TestMultiMapValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "mystery")

    def test_demicontractive_needs_constant(self):
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "demicontractive")
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "demicontractive", 1.0)


def halving_map():
    return MultiMap(lambda x: Singleton(0.5 * x), "demicontractive", 0.5,
                    fixed_points=(vec(0.0),))


def doubling_map():
    # Fixes 0 but expands everywhere else; fails every class audit.
    return MultiMap(lambda x: Singleton(2.0 * x), "quasi_nonexpansive",
                    fixed_points=(vec(0.0),))


class TestClassAudits:
    def test_halving_map_is_demicontractive(self):
        pts = [vec(x) for x in np.linspace(-5, 5, 41)]
        res = check_demicontractive(halving_map(), 0.5, pts)
        assert res.passed
        assert res.checked == 41
        assert res.worst_slack <= 0.0 + 1e-12

    def test_halving_map_is_quasi_nonexpansive(self):
        pts = [vec(x) for x in np.linspace(-5, 5, 41)]
        res = check_quasi_nonexpansive(halving_map(), pts)
        assert res.passed

    def test_doubling_map_fails_with_witness(self):
        pts = [vec(1.0), vec(2.0)]
        res = check_quasi_nonexpansive(doubling_map(), pts)
        assert not res.passed
        assert res.worst_slack > 0
        assert res.witness is not None
        assert len(res.violations) == 2

    def test_audit_requires_a_fixed_point(self):
        bare = MultiMap(lambda x: Singleton(0.5 * x), "demicontractive", 0.5)
        with pytest.raises(ValueError):
            check_demicontractive(bare, 0.5, [vec(1.0)])

    def test_strictly_pseudocontractive_boundary_k_noted(self):
        pairs = [(vec(1.0), vec(2.0))]
        res = check_strictly_pseudocontractive(halving_map(), 1.0, pairs)
        assert res.passed
        assert "non-strict" in res.note

    @pytest.mark.parametrize("audit", [
        lambda: check_demicontractive(halving_map(), 0.5, []),
        lambda: check_quasi_nonexpansive(halving_map(), []),
        lambda: check_strictly_pseudocontractive(halving_map(), 1.0, [])],
        ids=["demicontractive", "quasi_nonexpansive",
             "strictly_pseudocontractive"])
    def test_empty_sample_is_noted(self, audit):
        res = audit()
        assert res.passed and res.checked == 0
        assert "empty sample" in res.note

    def test_strictly_pseudocontractive_constant_range(self):
        with pytest.raises(ValueError):
            check_strictly_pseudocontractive(halving_map(), 1.5, [])


class TestNanSlack:
    """A slack that cannot be evaluated (nan) is a violation, and the first
    one is the worst slack, with its case as the witness."""

    @pytest.mark.parametrize("audit, case", [
        (lambda cases: check_inverse_strongly_monotone(
            affine_op(1.0), 1.0, cases), (vec(1e200), vec(-1e200))),
        (lambda cases: check_quasi_nonexpansive(
            make_example1(), [x for x, _ in cases]), (vec(1e200), vec(0.0))),
    ], ids=["inverse_strongly_monotone", "quasi_nonexpansive"])
    def test_overflowing_sides_fail(self, audit, case):
        # Both sides overflow to inf, and inf - inf is nan.
        with np.errstate(over="ignore"):
            res = audit([case])
        assert not res.passed
        assert len(res.violations) == 1
        assert math.isnan(res.worst_slack)
        assert [v.tolist() for v in res.witness] == [v.tolist() for v in case]

    @pytest.mark.parametrize("slacks, worst_at", [
        ([math.nan, 1.0], 0), ([math.nan, math.nan, 2.0], 0),
        ([1.0, math.nan, 2.0], 1), ([-1.0, 0.5], 1)])
    def test_first_nan_stays_the_worst(self, slacks, worst_at):
        cases = [(vec(float(k)), vec(0.0)) for k in range(len(slacks))]
        res = sampled_audit(
            "nan_first", cases,
            lambda xs, ys: (np.array(slacks)[xs[:, 0].astype(int)],
                            np.zeros(len(xs))))
        worst = slacks[worst_at]
        assert (math.isnan(res.worst_slack) if math.isnan(worst)
                else res.worst_slack == worst)
        assert res.witness[0][0] == worst_at
        assert len(res.violations) == sum(not s <= 1e-10 for s in slacks)
        assert res.passed is (not res.violations)
