import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscosplit.hilbert import DimensionMismatch, NonFiniteError
from viscosplit.monotone import affine_op, check_inverse_strongly_monotone
from viscosplit.problems import make_example1
from viscosplit.setvalued import (BallImage, FiniteSet, MultiMap,
                                  SelectionRule, Singleton,
                                  UnsupportedPairing, check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive,
                                  distance_to_set, hausdorff, sampled_audit,
                                  select_from)


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

    @pytest.mark.parametrize("image", [
        Singleton(vec(0.0)), FiniteSet((vec(0.0), vec(1.0))),
        BallImage(vec(0.0), 1.0)], ids=["singleton", "finite", "ball"])
    def test_measure_compares_the_dimension(self, image):
        with pytest.raises(DimensionMismatch,
                           match="expected dimension 3, got 1"):
            image.measure(vec(1, 1, 1))

    def test_distances(self):
        assert distance_to_set(vec(3, 0), Singleton(vec(0, 0))) == 3.0
        s = FiniteSet((vec(0, 0), vec(2, 0)))
        assert distance_to_set(vec(3, 0), s) == 1.0
        b = BallImage(vec(0, 0), 1.0)
        assert distance_to_set(vec(3, 0), b) == 2.0
        assert distance_to_set(vec(0.5, 0), b) == 0.0


@dataclasses.dataclass(frozen=True)
class GeneratedSingleton:
    """The dataclass ``Singleton`` would be with the generated __init__."""

    point: np.ndarray


def outcome(f):
    """What ``f()`` returns, or the type of what it raises."""
    try:
        return f()
    except Exception as err:
        return type(err)


class TestSingleton:
    def test_a_checked_vector_is_its_own_point(self):
        # The step reads an identity mapping's residual as 0.0 on this.
        x = vec(1.0, 2.0)
        assert Singleton(x).point is x

    @pytest.mark.parametrize("raw", [[1, 2], (1, 2), np.array([1, 2]),
                                     np.array([1, 2], dtype=np.float32)])
    def test_other_input_is_coerced_to_float64(self, raw):
        p = Singleton(raw).point
        assert p.dtype == np.float64 and p.tolist() == [1.0, 2.0]
        assert Singleton(3).point.tolist() == [3.0]

    def test_non_finite_and_non_vector_points_raise(self):
        with pytest.raises(NonFiniteError):
            Singleton([1.0, np.nan])
        with pytest.raises(ValueError, match="expected a vector"):
            Singleton(np.ones((2, 2)))

    def test_frozen_dataclass_behaviour(self):
        s = Singleton(vec(1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.point = vec(0.0, 0.0)
        moved = dataclasses.replace(s, point=[3, 4])
        assert moved.point.dtype == np.float64
        assert moved.point.tolist() == [3.0, 4.0]
        with pytest.raises(NonFiniteError):
            dataclasses.replace(s, point=[np.inf, 0.0])
        assert [f.name for f in dataclasses.fields(s)] == ["point"]
        assert repr(s) == "Singleton(point=array([1., 2.]))"
        assert repr(s)[len("Singleton"):] == repr(
            GeneratedSingleton(s.point))[len("GeneratedSingleton"):]

    @pytest.mark.parametrize("a, b", [
        (vec(1.0), vec(1.0)), (vec(1.0), vec(2.0)),
        (vec(1.0, 2.0), vec(1.0, 2.0)), (vec(1.0), vec(1.0, 2.0))])
    def test_equality_and_hash_as_the_dataclass_has_them(self, a, b):
        ours, generated = (Singleton(a), Singleton(b)), (
            GeneratedSingleton(a), GeneratedSingleton(b))
        for probe in (lambda s, t: s == t, lambda s, t: s == s,
                      lambda s, t: s != t, lambda s, t: hash(s)):
            assert outcome(lambda: probe(*ours)) == outcome(
                lambda: probe(*generated))


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

    def test_one_point_finite_set_against_ball(self):
        # A one-member image is measured by its farthest distance from
        # the other image, whatever its type: d + r = 1 + 0.5.
        p, ball = vec(1, 0), BallImage(vec(0, 0), 0.5)
        for one in (Singleton(p), FiniteSet((p,))):
            assert hausdorff(one, ball) == 1.5
            assert hausdorff(ball, one) == 1.5

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


def oracle_norm(v):
    return float(np.linalg.norm(v))


def oracle_distance_and_selections(kind, parts, x):
    """d(x, S) and the metric and first-enumerated selections of the image
    ``kind`` built from ``parts``, by the formulas of each kind."""
    if kind == "ball":
        center, radius = parts
        dist = oracle_norm(x - center)
        nearest = (x if dist <= radius
                   else center + (radius / dist) * (x - center))
        return max(dist - radius, 0.0), nearest, center
    norms = [oracle_norm(x - p) for p in parts]
    best = 0
    for k in range(1, len(norms)):
        if norms[k] < norms[best]:
            best = k
    return norms[best], parts[best], parts[0]


def oracle_farthest(kind, parts, q):
    if kind == "ball":
        return oracle_norm(parts[0] - q) + parts[1]
    return max(oracle_norm(p - q) for p in parts)


@st.composite
def images_and_queries(draw):
    """An image of each kind at dimension 1 to 5 with a query x and a point
    q: finite sets repeat points so that ties occur, and a ball of radius
    0 or more has x inside or outside it."""
    dim = draw(st.integers(1, 5))
    coords = st.floats(-10, 10, allow_nan=False)
    point = st.lists(coords, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(["singleton", "finite_set", "ball"]))
    x, q = draw(point), draw(point)
    if kind == "singleton":
        parts = (draw(st.sampled_from([x, q])) if draw(st.booleans())
                 else draw(point),)
        return kind, Singleton(parts[0]), parts, x, q
    if kind == "finite_set":
        pool = draw(st.lists(point, min_size=1, max_size=3))
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                            max_size=5))
        parts = tuple(pool[k] for k in idx)
        return kind, FiniteSet(parts), parts, x, q
    center = draw(point)
    radius = draw(st.sampled_from([0.0, oracle_norm(x - center),
                                   oracle_norm(x - center) + 1.0])
                  if draw(st.booleans()) else st.floats(0, 20))
    return kind, BallImage(center, radius), (center, radius), x, q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(images_and_queries())
def test_image_operations_match_an_oracle(case):
    # Bit for bit against the formulas of each kind, written with
    # np.linalg.norm and a lowest-index argmin loop of their own.
    kind, image, parts, x, q = case
    dist, nearest, first = oracle_distance_and_selections(kind, parts, x)
    assert distance_to_set(x, image) == dist
    assert (select_from(image, SelectionRule.METRIC, x).tobytes()
            == nearest.tobytes())
    assert (select_from(image, SelectionRule.FIRST_ENUMERATED, x).tobytes()
            == first.tobytes())
    assert hausdorff(image, Singleton(q)) == oracle_farthest(kind, parts, q)


@pytest.mark.parametrize("call", [
    lambda: distance_to_set(np.ones(3), Singleton([0.0])),
    lambda: hausdorff(Singleton(np.ones(3)), Singleton([0.0])),
    lambda: select_from(Singleton([0.0]), "metric", np.ones(3)),
    lambda: hausdorff(FiniteSet([np.ones(3), np.zeros(3)]),
                      FiniteSet([[0.0]]))],
    ids=["distance_to_set", "hausdorff_singletons", "select_from",
         "hausdorff_finite_sets"])
def test_image_helpers_refuse_another_dimension(call):
    # Each would broadcast the 1-vector against the 3-vector.
    with pytest.raises(DimensionMismatch, match=r"dimension [13], got [13]"):
        call()


@pytest.mark.parametrize("a, b", [
    (BallImage(np.ones(3), 1.0), BallImage([0.0], 1.0)),
    (FiniteSet([np.ones(3), np.zeros(3)]), FiniteSet([[0.0], [1.0]]))],
    ids=["balls", "finite_sets"])
def test_hausdorff_refuses_images_of_two_dimensions(a, b):
    for pair in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch,
                           match=r"dimension [13], got [13]"):
            hausdorff(*pair)


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

    def test_rule_by_value(self):
        # The value names the rule, as a config does; anything else is
        # no rule.
        img = FiniteSet((vec(5.0), vec(0.0)))
        assert select_from(img, "first_enumerated", vec(0.1))[0] == 5.0
        assert select_from(img, "metric", vec(0.1))[0] == 0.0
        with pytest.raises(ValueError):
            select_from(img, None, vec(0.1))

    def test_select_through_multimap(self):
        half = MultiMap(lambda x: Singleton(0.5 * x), "demicontractive", 0.5,
                        fixed_points=(vec(0.0),))
        x = vec(4.0)
        assert select_from(half(x), SelectionRule.METRIC, x)[0] == 2.0


class TestMultiMapValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "mystery")

    def test_demicontractive_needs_constant(self):
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "demicontractive")
        with pytest.raises(ValueError):
            MultiMap(lambda x: Singleton(x), "demicontractive", 1.0)

    @pytest.mark.parametrize("kind, constant", [
        *(("strictly_pseudocontractive", c)
          for c in (None, math.nan, True, -0.1, 1.5, "0.5")),
        *(("demicontractive", c) for c in (False, math.nan, -0.1))])
    def test_constant_outside_its_range_rejected(self, kind, constant):
        with pytest.raises(ValueError, match=f"^{kind} maps need constant "
                           f"in \\[0, 1[])], got "):
            MultiMap(lambda x: Singleton(x), kind, constant)

    @pytest.mark.parametrize("kind, constant", [
        ("strictly_pseudocontractive", 0), ("strictly_pseudocontractive", 1.0),
        ("strictly_pseudocontractive", np.float64(0.6)),
        ("demicontractive", 0.0), ("quasi_nonexpansive", None)])
    def test_constant_inside_its_range_kept(self, kind, constant):
        assert MultiMap(lambda x: Singleton(x), kind,
                        constant).constant is constant


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

    @pytest.mark.parametrize("beta", [-0.1, 1.0])
    def test_demicontractive_constant_range(self, beta):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
            check_demicontractive(halving_map(), beta, [])


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
