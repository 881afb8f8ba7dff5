"""Operators, resolvents, projections and mappings on a whole stack, against
the rows.

The class audits call a row-wise operator, a built-in resolvent, a
projection and a mapping's declared ``points`` once per (k, d) stack.  On seeded samples each stacked value
must equal the per-row value bit for bit, so the audits read the same
numbers on either path.  The per-row reference is the base class's loop:
``MaxMonotone.resolvent_rows`` and ``ConvexSet.project_rows`` call the
single-row method at each row, and an operator that does not declare
``rowwise`` is called once per row through ``monotone._value``, and a
mapping without ``points`` through its ``image``.
"""
import dataclasses
import functools
import io
import contextlib
import warnings

import numpy as np
import pytest

import viscosplit.setvalued as setvalued
from viscosplit.cli import main
from viscosplit.hilbert import (Ball, Box, ConvexSet, DimensionMismatch,
                                HalfSpace, NonFiniteError, WholeSpace)
from viscosplit.monotone import (L1Subdifferential, LinearMonotone,
                                 MaxMonotone, NormalCone, SingleOp,
                                 ZeroOperator, _value, _values, affine_op,
                                 check_forward_nonexpansive,
                                 check_inverse_strongly_monotone,
                                 check_lipschitz,
                                 check_resolvent_firmly_nonexpansive,
                                 check_wang_contraction, identity_op, zero_op)
from viscosplit.problems import catalog, load_instance, make_example3
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, MultiMap, Singleton,
                                  check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive)

DIMS = (1, 2, 3, 7, 50)
SEEDS = (0, 1, 2)


def stack(rng, dim, count=40):
    """``count`` rows of mixed scale, as the audits see them."""
    scales = rng.choice([1e-3, 1.0, 1e3], size=(count, 1))
    return scales * rng.standard_normal((count, dim))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def operators(rng, dim):
    return [affine_op(rng.uniform(0.0, 3.0)),
            affine_op(rng.uniform(0.0, 3.0), rng.standard_normal(dim), dim),
            affine_op(0.0, rng.standard_normal(dim), dim),
            zero_op(), identity_op()]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_rowwise_operators_equal_their_rows(dim, seed):
    rng = np.random.default_rng([seed, dim, 1])
    xs = stack(rng, dim)
    for op in operators(rng, dim):
        assert op.rowwise
        rows = np.array([_value(op, x) for x in xs])
        assert same_bits(_values(op, xs), rows), op.name


def resolvents(rng, dim):
    return [ZeroOperator(), LinearMonotone(rng.uniform(0.0, 3.0)),
            L1Subdifferential(rng.uniform(0.0, 2.0)),
            L1Subdifferential(rng.uniform(0.0, 2.0, dim)),
            NormalCone(WholeSpace()),
            NormalCone(Box(-rng.uniform(0.0, 2.0, dim),
                           rng.uniform(0.0, 2.0, dim))),
            NormalCone(Ball(rng.standard_normal(dim), rng.uniform(0.5, 3.0)))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_resolvent_rows_equal_the_row_loop(dim, seed):
    rng = np.random.default_rng([seed, dim, 2])
    xs = stack(rng, dim)
    lam = rng.uniform(0.1, 3.0)
    for op in resolvents(rng, dim):
        assert type(op).resolvent_rows is not MaxMonotone.resolvent_rows
        assert same_bits(op.resolvent_rows(lam, xs),
                         MaxMonotone.resolvent_rows(op, lam, xs)), op


def ball_rows(rng, ball, dim):
    """Points inside the ball, outside it, on its boundary and at its
    center."""
    u = rng.standard_normal((30, dim))
    u /= np.sqrt(np.vecdot(u, u))[:, np.newaxis]
    r = ball.radius
    radii = np.concatenate([rng.uniform(0.0, r, 10), rng.uniform(r, 5 * r, 10),
                            np.full(10, r)])
    return np.vstack([ball.center + radii[:, np.newaxis] * u,
                      ball.center[np.newaxis]])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_project_rows_equal_the_row_loop(dim, seed):
    rng = np.random.default_rng([seed, dim, 3])
    xs = stack(rng, dim)
    sets = [WholeSpace(), Box(-rng.uniform(0.0, 2.0, dim),
                              rng.uniform(0.0, 2.0, dim)),
            HalfSpace(rng.standard_normal(dim), rng.uniform(-1.0, 1.0))]
    for K in sets:
        assert same_bits(K.project_rows(xs), ConvexSet.project_rows(K, xs)), K
    ball = Ball(rng.standard_normal(dim), rng.uniform(0.5, 3.0))
    for rows in (xs, ball_rows(rng, ball, dim)):
        assert same_bits(ball.project_rows(rows),
                         ConvexSet.project_rows(ball, rows))


def test_ball_projection_keeps_exact_boundary_points():
    # ||(3, 4)|| = 5 exactly: on the boundary, so the point is its own
    # projection on both paths; (6, 8) is outside, (0, 0) the center.
    ball = Ball(np.zeros(2), 5.0)
    xs = np.array([[3.0, 4.0], [6.0, 8.0], [0.0, 0.0], [-5.0, 0.0]])
    got = ball.project_rows(xs)
    assert same_bits(got, ConvexSet.project_rows(ball, xs))
    assert got.tolist() == [[3.0, 4.0], [3.0, 4.0], [0.0, 0.0], [-5.0, 0.0]]


@pytest.mark.parametrize("K", [Box(-np.ones(2), np.ones(2)),
                               Ball(np.zeros(2), 1.0)], ids=["box", "ball"])
def test_project_rows_rejects_another_dimension(K):
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
        K.project_rows(np.ones((3, 1)))


PAIR_AUDITS = {
    "inverse_strongly_monotone":
        lambda op, pairs: check_inverse_strongly_monotone(op, 1.0, pairs),
    "forward_nonexpansive":
        lambda op, pairs: check_forward_nonexpansive(op, 1.0, 1.0, pairs),
    "averaged_contraction":
        lambda op, pairs: check_wang_contraction(op, 1.0, 0.5, pairs),
    "lipschitz": lambda op, pairs: check_lipschitz(op, 1.0, pairs),
}


def pairs_of(rows):
    return [(x, -0.5 * x) for x in rows]


@pytest.mark.parametrize("name", sorted(PAIR_AUDITS))
@pytest.mark.parametrize("rowwise", [True, False], ids=["rowwise", "per-row"])
def test_overflowing_operator_value_raises(name, rowwise):
    op = dataclasses.replace(affine_op(1e300), rowwise=rowwise,
                             strong_monotonicity=1.0, lipschitz=1.0)
    with pytest.raises(NonFiniteError):
        PAIR_AUDITS[name](op, pairs_of(np.array([[1.0], [1e10]])))


@pytest.mark.parametrize("name", sorted(PAIR_AUDITS))
@pytest.mark.parametrize("rowwise", [True, False], ids=["rowwise", "per-row"])
def test_operator_calls_per_audit(name, rowwise):
    # A row-wise operator is called once per stack, at x and at y, and
    # once more at the stack's first row alone; any other once per row,
    # 2 x cases calls in all.
    calls = []

    def half(x):
        calls.append(x.shape)
        return 0.5 * x

    op = SingleOp(half, lipschitz=1.0, strong_monotonicity=1.0,
                  inverse_strong_monotonicity=1.0, rowwise=rowwise)
    rows = np.random.default_rng(5).standard_normal((25, 3))
    assert PAIR_AUDITS[name](op, pairs_of(rows)).checked == 25
    assert calls == ([(25, 3), (3,)] * 2 if rowwise else [(3,)] * 50)


@pytest.mark.parametrize("name", sorted(PAIR_AUDITS))
def test_rowwise_value_of_another_shape_raises(name):
    op = SingleOp(lambda xs: xs[:, :-1], lipschitz=1.0,
                  strong_monotonicity=1.0, inverse_strong_monotonicity=1.0,
                  rowwise=True)
    with pytest.raises(DimensionMismatch, match=r"shape \(2, 1\)"):
        PAIR_AUDITS[name](op, pairs_of(np.ones((2, 2))))


@pytest.mark.parametrize("name", sorted(PAIR_AUDITS))
def test_per_row_value_of_another_size_raises(name):
    # Called row by row, a value in R^1 at a point of R^3 would broadcast
    # in the audit's arithmetic; it is compared with its row's size.
    op = SingleOp(lambda x: np.array([x.sum()]), lipschitz=1.0,
                  strong_monotonicity=1.0, inverse_strong_monotonicity=1.0)
    with pytest.raises(DimensionMismatch,
                       match="^expected dimension 3, got 1$"):
        PAIR_AUDITS[name](op, [(np.ones(3), np.zeros(3))])


def test_resolvent_rows_default_runs_row_by_row():
    calls = []

    class Halving(MaxMonotone):
        def resolvent(self, lam, x):
            calls.append(x.shape)
            return 0.5 * x

    rows = np.random.default_rng(6).standard_normal((10, 2))
    res = check_resolvent_firmly_nonexpansive(Halving(), 1.0, pairs_of(rows))
    assert res.passed and calls == [(2,)] * 20


@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_check_prepares_no_sample_of_its_own(instance_id, monkeypatch):
    # check draws, scans and shares one sample: no audit coerces and
    # stacks a list of pairs again.
    prepared = []
    real = setvalued.prepare
    monkeypatch.setattr(setvalued, "prepare",
                        lambda cases: prepared.append(1) or real(cases))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", instance_id, "--seed", "0"]) == 0
    assert not prepared


# --------------------------------------------------------------------------
# Mappings that declare their points
# --------------------------------------------------------------------------

MAP_AUDITS = {
    "demicontractive":
        lambda T, rows: check_demicontractive(T, 0.5, list(rows)),
    "quasi_nonexpansive":
        lambda T, rows: check_quasi_nonexpansive(T, list(rows)),
    "strictly_pseudocontractive":
        lambda T, rows: check_strictly_pseudocontractive(T, 0.5,
                                                         pairs_of(rows)),
}


def mapping(points, dim, stacked):
    """A demicontractive map with the image points ``points`` and the
    fixed point 0: declared as ``points`` when ``stacked``, otherwise as
    an image that calls ``points`` at one point at a time."""
    if stacked:
        return MultiMap(kind=KIND_DEMICONTRACTIVE, constant=0.5,
                        fixed_points=(np.zeros(dim),), points=points)
    return MultiMap(lambda x: Singleton(points(x)), KIND_DEMICONTRACTIVE,
                    0.5, fixed_points=(np.zeros(dim),))


def test_every_catalog_mapping_declares_points():
    for instance_id in catalog():
        for t in load_instance(instance_id).maps:
            assert t.points is not None, (instance_id, t.name)


@pytest.mark.parametrize("name", sorted(MAP_AUDITS))
@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "per-point"])
def test_mapping_calls_per_audit(name, stacked):
    # Declared points are called once per stack, at x (and at y for the
    # pair audit), and once more at the stack's first row alone; an image
    # once per case and point.
    calls = []

    def half(x):
        calls.append(x.shape)
        return 0.5 * x

    rows = np.random.default_rng(5).standard_normal((25, 3))
    res = MAP_AUDITS[name](mapping(half, 3, stacked), rows)
    assert res.passed and res.checked == 25
    per_stack = 2 if name == "strictly_pseudocontractive" else 1
    assert calls == ([(25, 3), (3,)] * per_stack if stacked
                     else [(3,)] * (25 * per_stack))


@pytest.mark.parametrize("name", sorted(MAP_AUDITS))
def test_mapping_points_of_another_shape_raise(name):
    T = mapping(lambda x: x[..., :1], 2, stacked=True)
    with pytest.raises(DimensionMismatch, match=r"shape \(2, 1\)"):
        MAP_AUDITS[name](T, np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize("dim", [2, 3, 7, 50])
def test_a_matrix_product_is_not_taken_row_by_row(dim):
    # x @ A.T is A x at one point up to rounding, but a stack's rows are
    # summed in another order; the first row shows it.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((dim, dim))
    A *= 0.5 / np.linalg.norm(A, 2)
    rows = rng.standard_normal((200, dim))

    def product(x):
        return x @ A.T

    assert not same_bits(product(rows)[0], product(rows[0]))
    T = mapping(product, dim, stacked=True)
    op = SingleOp(product, lipschitz=1.0, strong_monotonicity=1.0,
                  inverse_strong_monotonicity=1.0, rowwise=True)
    for audit in MAP_AUDITS.values():
        with pytest.raises(ValueError, match="first row differs"):
            audit(T, rows)
    for audit in PAIR_AUDITS.values():
        with pytest.raises(ValueError, match="first row differs"):
            audit(op, pairs_of(rows))


@pytest.mark.parametrize("name", sorted(MAP_AUDITS))
@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "per-point"])
def test_non_finite_mapping_points_raise(name, stacked):
    # inf beyond 1 in absolute value: 2.0 is sampled on either path.
    T = mapping(lambda x: np.where(np.abs(x) > 1.0, np.inf, 0.5 * x), 1,
                stacked)
    with pytest.raises(NonFiniteError):
        MAP_AUDITS[name](T, np.array([[0.5], [2.0]]))


def test_replaced_image_is_the_one_audited():
    base = mapping(lambda x: 0.5 * x, 2, stacked=True)
    seen = []

    def doubling(x):
        seen.append(x.shape)
        return Singleton(2.0 * x)

    T = dataclasses.replace(base, image=doubling)
    assert T.points is None and T.image is doubling
    rows = np.random.default_rng(8).standard_normal((10, 2))
    res = check_quasi_nonexpansive(T, list(rows))
    assert not res.passed and len(res.violations) == 10
    assert seen == [(2,)] * 10
    # Replacing anything else keeps the declared points and the image
    # built from them.
    kept = dataclasses.replace(base, name="renamed")
    assert kept.points is base.points and kept.image is base.image


def test_replaced_points_rebuild_the_image():
    base = mapping(lambda x: 0.5 * x, 1, stacked=True)
    T = dataclasses.replace(base, points=lambda x: 0.25 * x)
    assert T.image(np.array([1.0])).point.tolist() == [0.25]


def test_image_wrapped_after_construction_keeps_the_stack():
    # A tracer wraps each mapping's image once it is built; the audits
    # still take the declared points, and a replace keeps them.
    T = mapping(lambda x: 0.5 * x, 3, stacked=True)
    image, calls = T.image, []

    @functools.wraps(image)
    def traced(x):
        calls.append(x.shape)
        return image(x)

    object.__setattr__(T, "image", traced)
    rows = np.random.default_rng(9).standard_normal((12, 3))
    for name in MAP_AUDITS:
        assert MAP_AUDITS[name](T, rows).passed
    assert not calls
    assert dataclasses.replace(T, name="renamed").points is T.points


def test_a_mapping_needs_an_image_or_points():
    with pytest.raises(ValueError, match="image or points"):
        MultiMap(kind=KIND_DEMICONTRACTIVE, constant=0.5)


def test_oscillation_points_equal_its_images():
    # Large, moderate and tiny points of both signs, down to 1e-300 (1/x
    # stays finite), and both zeros, which map to +0.0.
    rng = np.random.default_rng(10)
    sign = rng.choice([-1.0, 1.0], 4000)
    xs = np.concatenate([rng.uniform(-5.0, 5.0, 4000),
                         rng.uniform(-1e-3, 1e-3, 4000),
                         sign * 10.0 ** rng.uniform(-300.0, 3.0, 4000),
                         [1e-300, -1e-300, 5.0, 0.0, -0.0]])[:, np.newaxis]
    T = make_example3()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = T.points(xs)
        rows = np.array([T.image(x).point for x in xs])
    assert same_bits(stacked, rows)
    assert same_bits(stacked[-2:], np.zeros((2, 1)))
    # Elementwise in any dimension, so on pairs of coordinates too.
    pairs = xs[1:].reshape(-1, 2)
    assert same_bits(T.points(pairs),
                     np.array([T.image(x).point for x in pairs]))
