"""The small-vector kernels of a step and its audit, pinned bit for bit.

Each kernel stands for a numpy call it replaces without the call's
wrapper: ``ndarray.clip`` for ``np.clip`` in the box projection,
``hilbert.norm`` for ``np.linalg.norm`` in the ball projection,
``np.zeros(x.shape)`` for ``np.zeros_like(x)`` in ``zero_op``, one
concatenation for ``np.array(points)`` in the stacked audit distances,
and a Python sum for ``np.vdot`` in the finiteness check of a short
vector.
"""
import warnings

import numpy as np
import pytest

import viscosplit.solvers as solvers
from viscosplit.hilbert import (SMALL_VECTOR, Ball, Box, NonFiniteError,
                                all_finite, norm)
from viscosplit.monotone import _values, zero_op

SEEDS = (0, 1, 2)


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def signed_zero_box():
    # Bounds at +0.0 and -0.0 on either side; Box only needs lower <= upper.
    lower = np.array([-0.0, 0.0, -0.0, 0.0, -1.0, -0.0])
    upper = np.array([0.0, -0.0, -0.0, 0.0, 1.0, 2.0])
    return Box(lower, upper)


class TestBoxProjection:
    INPUTS = [np.full(6, -0.0), np.zeros(6),
              np.array([-0.0, -0.0, 0.0, 0.0, -0.0, -0.0]),
              np.array([3.0, -3.0, 1e-300, -1e-300, 0.5, -0.0]),
              np.array([-5e-324, 5e-324, -2.0, 2.0, -1.0, 2.0])]

    @pytest.mark.parametrize("x", INPUTS)
    def test_project_equals_np_clip(self, x):
        box = signed_zero_box()
        assert same_bits(box.project(x), np.clip(x, box.lower, box.upper))

    def test_project_rows_equals_np_clip(self):
        box = signed_zero_box()
        xs = np.array(self.INPUTS + [np.full(6, np.nan)])
        assert same_bits(box.project_rows(xs),
                         np.clip(xs, box.lower, box.upper))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_rows_equal_np_clip(self, seed):
        rng = np.random.default_rng(seed)
        lower = -rng.uniform(0.0, 2.0, 5)
        box = Box(lower, lower + rng.uniform(0.0, 3.0, 5))
        xs = rng.uniform(-4.0, 4.0, (30, 5))
        assert same_bits(box.project_rows(xs),
                         np.clip(xs, box.lower, box.upper))
        for x in xs:
            assert same_bits(box.project(x), np.clip(x, box.lower, box.upper))


def ball_formula(ball, x):
    """The ball projection as it read with ``np.linalg.norm``."""
    d = np.linalg.norm(x - ball.center)
    if d <= ball.radius:
        return x
    return ball.center + (ball.radius / d) * (x - ball.center)


class TestBallProjection:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", (1, 2, 7))
    def test_inside_and_outside_equal_the_formula(self, seed, dim):
        rng = np.random.default_rng([seed, dim])
        ball = Ball(rng.standard_normal(dim), rng.uniform(0.5, 2.0))
        for scale in (0.1, 0.9, 1.1, 10.0, 1e6):
            u = rng.standard_normal(dim)
            x = ball.center + scale * ball.radius * u / np.linalg.norm(u)
            assert same_bits(ball.project(x), ball_formula(ball, x))

    def test_boundary_point_is_its_own_projection(self):
        # The origin lies on the sphere of radius sqrt(2) around (1, 1):
        # both norms read the radius exactly.
        ball = Ball(np.ones(2), float(np.sqrt(2.0)))
        x = np.zeros(2)
        assert norm(x - ball.center) == ball.radius
        assert ball.project(x) is x
        assert same_bits(ball.project(x), ball_formula(ball, x))

    def test_gap_that_overflows_raises(self):
        # The gap to the center overflows: np.linalg.norm read inf and the
        # formula nan coordinates, hilbert.norm rejects the gap.
        ball = Ball(np.array([-1e308]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.isnan(ball_formula(ball, np.array([1e308]))).all()
            with pytest.raises(NonFiniteError):
                ball.project(np.array([1e308]))


class TestZeroOperator:
    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 3)])
    def test_value_is_a_fresh_float64_zero_array(self, shape):
        op = zero_op()
        x = np.arange(np.prod(shape), dtype=float).reshape(shape) + 1.0
        first, second = op.apply(x), op.apply(x)
        for v in (first, second):
            assert same_bits(v, np.zeros_like(x))
            assert v.flags.writeable and not np.shares_memory(v, x)
        assert not np.shares_memory(first, second)

    def test_stack_through_values(self):
        xs = np.ones((3, 2))
        assert same_bits(_values(zero_op(), xs), np.zeros((3, 2)))


class TestAuditDistances:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", (1, 3, 50))
    def test_stacked_path_equals_point_by_point(self, seed, dim,
                                                monkeypatch):
        rng = np.random.default_rng([seed, dim, 7])
        q_rows = rng.standard_normal((3, dim))
        states = [rng.standard_normal((6, dim)) * rng.choice([1e-3, 1, 1e3])
                  for _ in range(5)]
        # Six points per state, two of them one array, as a stage point
        # past the last averaging line mirrors the one before it.
        points = [p for st in states for p in (*st[:3], st[3], st[3], st[5])]
        assert len(points) * q_rows.nbytes <= solvers.STACKED_AUDIT_BYTES
        stacked = solvers._distances(points, q_rows)
        expected = np.array([[norm(p - q) for q in q_rows] for p in points])
        assert same_bits(stacked, expected)
        monkeypatch.setattr(solvers, "STACKED_AUDIT_BYTES", 0)
        assert same_bits(solvers._distances(points, q_rows), expected)


class TestFiniteness:
    """all_finite agrees with a scan of every coordinate, on both sides of
    SMALL_VECTOR, and warns of no overflow."""

    @pytest.mark.parametrize("size", [0, 1, 2, SMALL_VECTOR,
                                      SMALL_VECTOR + 1, 200])
    @pytest.mark.parametrize("fill", [0.5, 1e308, -1e308, 1e200])
    @pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
    def test_equals_the_coordinate_scan(self, size, fill, bad):
        v = np.full(size, fill)
        if bad is not None and size:
            v[size // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_finite(v) is bool(np.isfinite(v).all())

    def test_opposite_infinities(self):
        for size in (2, SMALL_VECTOR + 2):
            v = np.zeros(size)
            v[:2] = np.inf, -np.inf
            assert all_finite(v) is False
