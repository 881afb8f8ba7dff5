import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from viscosplit.hilbert import (AffineSet, Ball, Box, DimensionMismatch,
                                HalfSpace, NonFiniteError, WholeSpace,
                                as_vector,
                                hilbert_identity_check, inner, norm, project)


def vec(*xs):
    return np.array(xs, dtype=float)


finite_coords = st.floats(min_value=-10, max_value=10, allow_nan=False,
                          width=64)
vectors_3d = st.lists(finite_coords, min_size=3, max_size=3).map(np.array)


class TestVectors:
    def test_scalar_becomes_vector(self):
        v = as_vector(2.0)
        assert v.shape == (1,)
        assert v[0] == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.inf])
        with pytest.raises(ValueError):
            as_vector([np.nan])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0], dim=3)
        with pytest.raises(DimensionMismatch):
            inner(vec(1, 2), vec(1, 2, 3))

    def test_inner_and_norm(self):
        assert inner(vec(1, 2), vec(3, -1)) == 1.0
        assert norm(vec(3, 4)) == 5.0

    def test_float_vector_passes_through_still_checked(self):
        v = vec(1, 2)
        assert as_vector(v) is v
        for bad in (vec(1, np.inf), vec(np.nan, 0), vec(-np.inf)):
            with pytest.raises(ValueError):
                as_vector(bad)
        with pytest.raises(DimensionMismatch):
            as_vector(v, dim=3)
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 2)))
        assert as_vector(np.arange(3)).dtype == np.float64

    @given(st.lists(st.floats(min_value=-1e100, max_value=1e100,
                              width=64), min_size=1, max_size=40))
    def test_norm_equals_numpy_bit_for_bit(self, coords):
        v = np.array(coords)
        assert norm(v) == float(np.linalg.norm(v))

    @given(st.lists(finite_coords, max_size=20),
           st.floats(min_value=1e155, max_value=1e308),
           st.booleans(), st.integers(min_value=0))
    def test_overflowing_square_sum_is_still_finite(self, coords, big,
                                                    negative, at):
        # Squares past ~1.3e154 overflow v @ v although every coordinate
        # is finite; as_vector accepts the vector without a warning and
        # norm returns inf, as np.linalg.norm does.
        coords.insert(at % (len(coords) + 1), -big if negative else big)
        v = np.array(coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_vector(v) is v
            assert np.array_equal(as_vector(coords), v)
        with np.errstate(over="ignore"):
            assert norm(v) == np.inf == np.linalg.norm(v)

    @given(st.lists(st.floats(width=64, allow_nan=False,
                              allow_infinity=False), max_size=20),
           st.sampled_from([np.inf, -np.inf, np.nan]), st.integers(min_value=0))
    def test_one_non_finite_coordinate_is_rejected(self, coords, bad, at):
        coords.insert(at % (len(coords) + 1), bad)
        v = np.array(coords)
        # norm forms v.dot(v) first, which warns when finite squares overflow.
        with np.errstate(over="ignore"):
            for check in (as_vector, norm):
                for arg in (v, coords):
                    with pytest.raises(NonFiniteError):
                        check(arg)


class TestProjections:
    def test_whole_space_is_identity(self):
        x = vec(3, -7)
        assert np.array_equal(project(WholeSpace(), x), x)

    def test_box_clips(self):
        K = Box(vec(-1, -1), vec(1, 1))
        assert np.array_equal(K.project(vec(2, 0.5)), vec(1, 0.5))
        assert K.contains(vec(0.3, -1))
        assert not K.contains(vec(1.5, 0))

    def test_box_empty_raises(self):
        with pytest.raises(ValueError):
            Box(vec(1.0), vec(0.0))

    def test_ball_interior_and_exterior(self):
        K = Ball(vec(0, 0), 1.0)
        assert np.array_equal(K.project(vec(0.2, 0.1)), vec(0.2, 0.1))
        p = K.project(vec(3, 4))
        assert np.allclose(p, vec(0.6, 0.8))

    def test_ball_through_origin(self):
        # 0 sits on the boundary, so it projects to itself exactly.
        K = Ball(vec(1, 1), np.sqrt(2.0))
        assert np.array_equal(K.project(vec(0, 0)), vec(0, 0))

    def test_ball_bad_radius(self):
        with pytest.raises(ValueError):
            Ball(vec(0.0), 0.0)

    def test_halfspace(self):
        K = HalfSpace(vec(1, 0), 0.0)
        assert np.array_equal(K.project(vec(2, 3)), vec(0, 3))
        assert np.array_equal(K.project(vec(-1, 5)), vec(-1, 5))
        with pytest.raises(ValueError):
            HalfSpace(vec(0, 0), 1.0)

    def test_affine_line(self):
        # The line through (1, 0) along (0, 1).
        K = AffineSet(vec(1, 0), np.array([[0.0, 1.0]]))
        assert np.allclose(K.project(vec(5, 3)), vec(1, 3))

    def test_affine_requires_orthonormal_rows(self):
        with pytest.raises(ValueError):
            AffineSet(vec(0, 0), np.array([[1.0, 1.0]]))

    def test_affine_basis_rows_must_match_the_anchor(self):
        with pytest.raises(DimensionMismatch, match="anchor dimension"):
            AffineSet(vec(0, 0), np.array([[0.0, 0.0, 1.0]]))

    @given(vectors_3d)
    def test_box_projection_idempotent(self, x):
        K = Box(-np.ones(3), np.ones(3))
        p = K.project(x)
        assert np.array_equal(K.project(p), p)
        assert K.contains(p)

    @given(vectors_3d, vectors_3d)
    def test_ball_projection_firmly_nonexpansive(self, x, y):
        K = Ball(vec(0.5, -0.5, 0.0), 2.0)
        px, py = K.project(x), K.project(y)
        lhs = norm(px - py) ** 2
        rhs = inner(px - py, x - y)
        assert lhs <= rhs + 1e-9

    @given(vectors_3d)
    def test_projection_variational_characterization(self, x):
        K = Box(-np.ones(3), np.ones(3))
        p = K.project(x)
        for corner in (np.ones(3), -np.ones(3), vec(1, -1, 1)):
            assert inner(x - p, corner - p) <= 1e-9


TINY = np.nextafter(0.0, 1.0)

#: Coordinates a clip may meet: signed zeros, infinities, nans of both
#: signs, subnormals, the bounds themselves and points outside the box.
CLIP_INPUTS = vec(0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY,
                  1.0, -1.0, 2.0, -2.0, 0.5, 1e308, -1e308, 2.5e-310)

#: (lower, upper, whether each is clipped against as a 0-d array).  A
#: bound equal to zero stays per coordinate: there numpy's 0-d clip keeps
#: a zero of the other sign, which the per-coordinate clip replaces by the
#: bound.  A bound mixing 0.0 and -0.0 is not uniform in its bits.
CLIP_BOUNDS = {
    "unit": (-1.0, 1.0, (True, True)),
    "subnormal": (-TINY, TINY, (True, True)),
    "offset": (-0.5, 2.0, (True, True)),
    "zero_lower": (0.0, 1.0, (False, True)),
    "negative_zero_upper": (-1.0, -0.0, (True, False)),
    "mixed_zero": (vec(0.0, -0.0), 1.0, (False, True)),
    "non_uniform": (vec(-1.0, -2.0), 1.0, (False, True)),
}


def clip_box(lower, upper, dim):
    return Box(np.resize(np.broadcast_to(lower, (2,)), dim),
               np.resize(np.broadcast_to(upper, (2,)), dim))


class TestUniformBoxBounds:
    @pytest.mark.parametrize("dim", [1, 16, 1000])
    @pytest.mark.parametrize("name", sorted(CLIP_BOUNDS))
    def test_the_clip_equals_the_per_coordinate_clip(self, name, dim):
        lower, upper, zero_d = CLIP_BOUNDS[name]
        box = clip_box(lower, upper, dim)
        if dim > 1:
            assert tuple(b.ndim == 0 for b in box._bounds) == zero_d
        # Each row is the inputs shifted by one place, so every input meets
        # every coordinate's bounds.
        rows = np.array([np.resize(np.roll(CLIP_INPUTS, k), dim)
                         for k in range(CLIP_INPUTS.size)])
        want = np.clip(rows, box.lower, box.upper)
        assert box.project_rows(rows).tobytes() == want.tobytes()
        for row in rows[np.isfinite(rows).all(axis=1)]:
            assert box.project(row).tobytes() == np.clip(
                row, box.lower, box.upper).tobytes()

    def test_replace_derives_the_bounds_again(self):
        box = clip_box(-1.0, 1.0, 4)
        mixed = dataclasses.replace(box, lower=vec(0.0, -0.0, 0.0, -0.0))
        assert mixed._bounds[0].ndim == 1
        # Each zero coordinate meets a bound of the other sign, which wins.
        assert mixed.project(vec(-0.0, 0.0, -3.0, 3.0)).tobytes() == vec(
            0.0, -0.0, 0.0, 1.0).tobytes()
        moved = dataclasses.replace(box, lower=np.full(4, -0.5))
        assert moved._bounds[0].ndim == 0 and moved._bounds[0] == -0.5
        assert moved.project(np.full(4, -3.0)).tolist() == [-0.5] * 4


class TestIdentityAudit:
    def test_convex_combination_identity_exact(self):
        audit = hilbert_identity_check(vec(1, 2), vec(-3, 0.5), 0.3)
        assert audit.id2_equal
        assert abs(audit.id2_lhs - audit.id2_rhs) <= 1e-10

    def test_printed_reading_fails_on_sign_witness(self):
        # x = 1, y = -1: the difference form gives 4 <= 1 + 2*0 = 1, false,
        # while the sum form gives 0 <= 1, true.  Both readings are reported.
        audit = hilbert_identity_check(vec(1.0), vec(-1.0), 0.5)
        assert not audit.id1_printed_holds
        assert audit.id1_corrected_holds
        assert audit.id1_printed_lhs == 4.0
        assert audit.id1_printed_rhs == 1.0

    def test_lam_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            hilbert_identity_check(vec(1.0), vec(2.0), 1.0)

    @given(vectors_3d, vectors_3d,
           st.floats(min_value=0.01, max_value=0.99))
    def test_corrected_reading_always_holds(self, x, y, lam):
        audit = hilbert_identity_check(x, y, lam)
        assert audit.id1_corrected_holds
        assert audit.id2_equal


def test_project_scans_a_new_point_unless_a_box_clipped_it(monkeypatch):
    # A box's clip of a checked point between finite bounds is finite, so
    # only the box's own boundary scans; a point another set makes, a
    # box subclass's too, is scanned after it.
    import viscosplit.hilbert as hilbert

    class Overflowing(Box):
        def project(self, x):
            return 1e308 * super().project(x) * 10.0

    scans, real = [0], hilbert.all_finite

    def counting(v):
        scans[0] += 1
        return real(v)

    box = Box(vec(-1.0, -1.0), vec(1.0, 1.0))
    overflowing = Overflowing(box.lower, box.upper)
    monkeypatch.setattr(hilbert, "all_finite", counting)
    assert project(box, vec(2.0, -3.0)).tolist() == [1.0, -1.0]
    assert scans[0] == 1
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        project(overflowing, vec(2.0, -3.0))
    assert scans[0] == 3
