import dataclasses
import re

import numpy as np
import pytest

from viscosplit.hilbert import Ball, DimensionMismatch, NonFiniteError
from viscosplit.monotone import SingleOp, affine_op, zero_op
from viscosplit.problems import (catalog, default_schedule_for, flip_map,
                                 grid_points, identity_map, load_instance,
                                 make_ball_instance, make_box_instance,
                                 make_example1, make_example3,
                                 make_inclusion_instance,
                                 make_oscillation_instance,
                                 make_trivial_instance, scaling_map)
from viscosplit.schedules import (InfeasibleScheduleError, ParamSeq,
                                  ViscosityParams, validate)
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE,
                                  KIND_STRICTLY_PSEUDOCONTRACTIVE, MultiMap,
                                  SelectionRule, Singleton, distance_to_set)
from viscosplit.solvers import (ProblemInstance, ScheduleValidationError,
                                 UncertifiedPointError, audit_instance, run)


class TestExampleMaps:
    def test_halving_1d(self):
        img = make_example1()(np.array([2.0]))
        assert isinstance(img, Singleton)
        assert img.point[0] == 1.0

    def test_halving_2d(self):
        halving_2d = scaling_map(0.5, 2, 0.5, name="halving_2d")
        img = halving_2d(np.array([2.0, -4.0]))
        assert np.array_equal(img.point, np.array([1.0, -2.0]))

    def test_oscillation_values(self):
        T = make_example3()
        x = 2.0 / np.pi           # sin(1/x) = 1
        y = 2.0 / (3.0 * np.pi)   # sin(1/y) = -1
        assert T(np.array([x])).point[0] == pytest.approx(4.0 / (3.0 * np.pi),
                                                          abs=1e-15)
        assert T(np.array([y])).point[0] == pytest.approx(-4.0 / (9.0 * np.pi),
                                                          abs=1e-15)

    def test_oscillation_fixes_origin_only(self):
        T = make_example3()
        assert T(np.zeros(1)).point[0] == 0.0
        # |(2/3) sin| <= 2/3 < 1, so no other fixed point exists.
        for v in np.linspace(-2, 2, 37):
            if v != 0:
                assert abs(T(np.array([v])).point[0]) <= (2.0 / 3.0) * abs(v)

    def test_scaling_map_requires_contraction(self):
        with pytest.raises(ValueError):
            scaling_map(1.0, 1)

    def test_flip_map(self):
        T = flip_map(3, 2)
        assert T.constant == 0.5
        assert np.array_equal(T(np.array([1.0, -2.0])).point,
                              np.array([-3.0, 6.0]))
        assert flip_map(1.0, 1).constant == 0.0
        for k in (0.5, True, np.nan):
            with pytest.raises(ValueError, match="k >= 1"):
                flip_map(k, 1)


def flipped(beta=None):
    """``make_inclusion_instance`` at dim 2 with T x = {-3x} as T1, T2 and
    T3, declared with its own constant 0.5 or with ``beta``."""
    T = flip_map(3, 2)
    if beta is not None:
        T = dataclasses.replace(T, constant=beta)
    return make_inclusion_instance(dim=2, maps=(T, T, T))


class TestFlipBandEdge:
    """T x = {-3x} is 0.5-demicontractive and not quasi-nonexpansive, so
    the averaging weights theta_n = beta_n must stay at or above 0.5.  The
    gate's condition (ii) asks them to lie strictly above it, and the run's
    chain audit first fails just below it."""

    @pytest.mark.parametrize("beta, passed", [(0.5, True), (0.4, False)])
    def test_the_declared_constant_is_audited(self, beta, passed):
        lines = [(label, res.passed) for label, res in
                 audit_instance(flipped(beta)) if label.startswith("T")]
        assert lines == [(f"T{i} (flip(3)) demicontractive", passed)
                         for i in (1, 2, 3)]

    @pytest.mark.parametrize("theta, admitted, violations", [
        (0.52, True, {"main": 0, "fc": 0}),
        (0.50, False, {"main": 0, "fc": 0}),
        (0.49, False, {"main": 30, "fc": 54})])
    def test_the_chain_fails_where_the_gate_refuses(self, theta, admitted,
                                                    violations):
        problem = flipped()
        schedule = dataclasses.replace(
            default_schedule_for(problem), theta=ParamSeq.constant(theta),
            beta=ParamSeq.constant(theta))
        refused = [c.name for c in validate(schedule, problem.params)
                   .failures()]
        assert refused == ([] if admitted else [
            f"condition (ii): {label}_n in (beta_demi, 1) with liminf "
            f"(1 - {label}_n)({label}_n - beta_demi) > 0"
            for label in ("theta", "beta")])
        for rule, count in violations.items():
            report = run(rule, problem, schedule, tol=1e-8, max_iter=3000,
                         check_schedule=False)
            assert report.terminated_by == "tolerance"
            assert report.fejer_violations == count
            assert report.bound_violations == 0


class TestCatalog:
    def test_ids(self):
        assert sorted(catalog()) == ["inclusion_ball", "inclusion_box",
                                     "sine_oscillation", "trivial_collapse"]

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load_instance("nonsense")

    def test_load_with_overrides(self):
        inst = load_instance("inclusion_box", dim=3, scale=0.25)
        assert inst.dim == 3
        img = inst.t1(np.ones(3))
        assert np.allclose(img.point, 0.25 * np.ones(3))

    @pytest.mark.parametrize("instance_id", sorted(catalog()))
    def test_every_instance_validates(self, instance_id):
        inst = load_instance(instance_id)
        report = validate(default_schedule_for(inst), inst.params)
        assert report.ok, report.summary()
        for q in inst.known_common_points:
            assert not inst.common_point_defects(q)


class TestInstanceGeometry:
    def test_box_solution_at_origin(self):
        inst = make_box_instance(dim=2)
        assert np.array_equal(inst.known_solution, np.zeros(2))
        assert inst.known_common_points

    def test_ball_solution_on_boundary(self):
        inst = make_ball_instance(dim=2)
        assert isinstance(inst.feasible, Ball)
        assert np.array_equal(inst.known_solution, np.zeros(2))
        # The origin lies exactly on the sphere around (1, 1).
        assert inst.feasible.contains(np.zeros(2))

    def test_trivial_has_three_audit_points(self):
        inst = make_trivial_instance()
        assert len(inst.known_common_points) == 3

    def test_oscillation_instance(self):
        inst = make_oscillation_instance()
        assert inst.dim == 1

    @pytest.mark.parametrize("instance_id", sorted(catalog()))
    def test_one_mapping_object_per_instance(self, instance_id):
        # check audits each mapping object once.
        inst = load_instance(instance_id)
        assert inst.t1 is inst.t2 is inst.t3

    @pytest.mark.parametrize("instance_id, certified", [
        ("inclusion_ball", 1), ("inclusion_box", 1),
        ("trivial_collapse", 3), ("sine_oscillation", 1)])
    def test_each_common_point_is_certified_once_per_build(
            self, monkeypatch, instance_id, certified):
        calls = []
        real = ProblemInstance.common_point_defects

        def counted(self, q):
            calls.append(q)
            return real(self, q)

        monkeypatch.setattr(ProblemInstance, "common_point_defects", counted)
        inst = load_instance(instance_id)
        assert len(calls) == certified
        assert len(inst.known_common_points) == certified

    def test_anchor_off_fixed_point_drops_common_points(self):
        inst = make_inclusion_instance(dim=1, anchor=np.array([5.0]))
        # Solution is P_[-1,1](5) = 1, which the halving maps do not fix.
        assert inst.known_solution[0] == 1.0
        assert inst.known_common_points == ()
        with pytest.raises(UncertifiedPointError, match="does not certify"):
            dataclasses.replace(inst, known_common_points=(np.ones(1),))

    def test_mapping_of_another_dimension_raises_at_construction(self):
        # Only a failed certification drops the common point; a mapping's
        # own fault propagates, naming the image.
        to_r3 = MultiMap(lambda x: Singleton(np.zeros(3)),
                         KIND_DEMICONTRACTIVE, 0.5,
                         fixed_points=(np.zeros(3),))
        with pytest.raises(DimensionMismatch,
                           match="^T1 image: expected dimension 2, got 3$"
                           ) as info:
            make_box_instance(dim=2, maps=(to_r3,) * 3)
        assert info.value.stage == "T1 image"

    def test_non_finite_image_raises_at_construction(self):
        nan = MultiMap(lambda x: Singleton(np.full(x.size, np.nan)),
                       KIND_DEMICONTRACTIVE, 0.5, fixed_points=(np.zeros(2),))
        with pytest.raises(NonFiniteError,
                           match="^non-finite T1 image$") as info:
            make_box_instance(dim=2, maps=(nan,) * 3)
        assert info.value.stage == "T1 image"

    def test_mapping_error_of_its_own_propagates(self):
        def image(x):
            raise ValueError("no image here")

        broken = MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                          fixed_points=(np.zeros(1),))
        with pytest.raises(ValueError, match="^no image here$"):
            make_box_instance(dim=1, maps=(broken,) * 3)

    def test_selection_rule_override(self):
        inst = make_box_instance(dim=1, selection=SelectionRule.FIRST_ENUMERATED)
        assert inst.selection is SelectionRule.FIRST_ENUMERATED

    def test_selection_rule_by_name(self):
        inst = make_box_instance(dim=1, selection="first_enumerated")
        assert inst.selection is SelectionRule.FIRST_ENUMERATED

    def test_beta_demi(self):
        inst = make_box_instance(dim=1, beta=0.7)
        assert inst.params.beta_demi == 0.7
        assert make_trivial_instance().params.beta_demi == 0.0


class TestSchedulesForInstances:
    def test_nonzero_contraction_shrinks_mu(self):
        plain = make_box_instance(dim=1)
        pushed = make_box_instance(dim=1, phi_coef=0.3,
                                   phi_offset=np.array([0.1]))
        assert pushed.params.b == 0.3
        mu_plain = default_schedule_for(plain).mu_bar
        mu_pushed = default_schedule_for(pushed).mu_bar
        assert mu_pushed < mu_plain

    def test_nan_ism_modulus_counts_as_undeclared(self):
        # A nan modulus is refused where it is declared; an undeclared or
        # zero one where the problem is built, naming the operator.
        inst = make_box_instance(dim=1)
        with pytest.raises(ValueError, match="inverse_strong_monotonicity "
                           "must be None or a finite real number >= 0"):
            dataclasses.replace(inst.forward,
                                inverse_strong_monotonicity=float("nan"))
        for ism in (None, 0.0):
            with pytest.raises(ValueError, match="^forward operator "
                               "'shifted_identity' has no positive "
                               "inverse_strong_monotonicity$"):
                dataclasses.replace(inst, forward=dataclasses.replace(
                    inst.forward, inverse_strong_monotonicity=ism))

    def test_strict_paper_passthrough(self):
        inst = make_box_instance(dim=1)
        sched = default_schedule_for(inst, strict_paper=True)
        assert sched.strict_paper
        assert sched.alpha.divergent_sum is False


class TestGridPoints:
    def test_one_dimensional_grid(self):
        g = grid_points(-10, 10, 1000, 1)
        assert g.shape == (1000, 1)
        assert g[0, 0] == -10.0
        assert g[-1, 0] == 10.0
        assert not np.any(g == 0.0)  # even count straddles zero

    def test_two_dimensional_grid(self):
        g = grid_points(-10, 10, 1000, 2)
        assert g.shape == (1000, 2)
        assert np.all(g >= -10) and np.all(g <= 10)
        # Rows are distinct lattice points.
        assert len({tuple(row) for row in g}) == 1000

    def test_count_validation(self):
        with pytest.raises(ValueError):
            grid_points(0, 1, 0, 1)


class TestConstantsFromOperators:
    """k and L come from the strong operator and b from the contraction,
    floored at 1e-6, so a replaced operator brings its own constants."""

    @pytest.mark.parametrize("instance_id, overrides", [
        *((instance_id, {}) for instance_id in sorted(catalog())),
        ("inclusion_box", {"phi_coef": 0.3, "gamma": 0.5, "eta": 0.8}),
        ("inclusion_ball", {"phi_offset": np.ones(2)}),
        ("inclusion_box", {"phi_coef": 1e-9, "gamma": 0.1})])
    def test_params_are_the_builders_constants(self, instance_id, overrides):
        inst = load_instance(instance_id, **overrides)
        gamma, eta = overrides.get("gamma", 0.25), overrides.get("eta", 1.0)
        b = max(abs(overrides.get("phi_coef", 0.0)), 1e-6)
        beta_demi = 0.0 if instance_id == "trivial_collapse" else 0.5
        assert inst.params == ViscosityParams(gamma, eta, 1.0, 1.0, b,
                                              beta_demi, 1.0)
        assert (inst.gamma, inst.eta) == (gamma, eta)

    @pytest.mark.parametrize("instance_id, part, op, condition", [
        ("trivial_collapse", "contraction", affine_op(3.0),
         "0 < gamma*b < tau"),
        ("inclusion_box", "strong", affine_op(5.0), "0 < eta < 2k/L^2")])
    def test_a_replaced_operator_is_judged_by_its_own_constants(
            self, instance_id, part, op, condition):
        inst = load_instance(instance_id)
        replaced = dataclasses.replace(inst, **{part: op})
        assert replaced.params == dataclasses.replace(
            inst.params, **({"b": 3.0} if part == "contraction"
                            else {"k": 5.0, "L": 5.0}))
        with pytest.raises(InfeasibleScheduleError,
                           match=re.escape(condition)):
            default_schedule_for(replaced)
        with pytest.raises(ScheduleValidationError,
                           match=re.escape(condition)):
            run("main", replaced, default_schedule_for(inst), max_iter=5)

    @pytest.mark.parametrize("part, op, message", [
        ("strong", zero_op(), "strong operator 'zero' has no "
         "strong_monotonicity"),
        ("strong", SingleOp(lambda x: x, strong_monotonicity=1.0,
                            name="bare"), "strong operator 'bare' has no "
         "lipschitz"),
        ("contraction", SingleOp(lambda x: 0.5 * x, name="halving"),
         "contraction operator 'halving' has no lipschitz")])
    def test_an_undeclared_constant_is_refused_by_name(self, part, op,
                                                       message):
        inst = make_box_instance(dim=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(inst, **{part: op})


def negating_map(k=0.6):
    """T x = {-4x}: ||Tx - Ty||^2 = 16 d^2 <= d^2 + k * 25 d^2 exactly for
    k >= 0.6, so it is 0.6-strictly pseudocontractive with Fix T = {0}."""
    return MultiMap(kind=KIND_STRICTLY_PSEUDOCONTRACTIVE, constant=k,
                    fixed_points=(np.zeros(1),), points=lambda x: -4.0 * x)


class TestDeclaredConstantsAreJudged:
    """beta_demi and alpha_ism come from the declarations of the mappings
    and the forward operator, and each declaration is checked where it is
    made."""

    def test_strictly_pseudocontractive_constant_bounds_the_weights(self):
        # A k-strictly pseudocontractive map with a fixed point is
        # k-demicontractive, so theta_n = beta_n = (1 + 0.6)/2.
        problem = make_box_instance(dim=1, maps=(negating_map(),) * 3)
        assert problem.params.beta_demi == 0.6
        schedule = default_schedule_for(problem)
        assert schedule.theta(1) == schedule.beta(1) == 0.8
        for algorithm in ("main", "sow", "fc"):
            report = run(algorithm, problem, schedule, max_iter=2000)
            assert report.terminated_by == "tolerance", algorithm
            assert report.fejer_violations == 0, algorithm
            assert report.bound_violations == 0, algorithm

    def test_largest_constant_of_either_kind_is_taken(self):
        maps = (scaling_map(0.5, 1, beta=0.7), negating_map(), identity_map(1))
        assert make_box_instance(dim=1, maps=maps).params.beta_demi == 0.7
        maps = (scaling_map(0.5, 1, beta=0.3), negating_map(), identity_map(1))
        assert make_box_instance(dim=1, maps=maps).params.beta_demi == 0.6

    def test_strictly_pseudocontractive_constant_one_is_refused(self):
        with pytest.raises(InfeasibleScheduleError,
                           match=re.escape("beta_demi = 1.0 must lie in "
                                           "[0, 1)")):
            make_box_instance(dim=1, maps=(negating_map(1.0),) * 3)

    def test_forward_operator_without_ism_modulus_is_refused(self):
        box = load_instance("inclusion_box")
        anchor = np.zeros(1)
        steep = SingleOp(lambda x: 5.0 * (x - anchor), lipschitz=5.0,
                         name="steep", rowwise=True)
        with pytest.raises(ValueError, match="^forward operator 'steep' has "
                           "no positive inverse_strong_monotonicity$"):
            dataclasses.replace(box, forward=steep)

    def test_negative_lipschitz_constant_is_refused(self):
        with pytest.raises(ValueError, match="^operator 'tripling': "
                           "lipschitz must be None or a finite real number "
                           ">= 0, got -3.0$"):
            SingleOp(lambda x: 3.0 * x, lipschitz=-3.0, name="tripling",
                     rowwise=True)


class TestZeroContraction:
    def test_zero_map_declares_tiny_lipschitz(self):
        inst = make_box_instance(dim=1)
        assert inst.params.b == 1e-6
        assert np.array_equal(inst.contraction(np.array([3.0])),
                              np.zeros(1))

    def test_distance_to_image_zero_at_fixed_point(self):
        inst = make_box_instance(dim=1)
        assert distance_to_set(np.zeros(1), inst.t1(np.zeros(1))) == 0.0
