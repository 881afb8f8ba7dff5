import dataclasses
import warnings

import numpy as np
import pytest

import viscosplit.hilbert as hilbert
import viscosplit.solvers as solvers
from viscosplit.hilbert import Box, NonFiniteError, WholeSpace, norm
from viscosplit.monotone import MaxMonotone, SingleOp, ZeroOperator, zero_op
from viscosplit.problems import (make_box_instance, make_inclusion_instance,
                                 make_trivial_instance, default_schedule_for)
from viscosplit.schedules import ParamSeq, Schedule
from viscosplit.setvalued import BallImage, MultiMap, Singleton
from viscosplit.solvers import ALGORITHMS
from viscosplit.solvers import (IterState, ScheduleValidationError,
                                audit_bounded, audit_fejer_chain,
                                boundedness_radius, initial_state, run,
                                step_fc, step_forward_backward, step_main,
                                step_sow, vi_residual)


def hand_setup():
    """1-D setting with every quantity a short dyadic fraction.

    Zero forward operator and inclusion, halving mappings, zero contraction,
    identity strong operator; all coefficients constant: alpha = 1/2,
    theta = beta = 3/4, gamma = 1/2, mu = 2/5, lam = 1/2.
    """
    prob = make_inclusion_instance(dim=1, feasible=WholeSpace(), scale=0.5)
    prob = dataclasses.replace(prob, forward=zero_op(),
                               inclusion=ZeroOperator(),
                               known_solution=np.zeros(1),
                               known_common_points=(np.zeros(1),))
    sched = Schedule(alpha=ParamSeq.constant(0.5),
                     theta=ParamSeq.constant(0.75),
                     beta=ParamSeq.constant(0.75),
                     gamma=ParamSeq.constant(0.5),
                     mu=ParamSeq.constant(0.4),
                     lam=ParamSeq.constant(0.5),
                     beta_demi=0.5, alpha_ism=1.0, interval=(0.5, 0.5),
                     mu_bar=0.4)
    state0 = initial_state(prob, sched, np.array([1.0]))
    return prob, sched, state0


class TestHandSteps:
    def test_stage_points(self):
        prob, sched, s0 = hand_setup()
        s1 = step_main(prob, sched, s0)
        assert s1.delta[0] == 1.0
        assert s1.pi[0] == 0.875
        assert s1.phi[0] == 0.765625
        assert s1.xi[0] == 0.57421875

    def test_main_update(self):
        prob, sched, s0 = hand_setup()
        assert step_main(prob, sched, s0).psi[0] == 0.5296875

    def test_sow_update_carries_pi(self):
        prob, sched, s0 = hand_setup()
        s1 = step_sow(prob, sched, s0)
        assert s1.psi[0] == 0.4375  # (1 - 0.5) * 0.875
        assert s1.xi[0] == s1.phi[0]  # xi mirrors the last averaged point
        assert np.isnan(s1.mu)

    def test_sow_update_phi_switch(self):
        prob, sched, s0 = hand_setup()
        s1 = step_sow(prob, sched, s0, use_phi=True)
        assert s1.psi[0] == 0.3828125  # (1 - 0.5) * 0.765625

    def test_fc_update(self):
        prob, sched, s0 = hand_setup()
        assert step_fc(prob, sched, s0).psi[0] == 0.287109375

    def test_forward_backward_mirrors_stages(self):
        prob, sched, s0 = hand_setup()
        s1 = step_forward_backward(prob, sched, s0)
        assert s1.psi[0] == 1.0  # zero operators leave the point alone
        assert s1.delta[0] == s1.pi[0] == s1.phi[0] == s1.xi[0] == 1.0

    def test_residuals_at_stage_points(self):
        prob, sched, s0 = hand_setup()
        s1 = step_main(prob, sched, s0)
        assert s1.residual_t1 == 0.5          # d(1, {1/2})
        assert s1.residual_t2 == 0.4375       # d(0.875, {0.4375})
        assert s1.residual_t3 == 0.3828125    # d(0.765625, ...)
        assert s1.fb_residual == 0.0          # zero splitting part
        assert s1.dist_to_solution == 0.5296875

    def test_chain_holds_on_hand_step(self):
        prob, sched, s0 = hand_setup()
        s1 = step_main(prob, sched, s0)
        audit = audit_fejer_chain(s1, np.zeros(1))
        assert audit.ok
        names = [link[0] for link in audit.links]
        assert names == ["xi_le_phi", "phi_le_pi", "pi_le_delta",
                         "delta_le_psi"]


class TestInitialState:
    def test_start_is_projected(self):
        prob = make_box_instance(dim=2)
        sched = default_schedule_for(prob)
        s0 = initial_state(prob, sched, np.array([5.0, -5.0]))
        assert np.array_equal(s0.psi, np.array([1.0, -1.0]))
        assert s0.n == 0
        assert np.isnan(s0.alpha)

    def test_mirrored_stages(self):
        prob = make_box_instance(dim=1)
        sched = default_schedule_for(prob)
        s0 = initial_state(prob, sched, np.array([0.8]))
        assert s0.delta[0] == s0.pi[0] == s0.phi[0] == s0.xi[0] == 0.8
        assert s0.residual_t1 == pytest.approx(0.4)

    def test_carried_point_is_reused_only_by_its_problem(self):
        a = make_inclusion_instance(dim=1)
        b = make_inclusion_instance(dim=1, anchor=[0.4])
        sched = default_schedule_for(a)
        x = np.array([0.8])
        s1 = step_main(b, sched, initial_state(a, sched, x))
        assert s1.delta[0] == pytest.approx(0.6)  # 0.8 - 0.5 * (0.8 - 0.4)
        own = step_main(b, sched, initial_state(b, sched, x))
        assert np.array_equal(s1.psi, own.psi)


class TestRun:
    def test_box_converges_by_tolerance(self):
        prob = make_box_instance(dim=2)
        report = run("main", prob, default_schedule_for(prob))
        assert report.terminated_by == "tolerance"
        assert norm(report.final) <= 1e-6
        assert report.fejer_violations == 0
        assert report.bound_violations == 0
        assert report.audit_points == 1
        assert report.diverged_at is None

    def test_zero_max_iter_returns_start(self):
        prob = make_box_instance(dim=1)
        report = run("main", prob, default_schedule_for(prob), max_iter=0)
        assert report.terminated_by == "max_iter"
        assert report.iterations == 0
        assert len(report.trajectory) == 1

    def test_unknown_algorithm_rejected(self):
        prob = make_box_instance(dim=1)
        with pytest.raises(ValueError):
            run("secant", prob, default_schedule_for(prob))

    @pytest.mark.parametrize("kwargs", [
        {"record_stride": 0}, {"record_stride": -3}, {"record_stride": 2.0},
        {"record_stride": True}, {"tol": float("nan")}, {"tol": 0.0},
        {"tol": float("inf")},
        {"max_iter": 2.5}, {"max_iter": -1}, {"max_iter": True},
        {"sow_use_phi": True}],
        ids=repr)
    def test_unusable_arguments_rejected_up_front(self, kwargs):
        prob = make_trivial_instance()
        with pytest.raises(ValueError):
            run("main", prob, default_schedule_for(prob), **kwargs)

    def test_sow_use_phi_must_be_a_bool(self):
        prob = make_trivial_instance()
        with pytest.raises(ValueError, match="sow_use_phi"):
            run("sow", prob, default_schedule_for(prob), sow_use_phi=1)

    def test_no_certifiable_common_point_rejected(self):
        # 0.5 is not fixed by the halving maps; its defects are reported.
        prob = dataclasses.replace(make_box_instance(dim=1),
                                   known_common_points=(np.array([0.5]),))
        with pytest.raises(ValueError, match=r"no declared common point "
                           r"certifies; first defect list: .*T1"):
            run("main", prob, default_schedule_for(prob))

    def test_numpy_integer_counts_accepted(self):
        prob = make_trivial_instance()
        report = run("main", prob, default_schedule_for(prob),
                     max_iter=np.int64(4), record_stride=np.int32(2))
        assert [s.n for s in report.trajectory] == [0, 2, 4]

    def test_bad_schedule_rejected_unless_disabled(self):
        prob = make_box_instance(dim=1)
        sched = default_schedule_for(prob)
        bad = dataclasses.replace(sched, gamma=ParamSeq.approaching_one())
        with pytest.raises(ScheduleValidationError):
            run("main", prob, bad)
        report = run("main", prob, bad, check_schedule=False, max_iter=5)
        assert report.iterations == 5

    def test_divergence_guard_on_expanding_map(self):
        # The declared class is a lie: T doubles, so the chain breaks and
        # the iterates blow up past the guard.
        dim = 1
        doubling = MultiMap(lambda x: Singleton(2.0 * x), "demicontractive",
                            0.5, fixed_points=(np.zeros(dim),))
        prob = make_inclusion_instance(
            dim=dim, feasible=WholeSpace(),
            maps=(doubling, doubling, doubling), name="runaway")
        prob = dataclasses.replace(prob, forward=zero_op(),
                                   inclusion=ZeroOperator(),
                                   known_common_points=(np.zeros(dim),))
        report = run("main", prob, default_schedule_for(prob),
                     psi0=np.array([1.0]), max_iter=10_000)
        assert report.terminated_by == "divergence_guard"
        assert report.fejer_violations > 0
        assert report.diverged_at == "norm limit"

    @pytest.mark.parametrize("algorithm, part, value", [
        pytest.param(algorithm, part, value, id=f"{part}-{algorithm}{suffix}")
        for part, algorithms in (("forward", ALGORITHMS), ("t1", ALGORITHMS),
                                 ("t2", ALGORITHMS), ("t3", ALGORITHMS),
                                 ("strong", ("main", "sow", "fc")),
                                 ("contraction", ("main", "sow", "fc")),
                                 ("inclusion", ALGORITHMS))
        for algorithm in algorithms
        for value, suffix in ((np.inf, ""), (np.nan, "-nan"))])
    def test_non_finite_value_mid_run_ends_in_divergence_guard(
            self, algorithm, part, value):
        # The operator, the map's image or the resolvent returns inf or nan
        # on 0 < |x| < 0.1 (a resolvent value below 0.01): not at the
        # common point 0 nor at the start 0.9, but on the way.
        def turning(fn):
            return lambda x: fn(value * x if 0 < abs(x[0]) < 0.1 else x)

        prob = make_box_instance(dim=1)
        if part == "contraction":
            # The box instance's contraction is identically zero, so the
            # injected operator returns the value itself.
            prob = dataclasses.replace(prob, contraction=SingleOp(
                lambda x: value * x if 0 < abs(x[0]) < 0.1 else np.zeros_like(x)))
        elif part == "inclusion":
            box = prob.inclusion

            class Turning(MaxMonotone):
                def resolvent(self, lam, x):
                    out = box.resolvent(lam, x)
                    return value * out if 0 < abs(out[0]) < 0.01 else out
            prob = dataclasses.replace(prob, inclusion=Turning())
        else:
            holder = getattr(prob, part)
            field = "apply" if part in ("forward", "strong") else "image"
            prob = dataclasses.replace(prob, **{part: dataclasses.replace(
                holder, **{field: turning(getattr(holder, field))})})
        report = run(algorithm, prob, default_schedule_for(prob),
                     max_iter=1000)
        assert report.terminated_by == "divergence_guard"
        assert report.iterations >= 1
        assert report.diverged_at == {
            "forward": "forward operator", "t1": "T1 image",
            "t2": "T2 image", "t3": "T3 image", "strong": "strong operator",
            "contraction": "contraction", "inclusion": "delta"}[part]

    @pytest.mark.parametrize("part, stage", [
        ("t1", "T1 image"), ("t2", "T2 image"), ("t3", "T3 image"),
        ("psi0", "psi")])
    def test_start_state_that_cannot_be_built_names_its_stage(
            self, part, stage):
        # The map's image is inf on |x| > 0.5, so at the start 0.9 but not
        # at the common point 0; psi0 is nan itself.
        prob = make_box_instance(dim=1)
        psi0 = None
        if part == "psi0":
            psi0 = np.array([np.nan])
        else:
            t = getattr(prob, part)
            prob = dataclasses.replace(prob, **{part: dataclasses.replace(
                t, image=lambda x: t.image(np.inf * x if abs(x[0]) > 0.5
                                           else x))})
        with pytest.raises(NonFiniteError) as err:
            run("main", prob, default_schedule_for(prob), psi0=psi0,
                max_iter=10)
        assert err.value.stage == stage

    def test_map_rejecting_a_non_finite_argument_still_names_delta(self):
        # The resolvent's value is not scanned before T1 takes it; T1 may
        # then fail in its own way, and the step still names delta.  The
        # start state is built for another problem, so the step forms its
        # own delta instead of the carried one.
        prob = make_box_instance(dim=1)
        sched = default_schedule_for(prob)
        box, t1 = prob.inclusion, prob.t1

        class Turning(MaxMonotone):
            def resolvent(self, lam, x):
                out = box.resolvent(lam, x)
                return np.inf * out if 0 < abs(out[0]) < 0.01 else out

        def strict(x):
            if not np.isfinite(x).all():
                raise ZeroDivisionError("T1 takes finite points only")
            return t1.image(x)

        turned = dataclasses.replace(prob, inclusion=Turning(),
                                     t1=dataclasses.replace(t1, image=strict))
        state = initial_state(prob, sched, np.array([0.005]))
        with pytest.raises(NonFiniteError) as err:
            step_main(turned, sched, state)
        assert err.value.stage == "delta"

    def test_warning_raised_as_error_still_names_the_stage(self):
        # Contraction and strong operator both turn to +inf, so the
        # unscanned anchor target meets inf - inf and warns; as an error,
        # that warning fails the step, and the replay names the first.
        def turning(inside):
            return lambda x: (np.full_like(x, np.inf)
                              if 0 < abs(x[0]) < 0.1 else inside(x))

        prob = make_box_instance(dim=1)
        prob = dataclasses.replace(
            prob, contraction=SingleOp(turning(np.zeros_like)),
            strong=dataclasses.replace(prob.strong,
                                       apply=turning(lambda x: x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run("main", prob, default_schedule_for(prob),
                         max_iter=1000)
        assert report.diverged_at == "contraction"

    @pytest.mark.parametrize("weight, stage", [
        ("theta", "pi"), ("beta", "phi_p"), ("gamma", "xi"), ("alpha", "psi")])
    def test_overflowing_line_names_its_stage(self, weight, stage):
        # An unvalidated weight of 1e308 overflows its line at |psi| = 10.
        prob = make_trivial_instance()
        sched = dataclasses.replace(default_schedule_for(prob),
                                    **{weight: ParamSeq.constant(1e308)})
        with np.errstate(over="ignore", invalid="ignore"):
            report = run("main", prob, sched, psi0=np.array([10.0]),
                         check_schedule=False, max_iter=5)
        assert report.terminated_by == "divergence_guard"
        assert report.diverged_at == stage

    def test_record_stride_override(self):
        prob = make_trivial_instance()
        report = run("main", prob, default_schedule_for(prob), max_iter=10,
                     record_stride=5)
        assert [s.n for s in report.trajectory] == [0, 5, 10]

    def test_default_recording_thins_after_ten_thousand(self):
        prob = make_trivial_instance()
        report = run("main", prob, default_schedule_for(prob),
                     max_iter=10_250)
        ns = [s.n for s in report.trajectory]
        assert ns[:3] == [0, 1, 2]
        late = [n for n in ns if n > 10_000]
        assert late == [10_100, 10_200, 10_250]

    def test_trajectory_always_includes_final_state(self):
        prob = make_trivial_instance()
        report = run("main", prob, default_schedule_for(prob), max_iter=7,
                     record_stride=5)
        assert report.trajectory[-1].n == 7


def test_main_step_scans_few_values(monkeypatch):
    # One scan each for the forward operator's value, the three images and
    # the anchor target; the fully checked step makes 10.
    prob = make_trivial_instance()
    sched = default_schedule_for(prob)
    state = step_main(prob, sched, initial_state(prob, sched, np.ones(1)))
    scans = [0]
    real = hilbert.all_finite

    def counting(v):
        scans[0] += 1
        return real(v)

    monkeypatch.setattr(hilbert, "all_finite", counting)
    monkeypatch.setattr(solvers, "all_finite", counting)
    step_main(prob, sched, state)
    assert 0 < scans[0] <= 5


class TestAudits:
    def test_boundedness_radius_formula(self):
        prob = make_trivial_instance()
        sched = default_schedule_for(prob)
        q = np.zeros(1)
        radius = boundedness_radius(prob, sched.mu_bar, np.array([3.0]), q)
        # phi(q) = 0 and Strong(q) = 0 at q = 0, so the radius is ||psi0||.
        assert radius == 3.0

    def test_boundedness_radius_drift_term(self):
        prob = make_trivial_instance()
        sched = default_schedule_for(prob)
        q = np.ones(1)
        p = prob.params
        margin = p.tau * (1.0 - sched.mu_bar) - p.gamma * p.b
        expected = max(0.0, p.eta * 1.0 / margin)  # ||0 - eta*q|| / margin
        radius = boundedness_radius(prob, sched.mu_bar, np.ones(1), q)
        assert radius == pytest.approx(expected)

    def test_audit_bounded_on_report(self):
        prob = make_box_instance(dim=2)
        report = run("main", prob, default_schedule_for(prob))
        audit = audit_bounded(report, np.zeros(2))
        assert audit.ok
        assert audit.checked == len(report.trajectory)

    def test_vi_residual_frozen_value(self):
        prob = make_trivial_instance()
        # eta*Strong(psi) - gamma*phi(psi) = psi; <psi, psi - 0> = 0.25.
        assert vi_residual(prob, np.array([0.5]),
                           probes=(np.zeros(1),)) == 0.25

    def test_vi_residual_zero_at_solution(self):
        prob = make_trivial_instance()
        val = vi_residual(prob, np.zeros(1),
                          probes=(np.ones(1), -np.ones(1)))
        assert val == 0.0

    def test_vi_residual_rejects_uncertified_probe(self):
        prob = make_box_instance(dim=1)
        with pytest.raises(ValueError):
            vi_residual(prob, np.zeros(1), probes=(np.array([0.3]),))

    def test_vi_residual_nan_without_probes(self):
        prob = make_box_instance(dim=1)
        prob = dataclasses.replace(prob, known_common_points=())
        assert np.isnan(vi_residual(prob, np.zeros(1)))

    def test_chain_audit_distances_equal_norm_at_large_dimension(self):
        rng = np.random.default_rng(3)
        psi_prev, delta, pi, phi, xi, q = rng.standard_normal((6, 1000))
        state = IterState(n=1, psi=xi, psi_prev=psi_prev, delta=delta, pi=pi,
                          phi=phi, xi=xi, residual_t1=0.0, residual_t2=0.0,
                          residual_t3=0.0, fb_residual=0.0,
                          dist_to_solution=0.0, alpha=0.5, mu=0.5, lam=0.5)
        links = audit_fejer_chain(state, q).links
        dists = [np.linalg.norm(p - q) for p in (xi, phi, pi, delta, psi_prev)]
        assert [(lhs, rhs) for _, lhs, rhs, _ in links] == list(
            zip(dists[:-1], dists[1:]))

    def test_fejer_flag_set_on_states(self):
        prob = make_box_instance(dim=1)
        report = run("main", prob, default_schedule_for(prob), max_iter=20)
        assert all(s.fejer_ok for s in report.trajectory)


class TestCommonPointCertification:
    def test_box_solution_certifies(self):
        prob = make_box_instance(dim=2)
        assert prob.certify_common_point(np.zeros(2))
        assert prob.known_common_points  # builder attached it

    def test_noncommon_point_reports_defects(self):
        prob = make_box_instance(dim=1)
        defects = prob.common_point_defects(np.array([0.5]))
        assert defects
        assert any("T1" in d for d in defects)

    def test_strictness_flag(self):
        ringy = MultiMap(
            lambda x: Singleton(0.5 * x) if norm(x) > 0 else BallImage(x, 1.0),
            "demicontractive", 0.5, fixed_points=(np.zeros(1),))
        prob = make_inclusion_instance(dim=1, feasible=WholeSpace(),
                                       maps=(ringy, ringy, ringy))
        prob = dataclasses.replace(prob, forward=zero_op(),
                                   inclusion=ZeroOperator())
        q = np.zeros(1)
        assert not prob.certify_common_point(q)
        relaxed = dataclasses.replace(prob, strict_fixed_points=False)
        assert relaxed.certify_common_point(q)
