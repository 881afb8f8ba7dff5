import dataclasses
import functools
import warnings

import numpy as np
import pytest

import viscosplit.hilbert as hilbert
import viscosplit.solvers as solvers
from viscosplit.hilbert import (Box, DimensionMismatch, NonFiniteError,
                                WholeSpace, norm)
from viscosplit.monotone import (MaxMonotone, SingleOp, ZeroOperator,
                                 affine_op, zero_op)
from viscosplit.problems import (catalog, load_instance, make_box_instance,
                                 make_inclusion_instance,
                                 make_trivial_instance, default_schedule_for)
from viscosplit.schedules import ParamSeq, Schedule, validate
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, BallImage, MultiMap,
                                  Singleton, check_quasi_nonexpansive)
from viscosplit.solvers import ALGORITHMS
from viscosplit.solvers import (CERTIFY_TOL, IterState,
                                ScheduleValidationError, audit_fejer_chain,
                                boundedness_radius, initial_state,
                                require_admissible, run,
                                step_fc, step_forward_backward, step_main,
                                step_sow, vi_residual)

from restage import restaged


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
                     interval=(0.5, 0.5), mu_bar=0.4)
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
        assert all(link[3] for link in audit.links)
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
        {"tol": True}, {"tol": "1e-8"}, {"tol": None},
        {"max_iter": 2.5}, {"max_iter": -1}, {"max_iter": True}],
        ids=repr)
    def test_unusable_arguments_rejected_up_front(self, kwargs):
        prob = make_trivial_instance()
        with pytest.raises(ValueError):
            run("main", prob, default_schedule_for(prob), **kwargs)


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
            prob = dataclasses.replace(prob, contraction=dataclasses.replace(
                prob.contraction, apply=lambda x: (
                    value * x if 0 < abs(x[0]) < 0.1 else np.zeros_like(x))))
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
        # that warning fails the step, which names the first.
        def turning(inside):
            return lambda x: (np.full_like(x, np.inf)
                              if 0 < abs(x[0]) < 0.1 else inside(x))

        prob = make_box_instance(dim=1)
        prob = dataclasses.replace(
            prob, contraction=dataclasses.replace(
                prob.contraction, apply=turning(np.zeros_like)),
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

    def test_a_value_non_finite_once_ends_the_run(self):
        # T1's fifth image, counting the one that certifies the common
        # point, is inf: the image of the step to n = 3.  Taken again,
        # T1 would be finite there.
        prob = make_box_instance(dim=1)
        t1, calls = prob.t1, [0]

        def fifth(x):
            calls[0] += 1
            return Singleton([np.inf]) if calls[0] == 5 else t1.image(x)

        prob = dataclasses.replace(prob,
                                   t1=dataclasses.replace(t1, image=fifth))
        report = run("main", prob, default_schedule_for(prob))
        assert report.terminated_by == "divergence_guard"
        assert report.diverged_at == "T1 image"
        assert report.iterations == 2

    @pytest.mark.parametrize("bad, n", [((65, 66), 62), ((66, 67), 63),
                                        ((67, 68), 64)])
    def test_a_failure_on_two_calls_in_a_row_ends_the_run(self, bad, n):
        # T1's images number ``bad`` are inf.  With (66, 67) the first fails
        # the step from n = 63, right after the first audit block released
        # that state, and the second fails the repeated step that would
        # make it whole again: the run ends all the same, with the state as
        # it was.  Either neighbour fails no repeated step.
        prob = load_instance("sine_oscillation")
        t1, calls = prob.t1, [0]

        def twice(x):
            calls[0] += 1
            return Singleton([np.inf]) if calls[0] in bad else t1.image(x)

        failing = dataclasses.replace(
            prob, t1=dataclasses.replace(t1, image=twice))
        schedule = default_schedule_for(prob)
        report = run("forward_backward", failing, schedule)
        assert (report.terminated_by, report.diverged_at) == (
            "divergence_guard", "T1 image")
        assert report.iterations == n
        final = report.trajectory[-1]
        assert (final.xi is solvers.RELEASED) == (bad == (66, 67))
        assert final.fejer_ok is True
        state = initial_state(prob, schedule, prob.default_start)
        while state.n < n:
            state = step_forward_backward(prob, schedule, state)
        assert final.psi.tobytes() == state.psi.tobytes()
        assert final.psi_prev.tobytes() == state.psi_prev.tobytes()

    def test_a_failing_step_takes_its_image_once(self):
        # T1 is inf on 0 < |x| < 0.1, so the one point it meets there is
        # the failing step's, and the step is named from that one image.
        prob = make_box_instance(dim=1)
        t1, met = prob.t1, []

        def band(x):
            if 0 < abs(x[0]) < 0.1:
                met.append(x.copy())
                return Singleton(np.inf * x)
            return t1.image(x)

        prob = dataclasses.replace(prob,
                                   t1=dataclasses.replace(t1, image=band))
        report = run("main", prob, default_schedule_for(prob))
        assert report.diverged_at == "T1 image"
        assert len(met) == 1

    @pytest.mark.parametrize("part, stage", [
        ("forward", "forward operator"), ("inclusion", "delta")])
    def test_failure_at_a_steps_own_delta_names_its_stage(self, part,
                                                          stage):
        # With a varying step a step forms its own delta: the state carries
        # the forward-backward point made at its own step.  The forward
        # operator turns inf at its third call of the run, step 2's own
        # (step 1 takes the start's point), before any stage point exists;
        # the resolvent turns inf at a step below 0.411, which step 4's own
        # delta takes first.
        prob = make_box_instance(dim=1)
        sched = dataclasses.replace(
            default_schedule_for(prob), interval=(0.4, 0.45),
            lam=ParamSeq.custom(lambda n: 0.4 + 0.05 / (n + 1), limit=0.4))
        if part == "forward":
            forward, calls = prob.forward, [0]

            def apply(x):
                calls[0] += 1
                return np.inf * x if calls[0] >= 3 else forward.apply(x)

            prob = dataclasses.replace(prob, forward=dataclasses.replace(
                forward, apply=apply))
            calls[0] = 0  # the certification's calls
        else:
            box = prob.inclusion

            class Turning(MaxMonotone):
                def resolvent(self, lam, x):
                    out = box.resolvent(lam, x)
                    return np.inf * out if lam < 0.411 else out
            prob = dataclasses.replace(prob, inclusion=Turning())
        report = run("main", prob, sched, max_iter=100)
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
    # the anchor target; a step that scanned every value made 10.
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


def test_a_start_and_a_build_scan_few_values(monkeypatch):
    # The start scans psi0 where the box projects it, the one image of
    # T1 = T2 = T3 and the forward-backward point, but not the box's clip
    # or the point the image is taken at; the build scans each input and
    # certifies the common point, which is the known solution, once, with
    # the instance built once.  Both made more scans: 12 and 20 when
    # images went through MultiMap.__call__ and the instance was built
    # twice, 9 and 14 when the start scanned psi0 three times and took
    # one image per mapping, and the build scanned the known solution
    # apart from the common point.
    prob = load_instance("inclusion_box", dim=4)
    sched = default_schedule_for(prob)
    scans = [0]
    real = hilbert.all_finite

    def counting(v):
        scans[0] += 1
        return real(v)

    monkeypatch.setattr(hilbert, "all_finite", counting)
    monkeypatch.setattr(solvers, "all_finite", counting)
    initial_state(prob, sched, np.ones(4))
    assert 0 < scans[0] <= 5
    scans[0] = 0
    load_instance("inclusion_box", dim=4)
    assert 0 < scans[0] <= 11


@pytest.mark.parametrize("shared, images", [(True, 1), (False, 3)])
def test_a_forward_backward_step_takes_each_image_once(shared, images):
    # Its three stages measure T1, T2 and T3 at delta for their residuals
    # alone; when they are one mapping, its image is taken once.
    prob = load_instance("inclusion_box", dim=3)
    calls, t = [0], prob.t1

    def image(x):
        calls[0] += 1
        return t.image(x)

    maps = [dataclasses.replace(t, image=image) for _ in range(3)]
    if shared:
        maps = [maps[0]] * 3
    prob = dataclasses.replace(prob, t1=maps[0], t2=maps[1], t3=maps[2])
    sched = default_schedule_for(prob)
    state = initial_state(prob, sched, prob.default_start)
    calls[0] = 0
    new = step_forward_backward(prob, sched, state)
    assert calls[0] == images
    assert new.residual_t1 == new.residual_t2 == new.residual_t3 > 0
    assert new.residual_t1 == norm(new.delta - 0.5 * new.delta)


def test_a_common_point_is_scanned_once_where_it_enters(monkeypatch):
    # Each declared common point is coerced and scanned once, when it is
    # certified, and so is each probe of vi_residual; coercing first and
    # certifying after scanned each twice (15 and 24 scans per build, 11
    # for the probe).  A mapping that is the one before it is not taken
    # again at the point, and a known solution that is a common point is
    # not scanned apart from it (14 and 21 scans per build).
    scans = [0]
    real = hilbert.all_finite

    def counting(v):
        scans[0] += 1
        return real(v)

    monkeypatch.setattr(hilbert, "all_finite", counting)
    monkeypatch.setattr(solvers, "all_finite", counting)
    for instance_id, kwargs, most in (("inclusion_box", {"dim": 4}, 11),
                                      ("trivial_collapse", {}, 15)):
        scans[0] = 0
        load_instance(instance_id, **kwargs)
        assert 0 < scans[0] <= most
    prob = load_instance("trivial_collapse")
    scans[0] = 0
    vi_residual(prob, np.ones(1), probes=[np.zeros(1)])
    assert 0 < scans[0] <= 10


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

    def test_recorded_iterates_inside_radius(self):
        prob = make_box_instance(dim=2)
        sched = default_schedule_for(prob)
        report = run("main", prob, sched)
        q = np.zeros(2)
        radius = boundedness_radius(prob, sched.mu_bar,
                                    report.trajectory[0].psi, q)
        assert report.bound_violations == 0
        assert all(np.linalg.norm(st.psi - q) <= radius + CERTIFY_TOL
                   for st in restaged(report))

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
                          dist_to_solution=0.0, alpha=0.5, mu=0.5, lam=0.5,
                          psi_norm=float(np.linalg.norm(xi)))
        links = audit_fejer_chain(state, q).links
        dists = [np.linalg.norm(p - q) for p in (xi, phi, pi, delta, psi_prev)]
        assert [(lhs, rhs) for _, lhs, rhs, _ in links] == list(
            zip(dists[:-1], dists[1:]))

    @pytest.mark.parametrize("q", [[5.0], [0.0, 0.0, 0.0]],
                             ids=["shorter", "longer"])
    def test_chain_audit_rejects_a_point_of_another_dimension(self, q):
        prob = make_box_instance(dim=2)
        state = initial_state(prob, default_schedule_for(prob), np.ones(2))
        with pytest.raises(hilbert.DimensionMismatch):
            audit_fejer_chain(state, q)

    def test_fejer_flag_set_on_states(self):
        prob = make_box_instance(dim=1)
        report = run("main", prob, default_schedule_for(prob), max_iter=20)
        assert all(s.fejer_ok for s in report.trajectory)


class TestCommonPointCertification:
    def test_box_solution_certifies(self):
        prob = make_box_instance(dim=2)
        assert not prob.common_point_defects(np.zeros(2))
        assert prob.known_common_points  # builder attached it

    def test_uncertifiable_declared_point_rejected_at_construction(self):
        # 0.5 is not fixed by the halving maps; its defects are reported.
        with pytest.raises(ValueError, match=r"declared common point \[0.5\] "
                           r"does not certify: .*T1"):
            dataclasses.replace(make_box_instance(dim=1),
                                known_common_points=(np.array([0.5]),))

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
        defects = prob.common_point_defects(q)
        assert defects
        assert any("is not the singleton" in d for d in defects)


class TestScheduleGateJudgesTheProblem:
    """A schedule is judged with the constants of the problem it runs on,
    not only with the copies it carries."""

    def test_step_outside_the_problems_window_rejected(self):
        box = load_instance("inclusion_box", dim=1)
        schedule = default_schedule_for(box)
        assert schedule.lam(1) == 0.5
        # Forward 10 x is 0.1-inverse strongly monotone: window (0, 0.2).
        steep = dataclasses.replace(box, forward=affine_op(10.0))
        assert steep.params.alpha_ism == pytest.approx(0.1)
        with pytest.raises(ScheduleValidationError) as exc:
            run("main", steep, schedule)
        names = [c.name for c in exc.value.report.failures()]
        assert names == ["condition (ii): lambda_n in [a, b] within "
                         "(0, min(1, 2*alpha_ism))"]

    def test_weights_below_the_problems_demicontractivity_rejected(self):
        schedule = default_schedule_for(load_instance("inclusion_box", dim=1))
        assert schedule.theta(1) == schedule.beta(1) == 0.75
        tight = make_inclusion_instance(dim=1, beta=0.9)
        assert tight.params.beta_demi == 0.9
        with pytest.raises(ScheduleValidationError) as exc:
            require_admissible(schedule, tight)
        names = [c.name for c in exc.value.report.failures()]
        assert names == [
            f"condition (ii): {label}_n in (beta_demi, 1) with liminf "
            f"(1 - {label}_n)({label}_n - beta_demi) > 0"
            for label in ("theta", "beta")]

    @pytest.mark.parametrize("instance_id", sorted(catalog()))
    def test_every_default_schedule_passes_on_its_instance(self,
                                                           instance_id):
        problem = load_instance(instance_id)
        require_admissible(default_schedule_for(problem), problem)


def _varying_lam(n):
    return 0.4 + 0.1 / (n + 1)


class TestScheduleGateJudgesEveryCall:
    """require_admissible keeps no verdict: each call, and so each checked
    run, judges the schedule afresh."""

    @pytest.fixture(autouse=True)
    def counted(self, monkeypatch):
        """The reports :func:`validate` makes, in order."""
        reports = []
        real = solvers.validate

        def counting(schedule, params):
            reports.append(real(schedule, params))
            return reports[-1]

        monkeypatch.setattr(solvers, "validate", counting)
        return reports

    def test_refusal_raises_with_its_full_report_on_every_call(self,
                                                               counted):
        schedule = default_schedule_for(load_instance("inclusion_box", dim=1))
        tight = make_inclusion_instance(dim=1, beta=0.9)
        raised = []
        for _ in range(3):
            with pytest.raises(ScheduleValidationError) as exc:
                require_admissible(schedule, tight)
            raised.append(exc.value.report)
        assert len(counted) == 3
        assert raised == counted
        assert not raised[0].ok and len(raised[0].failures()) == 2
        assert len(raised[0].conditions) == len(
            validate(schedule, tight.params).conditions)

    def test_step_that_changes_after_an_admitted_run_is_refused(self,
                                                                counted):
        class Step:
            value = 0.5

            def __call__(self, n):
                return self.value

        box = load_instance("inclusion_box", dim=1)
        step = Step()
        schedule = dataclasses.replace(default_schedule_for(box),
                                       lam=ParamSeq.custom(step, limit=0.5))
        run("main", box, schedule, max_iter=3)
        step.value = 0.7
        with pytest.raises(ScheduleValidationError) as exc:
            run("main", box, schedule, max_iter=3)
        assert [c.name for c in exc.value.report.failures()] == [
            "condition (ii): lambda_n in [a, b] within "
            "(0, min(1, 2*alpha_ism))"]
        assert len(counted) == 2

    def test_unhashable_schedule_is_judged(self, counted):
        box = load_instance("inclusion_box", dim=1)
        listed = dataclasses.replace(default_schedule_for(box),
                                     interval=[0.5, 0.5])
        require_admissible(listed, box)
        run("main", box, listed, max_iter=3)
        narrow = dataclasses.replace(listed, interval=[0.6, 0.7])
        with pytest.raises(ScheduleValidationError):
            require_admissible(narrow, box)
        assert len(counted) == 3

    @pytest.mark.parametrize("interval, admitted", [
        ((0.4, 0.45), True), ((0.42, 0.45), False), ((0.4, 0.44), False)])
    def test_custom_step_gets_validates_verdict(self, counted, interval,
                                                admitted):
        box = load_instance("inclusion_box", dim=2)
        schedule = dataclasses.replace(
            default_schedule_for(box), interval=interval,
            lam=ParamSeq.custom(_varying_lam, limit=0.4))
        assert validate(schedule, box.params).ok is admitted
        try:
            require_admissible(schedule, box)
        except ScheduleValidationError as err:
            assert not admitted
            assert err.report == validate(schedule, box.params)
        else:
            assert admitted

    def test_unchecked_run_judges_nothing(self, counted):
        box = load_instance("inclusion_box", dim=1)
        bad = dataclasses.replace(default_schedule_for(box),
                                  interval=(0.6, 0.7))
        run("main", box, bad, check_schedule=False, max_iter=3)
        assert counted == []


class TestValueOfAnotherDimension:
    """A user's callable that returns a value of another dimension than the
    instance raises DimensionMismatch naming the stage, not numpy's
    broadcasting error."""

    def test_forward_operator_at_construction(self):
        with pytest.raises(DimensionMismatch,
                           match="^forward operator: ") as info:
            dataclasses.replace(load_instance("inclusion_box", dim=2),
                                forward=affine_op(1.0, np.zeros(3), 3))
        assert info.value.stage == "forward operator"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_image_that_turns_three_dimensional_mid_run(self, algorithm):
        # T1's image is a 3-vector on 0 < |x_0| < 0.1: not at the common
        # point 0 nor at the start 0.9, but on the way.
        def image(x):
            return Singleton(np.zeros(3) if 0 < abs(x[0]) < 0.1 else 0.5 * x)

        t1 = MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                      fixed_points=(np.zeros(2),))
        halving = make_box_instance(dim=2).t2
        prob = make_box_instance(dim=2, maps=(t1, halving, halving))
        assert prob.known_common_points
        with pytest.raises(DimensionMismatch,
                           match="^T1 image: expected dimension 2, got 3$"):
            run(algorithm, prob, default_schedule_for(prob), max_iter=1000)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_image_that_turns_one_dimensional_mid_run(self, algorithm):
        # A 1-vector image broadcasts against a 2-vector, so the first,
        # unchecked pass of a step must compare its size to reject it.
        def image(x):
            return Singleton(np.array([0.01]) if 0 < abs(x[0]) < 0.1
                             else x / 2)

        t = MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                     fixed_points=(np.zeros(2),))
        prob = make_box_instance(dim=2, maps=(t,) * 3)
        assert prob.known_common_points
        with pytest.raises(DimensionMismatch,
                           match="^T1 image: expected dimension 2, got 1$"
                           ) as info:
            run(algorithm, prob, default_schedule_for(prob), max_iter=200)
        assert info.value.stage == "T1 image"

    def test_start_of_another_dimension(self):
        prob = load_instance("inclusion_box", dim=2)
        with pytest.raises(DimensionMismatch,
                           match="^psi: expected dimension 2, got 3$"
                           ) as info:
            run("main", prob, default_schedule_for(prob), psi0=np.ones(3))
        assert info.value.stage == "psi"

    def test_start_of_another_dimension_on_the_whole_space(self):
        # Nothing projects the start, so the start state's own size check
        # rejects it.
        prob = load_instance("trivial_collapse")
        with pytest.raises(DimensionMismatch,
                           match="^psi: expected dimension 1, got 3$"
                           ) as info:
            run("main", prob, default_schedule_for(prob), psi0=np.ones(3))
        assert info.value.stage == "psi"

    #: The step of every rule that runs the anchor line.
    ANCHOR_STEPS = {"main": step_main, "sow": step_sow,
                    "sow_phi": functools.partial(step_sow, use_phi=True),
                    "fc": step_fc}

    def attempts(self, prob, algorithm):
        """A step from the start, a run, and the two functions that
        evaluate the anchor operators at a common point."""
        schedule = default_schedule_for(prob)
        start = initial_state(prob, schedule, prob.default_start)
        q = prob.known_common_points[0]
        return (lambda: self.ANCHOR_STEPS[algorithm](prob, schedule, start),
                lambda: run(algorithm, prob, schedule, max_iter=5),
                lambda: boundedness_radius(prob, schedule.mu_bar, q, q),
                lambda: vi_residual(prob, q))

    @pytest.mark.parametrize("algorithm", sorted(ANCHOR_STEPS))
    def test_strong_operator_value_of_another_dimension(self, algorithm):
        # A 1-vector broadcasts in psi - eta*alpha*Strong psi and in the
        # target, so the first pass compares its size with the problem's.
        mean = SingleOp(lambda x: np.array([x.sum() / 3]), lipschitz=1.0,
                        strong_monotonicity=1.0,
                        inverse_strong_monotonicity=1.0)
        prob = dataclasses.replace(load_instance("inclusion_box", dim=3),
                                   strong=mean)
        for attempt in self.attempts(prob, algorithm):
            with pytest.raises(
                    DimensionMismatch,
                    match="^strong operator: expected dimension 3, got 1$"
                    ) as info:
                attempt()
            assert info.value.stage == "strong operator"

    @pytest.mark.parametrize("algorithm", sorted(ANCHOR_STEPS))
    def test_contraction_value_of_another_dimension(self, algorithm):
        # The whole space projects nothing, so without the size compare a
        # 2-vector target would become the next iterate.
        doubled = SingleOp(lambda x: np.concatenate([x, x]), lipschitz=0.5)
        prob = dataclasses.replace(load_instance("trivial_collapse"),
                                   contraction=doubled)
        for attempt in self.attempts(prob, algorithm):
            with pytest.raises(
                    DimensionMismatch,
                    match="^contraction: expected dimension 1, got 2$"
                    ) as info:
                attempt()
            assert info.value.stage == "contraction"


class TestImageThatIsNotAnImage:
    """A mapping whose image is an array, not an image, raises one
    TypeError naming the type on every path that takes an image."""

    halving = MultiMap(lambda x: 0.5 * x, "quasi_nonexpansive",
                       fixed_points=(np.zeros(2),))

    def assert_named(self, attempt):
        with pytest.raises(TypeError,
                           match="^unknown image type ndarray$") as info:
            attempt()
        assert type(info.value) is TypeError

    def test_at_construction(self):
        self.assert_named(
            lambda: make_box_instance(dim=2, maps=(self.halving,) * 3))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_in_run(self, algorithm):
        prob = dataclasses.replace(make_box_instance(dim=2),
                                   t1=self.halving, known_common_points=())
        self.assert_named(lambda: run(algorithm, prob,
                                      default_schedule_for(prob), max_iter=5))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mid_run(self, algorithm):
        # An array on 0 < |x_0| < 0.1: not at the common point 0 nor at
        # the start, but on the way.
        def image(x):
            return 0.5 * x if 0 < abs(x[0]) < 0.1 else Singleton(0.5 * x)

        t1 = MultiMap(image, KIND_DEMICONTRACTIVE, 0.5,
                      fixed_points=(np.zeros(2),))
        halving = make_box_instance(dim=2).t2
        prob = make_box_instance(dim=2, maps=(t1, halving, halving))
        self.assert_named(lambda: run(algorithm, prob,
                                      default_schedule_for(prob),
                                      max_iter=1000))

    def test_in_its_audit(self):
        self.assert_named(
            lambda: check_quasi_nonexpansive(self.halving, [np.ones(2)]))
