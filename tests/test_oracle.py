"""Independent oracles for the four update rules and the per-iteration audits.

The oracle applies the update lines of PAPER.md as written, using only the
instance's own data: the forward operator, the feasible projection, the
map images, the contraction phi and the strong operator.  Every catalog
image is a singleton, so the selection is its point, and every catalog
inclusion is a normal cone (resolvent = projection onto its set) or zero
(resolvent = identity).  It shares no code with the solver's step.

The audit oracle recounts the stage-chain and boundedness audits of a run
point by point, with ``np.linalg.norm``, and compares them with the counts
and flags ``run()`` got from auditing all certified points at once, on
small instances (one stacked pass over all six points) and on a wide one
(one point at a time).

``run()`` releases the stage points of every state it records, so both
oracles read them from the recorded states stepped again
(:func:`restage.restaged`).
"""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import viscosplit.solvers as solvers
from viscosplit.hilbert import Box, WholeSpace, norm
from viscosplit.monotone import ZeroOperator, zero_op
from viscosplit.problems import (catalog, default_schedule_for,
                                 identity_map, load_instance,
                                 make_inclusion_instance)
from viscosplit.schedules import ParamSeq
from viscosplit.setvalued import KIND_DEMICONTRACTIVE, MultiMap, Singleton
from viscosplit.solvers import (ALGORITHMS, AUDIT_BLOCK, AUDIT_TOL,
                                CERTIFY_TOL, RELEASED, STACKED_AUDIT_BYTES,
                                audit_fejer_chain, boundedness_radius,
                                initial_state, run, step_main)

from restage import restaged

STEPS = 50


def oracle_step(problem, schedule, psi, i, rule):
    """psi_i and the stage points (delta, pi, phi_p, xi) from psi_{i-1}."""
    inclusion_set = getattr(problem.inclusion, "set", None)
    J = inclusion_set.project if inclusion_set is not None else (lambda x: x)
    T = lambda t, x: t.image(x).point
    lam = schedule.lam(i)
    delta = J(psi - lam * problem.forward(psi))
    if rule == "forward_backward":
        return delta, (delta, delta, delta, delta)
    th, be, ga = schedule.theta(i), schedule.beta(i), schedule.gamma(i)
    pi = th * delta + (1 - th) * T(problem.t1, delta)
    phi_p = be * pi + (1 - be) * T(problem.t2, pi)
    if rule in ("sow", "sow_phi"):
        xi = phi_p
    else:
        xi = ga * phi_p + (1 - ga) * T(problem.t3, phi_p)
    a, p = schedule.alpha(i), problem.params
    viscosity = a * p.gamma * problem.contraction(psi)
    if rule == "main":
        m = schedule.mu(i)
        target = (viscosity + m * xi
                  + (1 - m) * (psi - p.eta * a * problem.strong(psi)))
    else:
        carried = {"sow": pi, "sow_phi": phi_p, "fc": xi}[rule]
        target = viscosity + carried - p.eta * a * problem.strong(carried)
    return problem.feasible.project(target), (delta, pi, phi_p, xi)


def varying_step(schedule):
    lam = ParamSeq.custom(lambda n: 0.4 + 0.1 / (n + 1), limit=0.4)
    return dataclasses.replace(schedule, lam=lam, interval=(0.4, 0.45))


@pytest.mark.parametrize("steps", ["default", "varying"])
@pytest.mark.parametrize("rule", ["main", "sow", "sow_phi", "fc",
                                  "forward_backward"])
@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_run_matches_the_oracle(instance_id, rule, steps):
    problem = load_instance(instance_id)
    schedule = default_schedule_for(problem)
    if steps == "varying":
        schedule = varying_step(schedule)
    report = run(rule, problem, schedule, tol=1e-300, max_iter=STEPS)
    psi = problem.feasible.project(problem.default_start)
    np.testing.assert_allclose(report.trajectory[0].psi, psi, rtol=0,
                               atol=1e-12)
    for state in restaged(report)[1:]:
        psi, stages = oracle_step(problem, schedule, psi, state.n, rule)
        for got, want in zip((state.psi, state.delta, state.pi, state.phi,
                              state.xi), (psi, *stages)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert report.trajectory[-1].n == report.iterations


def runaway(feasible=WholeSpace()):
    """A 1-D instance whose maps double, so the chain and the bound break.

    In the whole space the iterates leave the norm limit; in a box they
    are clipped and break the chain and the bound on every step.
    """
    doubling = MultiMap(lambda x: Singleton(2.0 * x), "demicontractive",
                        0.5, fixed_points=(np.zeros(1),))
    prob = make_inclusion_instance(
        dim=1, feasible=feasible, maps=(doubling,) * 3, name="runaway")
    return dataclasses.replace(prob, forward=zero_op(),
                               inclusion=ZeroOperator(),
                               known_common_points=(np.zeros(1),))


def reference_audit(report):
    """Per-state chain flags and the run's two violation counts, one
    certified point at a time, over the recorded states stepped again."""
    problem = report.problem
    qs = [q for q in problem.known_common_points
          if problem.certify_common_point(q)]
    psi0 = report.trajectory[0].psi
    radii = [boundedness_radius(problem, report.schedule.mu_bar, psi0, q)
             for q in qs]
    flags, fejer, bound = [], 0, 0
    for st in restaged(report):
        ok = True
        for q, radius in zip(qs, radii):
            d = [np.linalg.norm(p - q) for p in
                 (st.xi, st.phi, st.pi, st.delta, st.psi_prev)]
            links = [d[k] <= d[k + 1] + AUDIT_TOL for k in range(4)]
            assert [link[1:] for link in audit_fejer_chain(st, q).links] \
                == [(d[k], d[k + 1], links[k]) for k in range(4)]
            fejer += links.count(False)
            ok = ok and all(links)
            bound += int(np.linalg.norm(st.psi - q) > radius + CERTIFY_TOL)
        flags.append(ok if qs else None)
    return flags, fejer, bound


AUDITED_RUNS = ([(instance_id, rule) for instance_id in sorted(catalog())
                 for rule in ("main", "sow", "sow_phi", "fc",
                              "forward_backward")]
                + [("runaway", "main")]
                + [("wide_box", rule) for rule in ("main", "sow",
                                                   "forward_backward")])

#: A dimension at which the audit's six-point (and the chain audit's
#: five-point) difference exceeds STACKED_AUDIT_BYTES, so both take the
#: point-by-point branch; every catalog instance takes the stacked one.
WIDE_DIM = 4_000


@pytest.mark.parametrize("instance_id, rule", AUDITED_RUNS)
def test_stacked_audit_matches_the_per_point_loop(instance_id, rule):
    if instance_id == "runaway":
        problem = runaway()
    elif instance_id == "wide_box":
        problem = load_instance("inclusion_box", dim=WIDE_DIM)
    else:
        problem = load_instance(instance_id)
    stacked = 6 * 8 * problem.dim * len(problem.known_common_points)
    assert (stacked > STACKED_AUDIT_BYTES) == (instance_id == "wide_box")
    # Below the recording switch at 10 000, so every audited state is kept.
    report = run(rule, problem, default_schedule_for(problem),
                 max_iter=2_000)
    assert len(report.trajectory) == report.iterations + 1
    flags, fejer, bound = reference_audit(report)
    assert [st.fejer_ok for st in report.trajectory] == flags
    assert report.fejer_violations == fejer
    assert report.bound_violations == bound
    if instance_id == "runaway":
        assert fejer > 0 and bound > 0


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def held_bytes(trajectory) -> int:
    """Bytes of the distinct arrays the states hold, over all their
    fields."""
    seen = {}
    for state in trajectory:
        for f in dataclasses.fields(state):
            value = getattr(state, f.name)
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    seen[id(arr)] = arr.nbytes
    return sum(seen.values())


@pytest.mark.parametrize("stride", [None, 2])
@pytest.mark.parametrize("rule", ALGORITHMS)
def test_the_trajectory_holds_one_vector_per_state(rule, stride):
    # Each psi_prev is the psi recorded before it, or released when the
    # state before was not recorded, and the stage points, once released,
    # hold no bytes.
    problem = load_instance("inclusion_box", dim=WIDE_DIM)
    report = run(rule, problem, default_schedule_for(problem),
                 record_stride=stride)
    assert report.terminated_by == "tolerance"
    limit = (len(report.trajectory) + 1) * 8 * WIDE_DIM
    assert held_bytes(report.trajectory) <= limit
    # perfbench's tracer reads the stage fields as arrays.
    assert _load_tracing().trajectory_bytes(report.trajectory) <= limit
    for st in report.trajectory:
        assert st.delta is st.pi is st.phi is st.xi is RELEASED


@pytest.mark.parametrize("build", [
    lambda: load_instance("inclusion_ball"),
    lambda: make_inclusion_instance(dim=1, anchor=np.array([5.0]))],
    ids=["audited", "no_common_points"])
def test_a_recorded_state_cannot_be_audited_again(build):
    problem = build()
    report = run("main", problem, default_schedule_for(problem),
                 max_iter=3)
    q = np.zeros(problem.dim)
    for st in report.trajectory:
        with pytest.raises(ValueError, match="released after run"):
            audit_fejer_chain(st, q)


def test_a_stepped_state_keeps_its_chain():
    problem = load_instance("inclusion_ball")
    schedule = default_schedule_for(problem)
    state = step_main(problem, schedule, initial_state(
        problem, schedule, problem.default_start))
    links = audit_fejer_chain(state, problem.known_common_points[0]).links
    assert [link[0] for link in links] == ["xi_le_phi", "phi_le_pi",
                                           "pi_le_delta", "delta_le_psi"]
    assert all(link[3] for link in links)


def turning_t1(problem):
    """``problem`` with a T1 image that is inf on 0 < |x| < 0.1."""
    t1 = problem.t1
    return dataclasses.replace(problem, t1=dataclasses.replace(
        t1, image=lambda x: t1.image(np.inf * x if 0 < abs(x[0]) < 0.1
                                     else x)))


#: One run per exit path of ``run()``: (problem, max_iter, termination,
#: what ended a divergent run).  The clamped runaway breaks the chain and
#: the bound on every step, so blocks that end on either side of a
#: multiple of AUDIT_BLOCK all carry violations.
EXIT_PATHS = {
    **{f"max_iter={n}": (lambda: runaway(Box(-np.ones(1), np.ones(1))), n,
                         "max_iter", None)
       for n in (0, 1, AUDIT_BLOCK - 1, AUDIT_BLOCK, AUDIT_BLOCK + 1,
                 2_000)},
    "tolerance": (lambda: load_instance("inclusion_box"), 2_000,
                  "tolerance", None),
    "non_finite": (lambda: turning_t1(load_instance("inclusion_box")),
                   2_000, "divergence_guard", "T1 image"),
    "norm_limit": (runaway, 2_000, "divergence_guard", "norm limit"),
    "norm_limit_at_start": (
        lambda: dataclasses.replace(runaway(), default_start=np.array([1e13])),
        2_000, "divergence_guard", "norm limit"),
}


@pytest.mark.parametrize("path", sorted(EXIT_PATHS))
def test_block_audit_is_exact_on_every_exit_path(path):
    build, max_iter, terminated, diverged_at = EXIT_PATHS[path]
    problem = build()
    report = run("main", problem, default_schedule_for(problem),
                 max_iter=max_iter, record_stride=1)
    assert (report.terminated_by, report.diverged_at) == (terminated,
                                                          diverged_at)
    if terminated == "max_iter":
        assert report.iterations == max_iter
    if path == "norm_limit_at_start":
        assert report.iterations == 0
    assert len(report.trajectory) == report.iterations + 1
    assert all(type(st.fejer_ok) is bool for st in report.trajectory)
    flags, fejer, bound = reference_audit(report)
    assert [st.fejer_ok for st in report.trajectory] == flags
    assert (report.fejer_violations, report.bound_violations) == (fejer,
                                                                  bound)
    if path.startswith("max_iter") and max_iter:
        assert fejer == 3 * max_iter and bound == max_iter


def test_a_wide_state_is_audited_before_the_next_step(monkeypatch):
    # One state's difference passes STACKED_AUDIT_BYTES, so no state
    # waits: each step starts from a state that already has its flag.
    problem = load_instance("inclusion_box", dim=WIDE_DIM)
    flags, real = [], solvers.step_main

    def step(problem, schedule, state):
        flags.append(state.fejer_ok)
        return real(problem, schedule, state)

    monkeypatch.setattr(solvers, "step_main", step)
    report = run("main", problem, default_schedule_for(problem),
                 max_iter=5)
    assert report.iterations == 5
    assert flags == [True] * 5


def stretching(dim, slack):
    """An instance whose first step leaves pi farther from the certified
    point 0 than delta by ``slack``, from the start e_1.

    The forward operator is the identity and the inclusion the whole
    space's normal cone, so delta = (1 - lam) e_1; T1 stretches by 1 + k,
    so pi = (1 + (1 - theta) k) delta; T2 and T3 fix every point.
    """
    schedule = default_schedule_for(make_inclusion_instance(dim=dim))
    k = slack / ((1.0 - schedule.theta(1)) * (1.0 - schedule.lam(1)))
    stretch = MultiMap(lambda x: Singleton((1.0 + k) * x),
                       KIND_DEMICONTRACTIVE, 0.5,
                       fixed_points=(np.zeros(dim),))
    problem = make_inclusion_instance(
        dim=dim, feasible=WholeSpace(),
        maps=(stretch, identity_map(dim), identity_map(dim)))
    start = np.zeros(dim)
    start[0] = 1.0
    return problem, schedule, start


#: The chain's documented absolute tolerance, written out so that a change
#: of AUDIT_TOL shows.
CHAIN_TOL = 1e-10


@pytest.mark.parametrize("dim", [1, WIDE_DIM], ids=["stacked", "per_point"])
@pytest.mark.parametrize("slack, low, high, violations", [
    (0.75 * CHAIN_TOL, CHAIN_TOL / 2, CHAIN_TOL, 0),
    (1.5 * CHAIN_TOL, CHAIN_TOL, 2 * CHAIN_TOL, 1)],
    ids=["inside_tolerance", "past_tolerance"])
def test_near_miss_counts_against_the_audit_tolerance(dim, slack, low, high,
                                                      violations):
    problem, schedule, start = stretching(dim, slack)
    assert len(problem.known_common_points) == 1
    assert (6 * 8 * dim > STACKED_AUDIT_BYTES) == (dim == WIDE_DIM)
    report = run("main", problem, schedule, psi0=start, max_iter=1)
    step = restaged(report)[1]
    assert low < norm(step.pi) - norm(step.delta) < high
    assert report.fejer_violations == violations
    assert report.trajectory[1].fejer_ok is (violations == 0)
    assert report.bound_violations == 0
    name, lhs, rhs, ok = audit_fejer_chain(step, np.zeros(dim)).links[2]
    assert name == "pi_le_delta" and ok is (violations == 0)
    assert -high < rhs - lhs < -low
