"""Independent oracles for the four update rules and the per-iteration audits.

The oracle applies the update lines of the iteration as README.md and the
``viscosplit.solvers`` module docstring state them, using only the
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

``run()`` keeps only the start and the final state whole, so both oracles
read the vectors of the states between them from the start stepped again
(:func:`restage.restaged`), which also checks each recorded row.
"""
import dataclasses
import importlib.util
import tracemalloc
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
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, FiniteSet, MultiMap,
                                  Singleton)
from viscosplit.solvers import (ALGORITHMS, AUDIT_BLOCK, AUDIT_TOL,
                                CERTIFY_TOL, COLUMNS, RELEASED,
                                STACKED_AUDIT_BYTES, audit_fejer_chain,
                                boundedness_radius, initial_state, run,
                                step_main)

from restage import STEP, restaged

STEPS = 50


def projector(K):
    """The projection onto ``K``: a box's is ``np.clip`` against its bound
    arrays, not :meth:`Box.project`, which clips against bounds of its
    own deriving."""
    if type(K) is Box:
        return lambda x: np.clip(x, K.lower, K.upper)
    return K.project


def oracle_step(problem, schedule, psi, i, rule):
    """psi_i and the stage points (delta, pi, phi_p, xi) from psi_{i-1}.

    Each line is written as stated, ``psi - lam * F(psi)`` included, where
    the step sums the fresh product first."""
    inclusion_set = getattr(problem.inclusion, "set", None)
    J = projector(inclusion_set) if inclusion_set is not None else (
        lambda x: x)
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
    return projector(problem.feasible)(target), (delta, pi, phi_p, xi)


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


#: A dimension at which one state's audit difference passes
#: STACKED_AUDIT_BYTES, so a run audits each state alone and releases it
#: before its step.
ORACLE_WIDE_DIM = 20_000


@pytest.mark.parametrize("rule", ["main", "sow", "sow_phi", "fc",
                                  "forward_backward"])
def test_the_wide_path_matches_the_oracle_bit_for_bit(rule):
    # At this dimension a box clips against 0-d bounds, and every vector a
    # step makes is wide; the oracle clips against the bound arrays and
    # keeps the written order of each line.
    problem = load_instance("inclusion_box", dim=ORACLE_WIDE_DIM)
    assert 6 * 8 * problem.dim > STACKED_AUDIT_BYTES
    schedule = default_schedule_for(problem)
    report = run(rule, problem, schedule, tol=1e-300, max_iter=25)
    assert report.iterations == 25
    psi = projector(problem.feasible)(problem.default_start)
    assert report.trajectory[0].psi.tobytes() == psi.tobytes()
    for state in restaged(report)[1:]:
        psi, stages = oracle_step(problem, schedule, psi, state.n, rule)
        for got, want in zip((state.psi, state.delta, state.pi, state.phi,
                              state.xi), (psi, *stages)):
            assert got.tobytes() == want.tobytes()


def rewrapped(problem, wrap):
    """``problem`` with each mapping's image replaced by ``wrap`` of it."""
    def replaced(t):
        image = t.image
        return dataclasses.replace(t, image=lambda x: wrap(image(x)))
    return dataclasses.replace(problem, **{name: replaced(t) for name, t in
                                           zip(("t1", "t2", "t3"),
                                               problem.maps)})


def bits(report):
    """What a run's T-stages feed: every recorded iterate, its residuals
    and chain verdict, bit for bit, and the violation counts."""
    states = restaged(report)
    return (np.array([st.psi for st in states]).tobytes(),
            np.array([(st.residual_t1, st.residual_t2, st.residual_t3,
                       st.fb_residual) for st in states]).tobytes(),
            [st.fejer_ok for st in report.trajectory],
            report.fejer_violations,
            report.bound_violations, report.iterations, report.terminated_by)


@pytest.mark.parametrize("wrap", ["finite_set", "copied_point"])
@pytest.mark.parametrize("selection", ["metric", "first_enumerated"])
@pytest.mark.parametrize("rule", ALGORITHMS)
@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_singleton_dispatch_matches_the_general_path(instance_id, rule,
                                                     selection, wrap):
    # A one-point FiniteSet is measured by FiniteSet.measure, a min over
    # its norms, not by Singleton.measure; a Singleton of a copy is
    # measured by a subtraction even where the mapping (the identity)
    # returns its argument, which the step reads as 0.0.
    problem = dataclasses.replace(load_instance(instance_id),
                                  selection=selection)
    wrapper = {"finite_set": lambda img: FiniteSet((img.point,)),
               "copied_point": lambda img: Singleton(img.point.copy())}[wrap]
    schedule = default_schedule_for(problem)
    got, want = (run(rule, p, schedule, tol=1e-300, max_iter=STEPS)
                 for p in (problem, rewrapped(problem, wrapper)))
    assert bits(got) == bits(want)


def test_an_identity_image_point_is_its_argument():
    x = np.array([0.3])
    assert identity_map(1).image(x).point is x
    assert all(t.image(x).point is x
               for t in load_instance("trivial_collapse").maps)


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
          if not problem.common_point_defects(q)]
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


#: A dimension at which one point's difference alone exceeds
#: STACKED_AUDIT_BYTES, so every audit measures point by point.
ONE_POINT_WIDE = STACKED_AUDIT_BYTES // 8 + 1

#: Wide instances.  The box's one certified point is its known solution,
#: so the audit reads psi's distance from ``dist_to_solution``.  It may
#: not where the known solution is another point, far enough that reading
#: it would break the bound, nor on the trivial instance's two certified
#: points, one of them the known solution.
WIDE_AUDITS = {
    "off_solution": lambda: dataclasses.replace(
        load_instance("inclusion_box", dim=ONE_POINT_WIDE),
        known_solution=np.full(ONE_POINT_WIDE, 5.0)),
    "two_points": lambda: dataclasses.replace(
        load_instance("trivial_collapse", dim=ONE_POINT_WIDE),
        known_common_points=(np.zeros(ONE_POINT_WIDE),
                             np.ones(ONE_POINT_WIDE))),
    "box": lambda: load_instance("inclusion_box", dim=ONE_POINT_WIDE),
}


@pytest.mark.parametrize("rule", ["main", "sow", "forward_backward"])
@pytest.mark.parametrize("name", sorted(WIDE_AUDITS))
def test_every_audited_distance_is_the_points_own(name, rule, monkeypatch):
    # Each distance the run's audit reads, measured, carried from the
    # state before or read from dist_to_solution, equals the norm of its
    # own point's difference; the flags and counts match the oracle.
    problem = WIDE_AUDITS[name]()
    real, audited = solvers._audit, []

    def checking(states, q_rows, limits, *args):
        d, failed, outside = real(states, q_rows, limits, *args)
        for st, ds in zip(states, d):
            assert ds.T.tolist() == [
                [np.linalg.norm(p - q) for p in (st.xi, st.phi, st.pi,
                                                 st.delta, st.psi_prev,
                                                 st.psi)]
                for q in q_rows]
            audited.append(st.n)
        return d, failed, outside

    monkeypatch.setattr(solvers, "_audit", checking)
    report = run(rule, problem, default_schedule_for(problem), max_iter=12)
    assert audited == list(range(report.iterations + 1))
    flags, fejer, bound = reference_audit(report)
    assert [st.fejer_ok for st in report.trajectory] == flags
    assert (report.fejer_violations, report.bound_violations) == (fejer,
                                                                  bound)


@pytest.mark.parametrize("rule, rows", [
    ("main", 4), ("sow", 3), ("sow_phi", 3), ("fc", 4),
    ("forward_backward", 1)])
def test_a_wide_audit_measures_each_distance_once(rule, rows, monkeypatch):
    # Only the distinct stage points are measured: psi's distance to the
    # one certified point, the known solution, is its dist_to_solution,
    # and psi_prev's is the state before's.  The start's mirrored points
    # are one.  Each state measured 6, 5, 5, 6 and 2 rows when psi and
    # psi_prev were measured too.
    problem = load_instance("inclusion_box", dim=ONE_POINT_WIDE)
    measured, real = [0], solvers.row_norms

    def counting(differences):
        measured[0] += differences.size // differences.shape[-1]
        return real(differences)

    monkeypatch.setattr(solvers, "row_norms", counting)
    report = run(rule, problem, default_schedule_for(problem), max_iter=5)
    assert report.iterations == 5
    assert measured[0] == 1 + rows * 5


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


@pytest.mark.parametrize("build, rule, arguments, termination", [
    *(pytest.param(lambda: load_instance("inclusion_box", dim=WIDE_DIM),
                   rule, {"record_stride": stride}, "tolerance",
                   id=f"{rule}-{stride}")
      for rule in ALGORITHMS for stride in (None, 2)),
    # Past the recording switch at n = 10000, ending off the 100-stride.
    pytest.param(lambda: load_instance("trivial_collapse"), "main",
                 {"tol": 1e-12, "max_iter": 10_250}, "max_iter",
                 id="trivial_collapse-past_the_switch"),
    # States 3, 6 and 9 are rows; the final state 10 is kept whole.
    pytest.param(lambda: load_instance("inclusion_box"), "main",
                 {"record_stride": 3, "max_iter": 10}, "max_iter",
                 id="inclusion_box-stride_3"),
    pytest.param(lambda: make_inclusion_instance(dim=1, anchor=[5.0]),
                 "main", {"record_stride": 3, "max_iter": 10}, "max_iter",
                 id="no_common_points-stride_3")])
def test_the_trajectory_holds_two_states_of_vectors(build, rule, arguments,
                                                    termination):
    # The start and the final state are kept whole, each with at most six
    # distinct vectors; every state between them is a row of scalars.
    problem = build()
    report = run(rule, problem, default_schedule_for(problem), **arguments)
    assert report.terminated_by == termination
    limit = 12 * 8 * problem.dim
    assert held_bytes(report.trajectory) <= limit
    # perfbench's tracer reads the vector fields as arrays on every item.
    assert _load_tracing().trajectory_bytes(report.trajectory) <= limit
    trajectory = report.trajectory
    assert trajectory[0] is trajectory.first
    assert trajectory[0].psi_prev is trajectory[0].psi
    assert trajectory[-1] is trajectory.last
    assert trajectory[-1].n == report.iterations
    assert np.array_equal(trajectory[-1].psi, report.final)
    audited = bool(problem.known_common_points)
    for st in list(trajectory)[1:-1]:
        assert (st.psi is st.psi_prev is st.delta is st.pi is st.phi
                is st.xi is RELEASED)
        assert type(st.n) is int
        assert type(st.fejer_ok) is (bool if audited else type(None))


@pytest.mark.parametrize("build", [
    lambda: load_instance("inclusion_ball"),
    lambda: make_inclusion_instance(dim=1, anchor=np.array([5.0]))],
    ids=["audited", "no_common_points"])
def test_trajectory_items_read_their_rows(build):
    problem = build()
    report = run("sow", problem, default_schedule_for(problem), max_iter=12,
                 record_stride=5)
    trajectory = report.trajectory
    assert len(trajectory) == 4
    items = list(trajectory)
    assert [st.n for st in items] == [0, 5, 10, 12]
    assert [trajectory[k].n for k in range(-4, 0)] == [0, 5, 10, 12]
    assert trajectory[-4] is trajectory.first
    with pytest.raises(IndexError):
        trajectory[4]
    with pytest.raises(IndexError):
        trajectory[-5]
    fields = ("n", "psi_norm", "dist_to_solution", "residual_t1",
              "residual_t2", "residual_t3", "fb_residual", "alpha", "mu",
              "lam")
    for item, state in zip(items, restaged(report)):
        assert all(type(getattr(item, f)) is type(getattr(state, f))
                   is (int if f == "n" else float) for f in fields)
        assert np.array([getattr(item, f) for f in fields]).tobytes() == \
            np.array([getattr(state, f) for f in fields]).tobytes()
    assert [st.fejer_ok for st in items] == (
        [True] * 4 if problem.known_common_points else [None] * 4)
    for item, values in zip(items, trajectory.rows()):
        row = dict(zip(COLUMNS, values))
        assert np.array([getattr(item, f) for f in fields]).tobytes() == \
            np.array([row[f] for f in fields]).tobytes()


@pytest.mark.parametrize("rule", ["main", "fc"])
def test_retained_memory_grows_with_the_rows_not_the_dimension(rule):
    # At WIDE_DIM an iterate is 32 kB; a row of the table is 88 bytes.
    problem = load_instance("trivial_collapse", dim=WIDE_DIM)
    schedule = default_schedule_for(problem)

    def retained(max_iter):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run(rule, problem, schedule, max_iter=max_iter)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(report.trajectory) == max_iter + 1
        return held

    short, long = retained(100), retained(400)
    assert long - short <= 300 * 200
    assert long <= 12 * 8 * problem.dim + 400 * 200


@pytest.mark.parametrize("build", [
    lambda: load_instance("inclusion_ball"),
    lambda: make_inclusion_instance(dim=1, anchor=np.array([5.0]))],
    ids=["audited", "no_common_points"])
def test_a_recorded_state_cannot_be_audited_again(build):
    # Only the start and the final state keep their stage points.
    problem = build()
    report = run("main", problem, default_schedule_for(problem),
                 max_iter=3)
    q = np.zeros(problem.dim)
    for st in list(report.trajectory)[1:-1]:
        with pytest.raises(ValueError, match="released after run"):
            audit_fejer_chain(st, q)
    final = report.trajectory[-1]
    links = audit_fejer_chain(final, q).links
    assert [link[0] for link in links] == list(solvers._LINKS)
    if problem.known_common_points:
        assert final.fejer_ok is all(link[3] for link in links)


def test_a_stepped_state_keeps_its_chain():
    problem = load_instance("inclusion_ball")
    schedule = default_schedule_for(problem)
    state = step_main(problem, schedule, initial_state(
        problem, schedule, problem.default_start))
    links = audit_fejer_chain(state, problem.known_common_points[0]).links
    assert [link[0] for link in links] == ["xi_le_phi", "phi_le_pi",
                                           "pi_le_delta", "delta_le_psi"]
    assert all(link[3] for link in links)


def turning_t1(problem, reach=0.1):
    """``problem`` with a T1 image that is inf on 0 < |x| < ``reach``."""
    t1 = problem.t1
    return dataclasses.replace(problem, t1=dataclasses.replace(
        t1, image=lambda x: t1.image(np.inf * x if 0 < abs(x[0]) < reach
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


def test_a_wide_run_releases_each_audited_state_before_its_step():
    # The stage points of the state being stepped are released once it is
    # audited, and the anchor target once it is projected: the peak above
    # the start read 16.1 vectors when both lived through the step, 12.1
    # without them.
    problem = load_instance("inclusion_box", dim=10_000)
    schedule = default_schedule_for(problem)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run("main", problem, schedule)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.terminated_by == "tolerance"
    assert peak <= 13 * 8 * problem.dim


@pytest.mark.parametrize("rule", ["main", "sow", "sow_phi", "fc"])
def test_a_failed_step_leaves_the_final_state_whole(rule, monkeypatch):
    # With one state per audit block every state is released before its
    # step, so the final state of a run that meets a non-finite value is
    # stepped again from its start.
    monkeypatch.setattr(solvers, "AUDIT_BLOCK", 1)
    problem = turning_t1(load_instance("inclusion_box"), reach=0.05)
    schedule = default_schedule_for(problem)
    report = run(rule, problem, schedule, max_iter=2_000, record_stride=1)
    assert (report.terminated_by, report.diverged_at) == ("divergence_guard",
                                                          "T1 image")
    assert report.iterations >= 2
    final = report.trajectory[-1]
    state = initial_state(problem, schedule, problem.default_start)
    while state.n < final.n:
        state = STEP[rule](problem, schedule, state)
    for name in ("psi", "psi_prev", "delta", "pi", "phi", "xi"):
        assert getattr(final, name).tobytes() == getattr(state,
                                                         name).tobytes()
    flags, _, _ = reference_audit(report)
    assert [st.fejer_ok for st in report.trajectory] == flags
    links = audit_fejer_chain(final, problem.known_common_points[0]).links
    assert final.fejer_ok is all(link[3] for link in links)


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
