"""An independent oracle for the four update rules.

The oracle applies the update lines of PAPER.md as written, using only the
instance's own data: the forward operator, the feasible projection, the
map images, the contraction phi and the strong operator.  Every catalog
image is a singleton, so the selection is its point, and every catalog
inclusion is a normal cone (resolvent = projection onto its set) or zero
(resolvent = identity).  It shares no code with the solver's step.
"""
import dataclasses

import numpy as np
import pytest

from viscosplit.problems import catalog, default_schedule_for, load_instance
from viscosplit.schedules import ParamSeq
from viscosplit.solvers import run

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
    report = run("sow" if rule == "sow_phi" else rule, problem, schedule,
                 tol=1e-300, max_iter=STEPS, sow_use_phi=rule == "sow_phi")
    psi = problem.feasible.project(problem.default_start)
    np.testing.assert_allclose(report.trajectory[0].psi, psi, rtol=0,
                               atol=1e-12)
    for state in report.trajectory[1:]:
        psi, stages = oracle_step(problem, schedule, psi, state.n, rule)
        for got, want in zip((state.psi, state.delta, state.pi, state.phi,
                              state.xi), (psi, *stages)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert report.trajectory[-1].n == report.iterations
