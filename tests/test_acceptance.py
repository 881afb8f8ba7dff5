"""Acceptance suite: ten end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test also fails normally under plain pytest if its criterion breaks.
Tolerances are fixed here and never loosened per run: closed-form arithmetic
at 1e-12, inequality audits at 1e-10, convergence targets at 1e-6 with the
limiting variational inequality at 1e-8, byte equality for CLI outputs.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from viscosplit.cli import CSV_HEADER, main
from viscosplit.hilbert import Box, hilbert_identity_check, norm
from viscosplit.monotone import (NormalCone, check_forward_nonexpansive,
                                 check_resolvent_firmly_nonexpansive,
                                 check_wang_contraction, identity_op)
from viscosplit.problems import (default_schedule_for, grid_points,
                                 make_ball_instance, make_box_instance,
                                 make_example1, make_example3,
                                 make_oscillation_instance,
                                 make_trivial_instance, scaling_map)
from viscosplit.schedules import (ParamSeq, ViscosityParams, default_schedule,
                                  validate)
from viscosplit.setvalued import (check_demicontractive,
                                  check_quasi_nonexpansive,
                                  check_strictly_pseudocontractive, hausdorff)
from viscosplit.solvers import (CERTIFY_TOL, audit_fejer_chain,
                               boundedness_radius, run)

from restage import restaged

import dataclasses


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_oscillation_witness_arithmetic():
    with criterion(1, "oscillation map witness pair: exact fractions and a "
                      "strict-pseudocontractivity violation at k = 1"):
        T = make_example3()
        x = np.array([2.0 / np.pi])
        y = np.array([2.0 / (3.0 * np.pi)])
        tx, ty = T(x).point, T(y).point
        assert abs(tx[0] - 4.0 / (3.0 * np.pi)) <= 1e-12
        assert abs(ty[0] - (-4.0 / (9.0 * np.pi))) <= 1e-12

        lhs = hausdorff(T(x), T(y)) ** 2
        assert abs(lhs - 256.0 / (81.0 * np.pi ** 2)) <= 1e-12

        disp = norm((x - tx) - (y - ty)) ** 2
        rhs_k1 = norm(x - y) ** 2 + 1.0 * disp
        assert abs(rhs_k1 - 160.0 / (81.0 * np.pi ** 2)) <= 1e-12
        assert lhs > rhs_k1  # the inequality fails even at the boundary k

        res = check_strictly_pseudocontractive(T, 1.0, [(x, y)])
        assert not res.passed
        assert res.worst_slack == pytest.approx(lhs - rhs_k1, abs=1e-15)
        assert "non-strict" in res.note


def test_criterion_2_halving_maps_class_audits():
    with criterion(2, "halving maps pass demicontractive and "
                      "quasi-nonexpansive audits on 1000-point grids for "
                      "beta in {0.1, 0.5, 0.9}"):
        for beta in (0.1, 0.5, 0.9):
            one_d = make_example1(beta)
            pts_1d = list(grid_points(-10, 10, 1000, 1))
            res = check_demicontractive(one_d, beta, pts_1d)
            assert res.passed and res.checked == 1000
            assert check_quasi_nonexpansive(one_d, pts_1d).passed

            two_d = scaling_map(0.5, 2, beta, name="halving_2d")
            pts_2d = list(grid_points(-10, 10, 1000, 2))
            res = check_demicontractive(two_d, beta, pts_2d)
            assert res.passed and res.checked == 1000
            assert check_quasi_nonexpansive(two_d, pts_2d).passed


def test_criterion_3_convergence_across_dimensions():
    with criterion(3, "main iteration reaches the known solution within "
                      "1e-6 (and its variational inequality within 1e-8) "
                      "for d in {1, 2, 10}"):
        for dim in (1, 2, 10):
            prob = make_box_instance(dim=dim)
            report = run("main", prob, default_schedule_for(prob),
                         max_iter=1_000_000)
            assert report.terminated_by == "tolerance"
            assert norm(report.final - prob.known_solution) <= 1e-6
            assert report.vi_residual <= 1e-8


def test_criterion_4_stage_chain_never_violated():
    with criterion(4, "stage monotonicity chain (including the "
                      "forward-backward link) holds at 1e-10 on every "
                      "iteration of every catalog run"):
        for prob in (make_box_instance(dim=2), make_ball_instance(),
                     make_oscillation_instance()):
            report = run("main", prob, default_schedule_for(prob),
                         max_iter=5_000)
            assert report.audit_points >= 1
            assert report.fejer_violations == 0
            assert all(st.fejer_ok for st in report.trajectory)
            for st in restaged(report):
                audit = audit_fejer_chain(st, prob.known_common_points[0])
                assert all(link[3] for link in audit.links)
                assert audit.links[3][0] == "delta_le_psi"


def test_criterion_5_a_priori_boundedness():
    with criterion(5, "iterates stay inside the a priori radius, including "
                      "runs with a nonzero contraction term"):
        cases = [
            ("main", make_box_instance(dim=2), 5_000),
            ("main", make_ball_instance(), 5_000),
            ("main", make_box_instance(dim=1, phi_coef=0.3,
                                       phi_offset=np.array([0.1])), 2_000),
            ("sow", make_box_instance(dim=1), 5_000),
            ("fc", make_box_instance(dim=1), 5_000),
        ]
        for algorithm, prob, iters in cases:
            sched = default_schedule_for(prob)
            report = run(algorithm, prob, sched, max_iter=iters)
            assert report.bound_violations == 0
            psi0 = report.trajectory[0].psi
            for q in prob.known_common_points:
                radius = boundedness_radius(prob, sched.mu_bar, psi0, q)
                assert all(np.linalg.norm(st.psi - q) <= radius + CERTIFY_TOL
                           for st in restaged(report))


def test_criterion_6_property_audits_at_scale():
    with criterion(6, "10000 random pairs pass the operator and identity "
                      "audits at 1e-10 in under five seconds"):
        rng = np.random.default_rng(0)
        pairs = [(rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
                 for _ in range(10_000)]
        start = time.monotonic()

        res = check_forward_nonexpansive(identity_op(), 1.0, 0.8, pairs)
        assert res.passed

        res = check_wang_contraction(identity_op(), 1.0, 0.5, pairs)
        assert res.passed

        cone = NormalCone(Box(-np.ones(3), np.ones(3)))
        res = check_resolvent_firmly_nonexpansive(cone, 0.5, pairs)
        assert res.passed

        for x, y in pairs:
            audit = hilbert_identity_check(x, y, 0.3, tol=1e-10)
            assert audit.id2_equal
            assert audit.id1_corrected_holds

        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_7_variants_agree_on_the_limit():
    with criterion(7, "main, sow, and fc runs land within 2e-4 of each "
                      "other and within 1e-6 of the solution"):
        prob = make_box_instance(dim=1)
        sched = default_schedule_for(prob)
        finals = {}
        for algorithm in ("main", "sow", "fc"):
            report = run(algorithm, prob, sched, max_iter=200_000)
            assert report.terminated_by == "tolerance"
            finals[algorithm] = report.final
            assert norm(report.final) <= 1e-6
        for a in finals:
            for b in finals:
                assert norm(finals[a] - finals[b]) <= 2e-4


def test_criterion_8_collapse_factor_is_exact():
    with criterion(8, "identity-map collapse contracts by exactly "
                      "1 - alpha_n*(1 - mu_n) at every recorded iteration"):
        prob = make_trivial_instance()
        report = run("main", prob, default_schedule_for(prob), max_iter=500)
        assert len(report.trajectory) == 501  # every iteration recorded
        traj = restaged(report)
        for prev, cur in zip(traj, traj[1:]):
            assert cur.n == prev.n + 1
            measured = norm(cur.psi) / norm(prev.psi)
            predicted = 1.0 - cur.alpha * (1.0 - cur.mu)
            assert abs(measured - predicted) <= 1e-12


def test_criterion_9_schedule_acceptance_and_named_rejections():
    with criterion(9, "default schedules validate for 100 random feasible "
                      "constant sets; three canonical bad schedules are "
                      "rejected under their own condition names"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = rng.uniform(0.2, 1.0)
            L = k * rng.uniform(1.0, 2.5)
            eta = rng.uniform(0.1, 0.9) * 2.0 * k / L ** 2
            params = ViscosityParams(gamma=rng.uniform(0.05, 0.9), eta=eta,
                                     k=k, L=L, b=1.0, beta_demi=0.0,
                                     alpha_ism=1.0)
            tau = params.tau
            params = dataclasses.replace(
                params, b=rng.uniform(0.05, 0.9) * tau / params.gamma,
                beta_demi=rng.uniform(0.0, 0.9),
                alpha_ism=rng.uniform(0.2, 2.0))
            sched = default_schedule(params)
            report = validate(sched, params)
            assert report.ok, report.summary()

        params = ViscosityParams(gamma=0.25, eta=1.0, k=1.0, L=1.0, b=1.0,
                                 beta_demi=0.5, alpha_ism=1.0)
        sched = default_schedule(params)

        stuck = dataclasses.replace(sched, beta=ParamSeq.constant(0.5))
        names = [c.name for c in validate(stuck, params).failures()]
        assert any(n.startswith("condition (ii): beta_n in (beta_demi, 1)")
                   for n in names)

        drifty = dataclasses.replace(sched,
                                     gamma=ParamSeq.approaching_one())
        names = [c.name for c in validate(drifty, params).failures()]
        assert "condition (iii): liminf (1 - gamma_n) gamma_n > 0" in names

        coupled = dataclasses.replace(params, b=3.0)
        names = [c.name for c in validate(sched, coupled).failures()]
        assert "0 < gamma*b < tau" in names


def test_criterion_10_cli_outputs_are_byte_deterministic(tmp_path):
    with criterion(10, "two identical CLI invocations produce byte-identical "
                       "CSV and JSON for every cell"):
        config = {
            "cells": [
                {"id": "box-main", "algorithm": "main",
                 "instance": "inclusion_box", "instance.dim": 2},
                {"id": "ball-fc", "algorithm": "fc",
                 "instance": "inclusion_ball"},
                {"id": "osc-sow", "algorithm": "sow",
                 "instance": "sine_oscillation"},
                {"id": "box-fb", "algorithm": "forward_backward",
                 "instance": "inclusion_box"},
            ]
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        names = [f"{c['id']}{ext}" for c in config["cells"]
                 for ext in (".csv", ".json")]
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between runs"
        header = (out1 / "box-main.csv").read_text().split("\n", 1)[0]
        assert header == CSV_HEADER


def test_every_criterion_uses_pinned_constants():
    # The audits above rely on these specific module constants; if someone
    # retunes them the acceptance suite must be revisited, so pin them.
    from viscosplit.hilbert import DEFAULT_TOL
    from viscosplit.solvers import AUDIT_TOL, CERTIFY_TOL, DIVERGENCE_LIMIT
    assert DEFAULT_TOL == 1e-10
    assert AUDIT_TOL == 1e-10
    assert CERTIFY_TOL == 1e-8
    assert DIVERGENCE_LIMIT == 1e12
