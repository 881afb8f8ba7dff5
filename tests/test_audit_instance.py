"""``audit_instance``: the class audits of one problem as a library call.

The function audits what a problem declares: each distinct mapping by its
kind, the forward operator's ism modulus, the resolvent at the default
step, the strong operator's averaged contraction and the contraction's
Lipschitz constant.  ``viscosplit check`` prints its results and nothing
else decides a line.
"""
import dataclasses
import re

import numpy as np
import pytest

from viscosplit import (MultiMap, SingleOp, ViscosityParams, affine_op,
                        audit_instance, default_schedule,
                        default_schedule_for, load_instance, validate)
from viscosplit.cli import main, parse_config
from viscosplit.problems import catalog, identity_map, scaling_map
from viscosplit.schedules import step_window
from viscosplit.setvalued import (KIND_DEMICONTRACTIVE, KIND_NONEXPANSIVE,
                                  KIND_QUASI_NONEXPANSIVE,
                                  KIND_STRICTLY_PSEUDOCONTRACTIVE,
                                  audit_mapping)
from viscosplit.solvers import _sample_points

LINE = re.compile(r"^\[(ok|FAIL)\] (.*): worst slack ")


def test_every_catalog_instance_passes():
    for instance_id in catalog():
        results = audit_instance(load_instance(instance_id))
        assert len(results) == 7, instance_id
        assert all(res.passed for _, res in results), instance_id


def test_config_cell_instance_passes():
    cell = parse_config('{"cells":[{"id":"c","algorithm":"main",'
                        '"instance":"inclusion_box","instance.dim":2}]}')[0]
    assert cell.problem.dim == 2
    results = audit_instance(cell.problem)
    assert [res.passed for _, res in results] == [True] * 7


def test_one_audit_per_mapping():
    results = audit_instance(load_instance("inclusion_box"))
    t1, t2, t3 = (res for _, res in results[:3])
    assert t1 is t2 is t3
    # Three distinct mappings are three audits.
    maps = (scaling_map(0.5, 1), scaling_map(0.5, 1), identity_map(1))
    problem = load_instance("inclusion_box", maps=maps)
    t1, t2, t3 = (res for _, res in audit_instance(problem)[:3])
    assert t1 is not t2 and t2 is not t3
    assert (t1.name, t3.name) == ("demicontractive", "quasi_nonexpansive")


def test_steep_forward_operator_fails_only_its_ism_line():
    # The true ism modulus of 5(x - a) is 1/5; declared 1, the gate admits
    # the problem, and only the audit sees the declaration fail.
    box = load_instance("inclusion_box")
    a = np.zeros(1)
    steep = SingleOp(lambda x: 5.0 * (x - a), lipschitz=5.0,
                     inverse_strong_monotonicity=1.0, rowwise=True)
    problem = dataclasses.replace(box, forward=steep)
    assert validate(default_schedule_for(problem), problem.params).ok
    results = dict(audit_instance(problem, seed=0))
    forward = results.pop("forward inverse_strongly_monotone (alpha=1)")
    assert not forward.passed and forward.worst_slack > 0
    assert all(res.passed for res in results.values())
    assert len(results) == 6
    # alpha*||5(x - y)||^2 - <5(x - y), x - y> = 20*||x - y||^2 at its
    # largest over the 200 pairs: rows 200-399 against rows 400-599.
    drawn = _sample_points(np.random.default_rng(0), 1, 600)
    gap = drawn[200:400] - drawn[400:600]
    expected = 20.0 * float(np.max(np.sum(gap * gap, axis=1)))
    assert forward.worst_slack == pytest.approx(expected, rel=1e-12)
    assert forward.worst_slack == pytest.approx(1684.0, abs=0.1)


def test_precondition_errors_propagate():
    box = load_instance("inclusion_box")
    with pytest.raises(ValueError, match=r"^eta=5\.0 outside \(0, "):
        audit_instance(dataclasses.replace(box, eta=5.0))
    # A mapping that declares no fixed point, on a problem that declares
    # no common point, cannot be audited.
    bare = MultiMap(kind=KIND_QUASI_NONEXPANSIVE, points=lambda x: 0.5 * x)
    with pytest.raises(ValueError, match="at least one known fixed point"):
        audit_instance(dataclasses.replace(box, t1=bare,
                                           known_common_points=()))


def test_a_mapping_without_fixed_points_is_audited_at_the_common_points():
    # Every certified common point q has T q = {q}, so it is a fixed point
    # of each mapping: the audit of T1 pairs the sample with them.
    box = load_instance("inclusion_box")
    bare = MultiMap(kind=KIND_QUASI_NONEXPANSIVE, points=lambda x: 0.5 * x)
    problem = dataclasses.replace(box, t1=bare)
    results = audit_instance(problem)
    assert len(results) == len(audit_instance(box)) == 7
    label, res = results[0]
    assert label == "T1 (T1) quasi_nonexpansive"
    assert res.passed
    assert res.checked == 200 * len(problem.known_common_points)
    assert bare.fixed_points == ()


@pytest.mark.parametrize("instance_id", sorted(catalog()))
def test_check_prints_exactly_the_audits(instance_id, capsys):
    # The golden files cover seed 0 only.
    assert main(["check", instance_id, "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    problem = load_instance(instance_id)
    results = audit_instance(problem, 3)
    printed = [LINE.match(line).groups() for line in lines[:len(results)]]
    assert printed == [("ok" if res.passed else "FAIL", label)
                       for label, res in results]
    assert lines[len(results):] == [
        f"[ok] common point {q.tolist()}: certified"
        for q in problem.known_common_points] + [
        "[ok] default schedule admissibility"]


def test_constant_forward_operator_is_admitted():
    # A constant map is inverse strongly monotone with every modulus.
    problem = dataclasses.replace(
        load_instance("inclusion_box"), forward=affine_op(0.0, [0.5], 1),
        known_common_points=())
    assert problem.params.alpha_ism == 1.0
    results = dict(audit_instance(problem))
    assert results["forward inverse_strongly_monotone (alpha=1)"].passed


@pytest.mark.parametrize("alpha_ism", [1e-3, 0.1, 0.3, 0.45, 0.5, 1.0, 7.0])
def test_one_default_step(alpha_ism):
    params = ViscosityParams(0.25, 1.0, 1.0, 1.0, 1e-6, 0.5, alpha_ism)
    lam = params.lam_mid
    assert lam == step_window(alpha_ism) / 2.0 == min(1.0, 2.0 * alpha_ism) / 2
    schedule = default_schedule(params)
    assert schedule.lam(1) == lam and schedule.interval == (lam, lam)


def test_kind_helpers():
    fixed = (np.zeros(1),)
    half = lambda x: 0.5 * x  # noqa: E731
    demi = MultiMap(kind=KIND_DEMICONTRACTIVE, constant=0.3,
                    fixed_points=fixed, points=half)
    strict = MultiMap(kind=KIND_STRICTLY_PSEUDOCONTRACTIVE, constant=0.6,
                      fixed_points=fixed, points=half)
    quasi = MultiMap(kind=KIND_QUASI_NONEXPANSIVE, constant=0.9,
                     fixed_points=fixed, points=half)
    plain = MultiMap(kind=KIND_NONEXPANSIVE, fixed_points=fixed, points=half)
    assert [t.demi_constant for t in (demi, strict, quasi, plain)] == [
        0.3, 0.6, 0.0, 0.0]
    xs = [np.array([v]) for v in np.linspace(-3.0, 3.0, 7)]
    pairs = list(zip(xs, xs[::-1]))
    names = [audit_mapping(t, xs, pairs).name
             for t in (demi, strict, quasi, plain)]
    assert names == ["demicontractive", "strictly_pseudocontractive",
                     "quasi_nonexpansive", "quasi_nonexpansive"]
