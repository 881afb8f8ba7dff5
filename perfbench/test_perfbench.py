"""Tests of the benchmark's own logic: the output checks, the span
accounting and the metric selection.  Run with ``python3 -m pytest
perfbench`` from the repository root, with ``src`` on ``PYTHONPATH``."""
import json
import sys
from pathlib import Path

import pytest

from perfbench import layers, tracing
from perfbench.workloads import (LongHaul, check_closed_form,
                                 closed_form_final)

STEPS = LongHaul.MAX_ITER
ALPHAS = [1.0 / (i + 1) for i in range(1, STEPS + 1)]


def test_closed_form_telescopes_for_fc():
    # prod_{i=1}^{N} (1 - 1/(i+1)) = 1/(N+1)
    final = closed_form_final([0.6], ALPHAS, mu=None)
    assert final[0] == pytest.approx(0.6 / (STEPS + 1), rel=1e-12)


@pytest.mark.parametrize("mu", [None, 0.8])
def test_closed_form_check_rejects_a_perturbed_iterate(mu):
    expected = closed_form_final([-0.37], ALPHAS, mu)
    assert check_closed_form(expected, expected) is None
    assert check_closed_form(expected * (1 + 1e-13), expected) is None
    assert check_closed_form(expected * (1 + 1e-9), expected) is not None
    assert check_closed_form(expected + 1e-10, expected) is not None


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3]
    # root [0, 10] > a [5, 9] > c [6, 8] > b [6.5, 7]
    events = [("enter", "root", 0.0), ("enter", "a", 1.0),
              ("enter", "b", 2.0), ("exit", None, 3.0), ("exit", None, 4.0),
              ("enter", "a", 5.0), ("enter", "c", 6.0), ("enter", "b", 6.5),
              ("exit", None, 7.0), ("exit", None, 8.0), ("exit", None, 9.0),
              ("exit", None, 10.0)]
    tracer = tracing.Tracer(clock=FakeClock([t for _, _, t in events]))
    for kind, name, _ in events:
        tracer.enter(name) if kind == "enter" else tracer.exit()

    assert tracer.spans == {
        ("root",): [1, 10.0, 3.0],
        ("root", "a"): [2, 7.0, 4.0],
        ("root", "a", "b"): [1, 1.0, 1.0],
        ("root", "a", "c"): [1, 2.0, 1.5],
        ("root", "a", "c", "b"): [1, 0.5, 0.5],
    }
    assert tracer.unaccounted("root") == 0.0
    assert layers.self_time_by_layer(tracer, "root") == {
        "a": 4.0, "root": 3.0, "b": 1.5, "c": 1.5}


def test_counts_land_at_the_enclosing_span():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    tracer.count("x")
    with tracer.span("root"):
        tracer.count("x", 8)
        with tracer.span("inner"):
            tracer.count("x", 16)
            tracer.count("x", 16)
    assert tracer.counts == {("x",): [1, 0], ("root", "x"): [1, 8],
                             ("root", "inner", "x"): [2, 32]}


def test_per_iteration_metrics_select_the_right_spans():
    # One solve of two iterations; the forward-backward step inside the
    # residual belongs to the residual, not to the step's own stage.
    times = iter(float(i) for i in range(100))
    tracer = tracing.Tracer(clock=lambda: next(times))
    for root in ("ops", "counts"):
        with tracer.span(root):
            with tracer.span(tracing.RUN):
                for _ in range(2):
                    with tracer.span(layers.STEP):
                        with tracer.span(layers.FB_STEP):
                            pass
                        with tracer.span(layers.FB_RESIDUAL):
                            with tracer.span(layers.FB_STEP):
                                pass
            tracer.count(tracing.RUN_ITERATIONS, 2)
    values = layers.layer_metrics(tracer, untraced_s=1.0, bytes_per_run=0.0)
    assert values["solvers.fb_stage.us_per_iter"] == 1e6
    assert values["solvers.fb_residual.us_per_iter"] == 3e6
    assert values["monotone.fb_step.calls_per_iter"] == 2.0
    assert values["monotone.class_audit.ms_per_check"] == 0.0


def test_installed_wrappers_see_the_layers_and_come_off():
    pytest.importorskip("viscosplit.cli")
    vs = sys.modules["viscosplit"]
    solvers = vs.solvers
    originals = (vs.run, solvers.run, solvers.step_main, solvers.as_vector,
                 vs.monotone.SingleOp.__call__)
    tracer = tracing.Tracer()
    uninstall_spans = tracing.install_spans(tracer)
    uninstall_counts = tracing.install_counts(tracer)
    try:
        problem = vs.load_instance("inclusion_box", dim=2)
        schedule = vs.default_schedule_for(problem)
        with tracer.span("counts"):
            report = vs.run("main", problem, schedule, tol=1e-8)
    finally:
        uninstall_counts()
        uninstall_spans()
    assert (vs.run, solvers.run, solvers.step_main, solvers.as_vector,
            vs.monotone.SingleOp.__call__) == originals
    assert tracer.unaccounted("counts") == pytest.approx(0.0, abs=1e-9)
    root = layers.Root(tracer, "counts")
    assert (root.solves, root.iters) == (1, report.iterations)
    step = lambda p: p[-1] == layers.STEP
    assert root.span(layers.SPANS, step) == report.iterations
    in_step = lambda name: lambda p: p[-1] == name and layers.STEP in p
    assert root.span(layers.SPANS, in_step(tracing.IMAGE)) == \
        3 * report.iterations
    assert root.event(layers.EVENTS, in_step(tracing.SEQUENCE)) == \
        6 * report.iterations


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)

