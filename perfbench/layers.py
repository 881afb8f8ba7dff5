"""Per-layer metrics computed from a traced run.

The traced run has three roots, each over the same operations:

- ``setup``: building the workload's inputs and warming up, with spans;
- ``ops``: one pass over the operations with spans only, which gives the
  times;
- ``counts``: the same pass again with the call counters added as well,
  which gives the counts.  The counters cost about as much as the small
  calls they count, so the times come from the pass without them.

"Per iteration" divides by the iterations all ``run()`` calls reported,
"per solve" by the number of ``run()`` calls, "per run" and "per check" by
the number of ``viscosplit run`` and ``viscosplit check`` calls.  A metric
whose divisor is zero on a workload (no ``check`` calls, say) reads 0.
``perfbench/README.md`` says which end-to-end metric each one should move,
on which workload.
"""
from __future__ import annotations

from . import tracing as t

STEP = "solvers.step"
VALIDATE = "schedules.validate"
FB_STEP = "monotone.forward_backward_step"
FB_RESIDUAL = "monotone.fixed_point_residual"
T_STAGE_SPANS = (t.IMAGE, "setvalued.select_from", "setvalued.distance_to_set")
ANCHOR_SPANS = (t.OPERATOR_CALL, t.PROJECT)
RUN_SETUP_SPANS = (VALIDATE, t.COMMON_POINT_DEFECTS,
                   "solvers.boundedness_radius", "solvers.initial_state")
MONOTONE_AUDITS = ("monotone.check_inverse_strongly_monotone",
                   "monotone.check_forward_nonexpansive",
                   "monotone.check_wang_contraction",
                   "monotone.check_resolvent_firmly_nonexpansive")
SETVALUED_AUDITS = ("setvalued.check_demicontractive",
                    "setvalued.check_quasi_nonexpansive",
                    "setvalued.check_strictly_pseudocontractive")
BUILD_SPANS = ("problems.load_instance", "problems.default_schedule_for")

#: Spans the benchmark opens around its own ``cli.main`` calls.
CLI_RUN, CLI_CHECK, CLI_VALIDATE = "cli.run", "cli.check", "cli.validate"

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("solvers.fb_stage.us_per_iter", "us"),
    ("solvers.fb_residual.us_per_iter", "us"),
    ("solvers.t_stages.us_per_iter", "us"),
    ("solvers.anchor.us_per_iter", "us"),
    ("solvers.step.self_us_per_iter", "us"),
    ("solvers.audit.us_per_iter", "us"),
    ("solvers.loop.self_us_per_iter", "us"),
    ("solvers.setup_ms_per_solve", "ms"),
    ("solvers.finish_ms_per_solve", "ms"),
    ("solvers.trajectory_states", "count"),
    ("solvers.trajectory_mb", "MB"),
    ("schedules.validate.calls_per_solve", "count"),
    ("schedules.validate.ms_per_call", "ms"),
    ("schedules.seq.calls_per_iter", "count"),
    ("monotone.fb_step.calls_per_iter", "count"),
    ("monotone.class_audit.ms_per_check", "ms"),
    ("setvalued.image.calls_per_iter", "count"),
    ("setvalued.hausdorff.calls_per_solve", "count"),
    ("setvalued.class_audit.ms_per_check", "ms"),
    ("hilbert.as_vector.calls_per_iter", "count"),
    ("hilbert.norm.calls_per_iter", "count"),
    ("hilbert.as_vector.mb_per_iter", "MB"),
    ("problems.build_ms", "ms"),
    ("cli.parse_ms_per_run", "ms"),
    ("cli.output.self_ms_per_run", "ms"),
    ("cli.output.bytes_per_run", "bytes"),
    ("cli.check.self_ms_per_check", "ms"),
    ("trace.overhead_frac", "ratio"),
)

SPANS, DURATION, SELF = 0, 1, 2
EVENTS, VALUE = 0, 1


class Root:
    """Sums over the spans and counts recorded under one root."""

    def __init__(self, tracer: t.Tracer, root: str):
        self.spans = [(p, r) for p, r in tracer.spans.items() if p[0] == root]
        self.counts = [(p, r) for p, r in tracer.counts.items()
                       if p[0] == root]
        runs = lambda p: p[-1] == t.RUN_ITERATIONS
        self.solves = self.event(EVENTS, runs)
        self.iters = self.event(VALUE, runs)
        self.cli_runs = self.span(SPANS, lambda p: p == (root, CLI_RUN))
        self.cli_checks = self.span(SPANS, lambda p: p == (root, CLI_CHECK))

    def span(self, field: int, pred) -> float:
        return sum(rec[field] for path, rec in self.spans if pred(path))

    def event(self, field: int, pred) -> float:
        return sum(rec[field] for path, rec in self.counts if pred(path))


def _per(x: float, d: float) -> float:
    return x / d if d else 0.0


def _is(*names):
    return lambda p: p[-1] in names


def _under(parent: str, *names):
    """Spans named ``names`` opened directly inside a ``parent`` span."""
    return lambda p: p[-1] in names and p[-2] == parent


def _within(outer: str, name: str):
    """Spans or counts named ``name`` anywhere inside an ``outer`` span."""
    return lambda p: p[-1] == name and outer in p[:-1]


def layer_metrics(tracer: t.Tracer, untraced_s: float,
                  bytes_per_run: float) -> dict[str, float]:
    """Every per-layer metric of :data:`METRICS`, by name."""
    tm, ct = Root(tracer, "ops"), Root(tracer, "counts")
    setup = Root(tracer, "setup")

    def us_per_iter(field, pred):
        return _per(tm.span(field, pred), tm.iters) * 1e6

    def ms_per(field, pred, divisor):
        return _per(tm.span(field, pred), divisor) * 1e3

    n_validate = ct.span(SPANS, _is(VALIDATE))
    values = {
        "solvers.fb_stage.us_per_iter":
            us_per_iter(DURATION, _under(STEP, FB_STEP)),
        "solvers.fb_residual.us_per_iter":
            us_per_iter(DURATION, _under(STEP, FB_RESIDUAL)),
        "solvers.t_stages.us_per_iter":
            us_per_iter(DURATION, _under(STEP, *T_STAGE_SPANS)),
        "solvers.anchor.us_per_iter":
            us_per_iter(DURATION, _under(STEP, *ANCHOR_SPANS)),
        "solvers.step.self_us_per_iter": us_per_iter(SELF, _is(STEP)),
        "solvers.audit.us_per_iter":
            us_per_iter(DURATION, _is("solvers.audit_fejer_chain")),
        "solvers.loop.self_us_per_iter": us_per_iter(SELF, _is(t.RUN)),
        "solvers.setup_ms_per_solve":
            ms_per(DURATION, _under(t.RUN, *RUN_SETUP_SPANS), tm.solves),
        "solvers.finish_ms_per_solve":
            ms_per(DURATION, _under(t.RUN, "solvers.vi_residual"), tm.solves),
        "solvers.trajectory_states":
            _per(ct.event(VALUE, _is(t.TRAJECTORY_STATES)), ct.solves),
        "solvers.trajectory_mb":
            _per(ct.event(VALUE, _is(t.TRAJECTORY_BYTES)), ct.solves) / 1e6,
        "schedules.validate.calls_per_solve": _per(n_validate, ct.solves),
        "schedules.validate.ms_per_call": ms_per(
            DURATION, _is(VALIDATE), tm.span(SPANS, _is(VALIDATE))),
        "schedules.seq.calls_per_iter":
            _per(ct.event(EVENTS, _within(STEP, t.SEQUENCE)), ct.iters),
        "monotone.fb_step.calls_per_iter":
            _per(ct.span(SPANS, _within(STEP, FB_STEP)), ct.iters),
        "monotone.class_audit.ms_per_check":
            ms_per(DURATION, _is(*MONOTONE_AUDITS), tm.cli_checks),
        "setvalued.image.calls_per_iter":
            _per(ct.span(SPANS, _within(STEP, t.IMAGE)), ct.iters),
        "setvalued.hausdorff.calls_per_solve": _per(
            ct.span(SPANS, _within(t.RUN, "setvalued.hausdorff")), ct.solves),
        "setvalued.class_audit.ms_per_check":
            ms_per(DURATION, _is(*SETVALUED_AUDITS), tm.cli_checks),
        "hilbert.as_vector.calls_per_iter":
            _per(ct.event(EVENTS, _within(t.RUN, t.AS_VECTOR)), ct.iters),
        "hilbert.norm.calls_per_iter":
            _per(ct.event(EVENTS, _within(t.RUN, t.NORM)), ct.iters),
        "hilbert.as_vector.mb_per_iter":
            _per(ct.event(VALUE, _within(t.RUN, t.AS_VECTOR)), ct.iters) / 1e6,
        "problems.build_ms": setup.span(DURATION, _is(*BUILD_SPANS)) * 1e3,
        "cli.parse_ms_per_run": ms_per(
            DURATION, lambda p: p == ("ops", CLI_RUN, "cli.parse_config"),
            tm.cli_runs),
        "cli.output.self_ms_per_run":
            ms_per(SELF, lambda p: p == ("ops", CLI_RUN), tm.cli_runs),
        "cli.output.bytes_per_run": bytes_per_run,
        "cli.check.self_ms_per_check":
            ms_per(SELF, lambda p: p == ("ops", CLI_CHECK), tm.cli_checks),
        "trace.overhead_frac":
            tm.span(DURATION, lambda p: p == ("ops",)) / untraced_s - 1.0,
    }
    return {name: values[name] for name, _ in METRICS}


def self_time_by_layer(tracer: t.Tracer, root: str) -> dict[str, float]:
    """Self time under ``root`` summed by span name, largest first."""
    out: dict[str, float] = {}
    for path, rec in tracer.spans.items():
        if path[0] == root:
            out[path[-1]] = out.get(path[-1], 0.0) + rec[SELF]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
