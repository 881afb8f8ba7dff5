"""Spans and counts recorded around calls into viscosplit, from outside it.

``install_spans`` and ``install_counts`` replace the public functions and
methods of the program's modules by thin wrappers that report to a
:class:`Tracer`; the callable each returns puts the originals back.  A
function is rebound in every module that imported it, so a call is traced
whichever module makes it.  Only the traced run installs wrappers; the
timed run calls the program untouched.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: Span names, one per layer boundary.  Steps of all four rules share one.
SPAN_FUNCTIONS = {
    "solvers": {
        "step_main": "solvers.step",
        "step_sow": "solvers.step",
        "step_fc": "solvers.step",
        "step_forward_backward": "solvers.step",
        "initial_state": "solvers.initial_state",
        "boundedness_radius": "solvers.boundedness_radius",
        "audit_fejer_chain": "solvers.audit_fejer_chain",
        "vi_residual": "solvers.vi_residual",
    },
    "monotone": {
        "forward_backward_step": "monotone.forward_backward_step",
        "fixed_point_residual": "monotone.fixed_point_residual",
        "check_inverse_strongly_monotone":
            "monotone.check_inverse_strongly_monotone",
        "check_forward_nonexpansive": "monotone.check_forward_nonexpansive",
        "check_wang_contraction": "monotone.check_wang_contraction",
        "check_resolvent_firmly_nonexpansive":
            "monotone.check_resolvent_firmly_nonexpansive",
    },
    "setvalued": {
        "select_from": "setvalued.select_from",
        "distance_to_set": "setvalued.distance_to_set",
        "hausdorff": "setvalued.hausdorff",
        "check_demicontractive": "setvalued.check_demicontractive",
        "check_quasi_nonexpansive": "setvalued.check_quasi_nonexpansive",
        "check_strictly_pseudocontractive":
            "setvalued.check_strictly_pseudocontractive",
    },
    "schedules": {"validate": "schedules.validate"},
    "problems": {
        "load_instance": "problems.load_instance",
        "default_schedule_for": "problems.default_schedule_for",
    },
    "cli": {"parse_config": "cli.parse_config"},
}

RUN = "solvers.run"
RUN_ITERATIONS = "solvers.run.iterations"
TRAJECTORY_STATES = "solvers.trajectory.states"
TRAJECTORY_BYTES = "solvers.trajectory.bytes"
COMMON_POINT_DEFECTS = "solvers.common_point_defects"
OPERATOR_CALL = "monotone.SingleOp.__call__"
PROJECT = "hilbert.project"
IMAGE = "setvalued.image"
AS_VECTOR = "hilbert.as_vector"
NORM = "hilbert.norm"
SEQUENCE = "schedules.ParamSeq.__call__"

_STATE_ARRAYS = ("psi", "psi_prev", "delta", "pi", "phi", "xi")


class Tracer:
    """Nested spans aggregated by call path, with counts at the same paths.

    A span's path is the tuple of span names from the outermost span down to
    it.  For each path the tracer keeps ``[spans, total duration, total self
    time]``, where self time is the duration minus the part that child spans
    cover.  Spans nest, so the self times under a root sum to the root's
    duration.  ``count`` records one event and a summed value (such as
    bytes) at the path of the enclosing span plus the event's name, as
    ``[events, value]``.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = [[(), 0.0, 0.0]]
        self.spans: dict[tuple, list] = {}
        self.counts: dict[tuple, list] = {}

    def enter(self, name: str) -> None:
        self._stack.append([self._stack[-1][0] + (name,), self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        path, start, covered = self._stack.pop()
        duration = end - start
        self._stack[-1][2] += duration
        rec = self.spans.get(path)
        if rec is None:
            rec = self.spans[path] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - covered

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, value=0) -> None:
        key = self._stack[-1][0] + (name,)
        rec = self.counts.get(key)
        if rec is None:
            rec = self.counts[key] = [0, 0]
        rec[0] += 1
        rec[1] += value

    def unaccounted(self, root: str) -> float:
        """Self times under ``root`` minus its duration: 0 up to rounding."""
        selfs = sum(rec[2] for path, rec in self.spans.items()
                    if path[0] == root)
        return selfs - self.spans[(root,)][1]


def trajectory_bytes(trajectory) -> int:
    """Bytes of the distinct arrays a recorded trajectory holds."""
    seen = {}
    for state in trajectory:
        for field in _STATE_ARRAYS:
            arr = getattr(state, field)
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def _spanned(tracer: Tracer, name: str, fn):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return wrapper


def _counted(tracer: Tracer, name: str, fn, with_bytes: bool = False):
    count = tracer.count

    if with_bytes:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(name, out.nbytes)
            return out
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(name)
            return out
    return wrapper


def _traced_run(tracer: Tracer, fn):
    spanned = _spanned(tracer, RUN, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        report = spanned(*args, **kwargs)
        tracer.count(RUN_ITERATIONS, report.iterations)
        tracer.count(TRAJECTORY_STATES, len(report.trajectory))
        tracer.count(TRAJECTORY_BYTES, trajectory_bytes(report.trajectory))
        return report
    return wrapper


def _patcher():
    """(replace, rebind, uninstall) over viscosplit's loaded modules."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "viscosplit" or name.startswith("viscosplit.")]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rebind(fn, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    replace(mod, attr, new)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return replace, rebind, uninstall


def install_spans(tracer: Tracer):
    """Open a span at each layer boundary; return a callable that undoes it."""
    pkg = sys.modules["viscosplit"]
    replace, rebind, uninstall = _patcher()
    for modname, names in SPAN_FUNCTIONS.items():
        mod = getattr(pkg, modname)
        for attr, span_name in names.items():
            fn = getattr(mod, attr)
            rebind(fn, _spanned(tracer, span_name, fn))
    rebind(pkg.solvers.run, _traced_run(tracer, pkg.solvers.run))

    problem_cls = pkg.solvers.ProblemInstance
    replace(problem_cls, "common_point_defects",
            _spanned(tracer, COMMON_POINT_DEFECTS,
                     problem_cls.common_point_defects))
    replace(pkg.monotone.SingleOp, "__call__",
            _spanned(tracer, OPERATOR_CALL, pkg.monotone.SingleOp.__call__))
    for cls in pkg.hilbert.ConvexSet.__subclasses__():
        if "project" in vars(cls):
            replace(cls, "project", _spanned(tracer, PROJECT, cls.project))

    # A mapping's image is an instance field, so wrap it as each mapping is
    # built; only mappings built after installation are traced.
    multimap = pkg.setvalued.MultiMap
    post_init = multimap.__post_init__

    def traced_post_init(self):
        post_init(self)
        object.__setattr__(self, "image", _spanned(tracer, IMAGE, self.image))
    replace(multimap, "__post_init__", traced_post_init)
    return uninstall


def install_counts(tracer: Tracer):
    """Count the small, frequent calls; return a callable that undoes it.

    Kept apart from :func:`install_spans` because these wrappers cost about
    as much as the calls they count; the timed traced pass runs without
    them, and a second pass with both gives the counts.
    """
    pkg = sys.modules["viscosplit"]
    replace, rebind, uninstall = _patcher()
    rebind(pkg.hilbert.as_vector,
           _counted(tracer, AS_VECTOR, pkg.hilbert.as_vector, with_bytes=True))
    rebind(pkg.hilbert.norm, _counted(tracer, NORM, pkg.hilbert.norm))
    replace(pkg.schedules.ParamSeq, "__call__",
            _counted(tracer, SEQUENCE, pkg.schedules.ParamSeq.__call__))
    return uninstall
