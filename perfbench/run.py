"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload short_solves --seed 1 --seconds 20

With ``--trace 0`` (the default) the workload runs untouched in a closed
loop for ``--seconds`` and the end-to-end metrics are printed.  With
``--trace 1`` the same pass over the workload's operations runs untraced
and with spans around viscosplit's layer boundaries (``traced_run``), and
the per-layer metrics are printed (see ``layers``).  Every operation's
output is checked in both modes.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.
"""
from __future__ import annotations

import os

# One numeric thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

from perfbench import layers, tracing, workloads

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5


def import_program():
    """Import viscosplit afresh, so each set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "viscosplit" or n.startswith("viscosplit.")]:
        del sys.modules[name]
    importlib.import_module("viscosplit.cli")
    return sys.modules["viscosplit"]


def measure(workload, vs, op, tracer=None):
    """Run one operation, then check it; returns (seconds, Checked)."""
    span = workload.span(op) if tracer is not None else None
    start = time.perf_counter()
    if span:
        tracer.enter(span)
    try:
        result = workload.execute(vs, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        seconds = time.perf_counter() - start
        return seconds, workloads.Checked(0, f"raised {exc!r}")
    finally:
        if span:
            tracer.exit()
    seconds = time.perf_counter() - start
    return seconds, workload.check(op, result)


def set_up(workload, seed):
    """Import, build the inputs, warm up: (seconds, vs, ops, checks)."""
    start = time.perf_counter()
    vs = import_program()
    ops = workload.build(vs, seed)
    checks = [measure(workload, vs, op)[1] for op in workload.warm_up(ops)]
    return time.perf_counter() - start, vs, ops, checks


def timed_run(workload, seed, seconds):
    """Closed loop over the operations for ``seconds``: end-to-end metrics."""
    setups, checks = [], []
    for _ in range(SETUPS):
        elapsed, vs, ops, warm = set_up(workload, seed)
        setups.append(elapsed)
        checks += warm
    gc.collect()
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(measure(workload, vs, ops[len(samples) % len(ops)]))
    times = [s for s, _ in samples]
    solver = [(s, c.iterations) for s, c in samples if c.iterations]
    p90 = (statistics.quantiles(times, n=10, method="inclusive")[-1]
           if len(times) > 1 else times[0])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "us_per_iter": (sum(s for s, _ in solver)
                        / max(sum(n for _, n in solver), 1) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"{len(samples)} timed operations", file=sys.stderr)
    return metrics, checks + [c for _, c in samples], True


def traced_run(workload, seed):
    """The same pass over the operations, untraced and traced.

    Order: untraced, traced with spans (times), untraced again, traced with
    spans and counters (counts; see ``layers``).  The two untraced passes
    bracket the timed traced one, so their mean is the baseline of
    ``trace.overhead_frac`` even while the machine's speed drifts.
    """
    _, vs, ops, checks = set_up(workload, seed)
    plain = ops * workload.trace_repeat

    def untraced_pass():
        gc.collect()
        start = time.perf_counter()
        checks.extend(measure(workload, vs, op)[1] for op in plain)
        return time.perf_counter() - start

    before = untraced_pass()
    tracer = tracing.Tracer()
    uninstall_spans = tracing.install_spans(tracer)
    try:
        with tracer.span("setup"):
            ops = workload.build(vs, seed)
            checks.extend(measure(workload, vs, op, tracer)[1]
                          for op in workload.warm_up(ops))
        ops = ops * workload.trace_repeat
        gc.collect()
        with tracer.span("ops"):
            traced = [measure(workload, vs, op, tracer)[1] for op in ops]
    finally:
        uninstall_spans()
    checks += traced
    untraced = (before + untraced_pass()) / 2.0

    uninstall_spans = tracing.install_spans(tracer)
    uninstall_counts = tracing.install_counts(tracer)
    try:
        gc.collect()
        with tracer.span("counts"):
            checks.extend(measure(workload, vs, op, tracer)[1] for op in ops)
    finally:
        uninstall_counts()
        uninstall_spans()

    accounted = True
    for root in ("setup", "ops", "counts"):
        gap = tracer.unaccounted(root)
        wall = tracer.spans[(root,)][layers.DURATION]
        if abs(gap) > 1e-9 * max(wall, 1.0):
            print(f"trace: self times under {root} miss its wall time "
                  f"by {gap:g} s", file=sys.stderr)
            accounted = False
    wall = tracer.spans[("ops",)][layers.DURATION]
    print(f"trace: {wall:.3f} s traced against {untraced:.3f} s untraced; "
          "self time by layer:", file=sys.stderr)
    for name, s in layers.self_time_by_layer(tracer, "ops").items():
        print(f"  {name:45s} {s:9.4f} s  {s / wall:6.1%}", file=sys.stderr)

    run_bytes = [c.output_bytes for op, c in zip(ops, traced)
                 if workload.span(op) == layers.CLI_RUN]
    values = layers.layer_metrics(
        tracer, untraced, statistics.mean(run_bytes) if run_bytes else 0.0)
    units = dict(layers.METRICS)
    return ({name: (v, units[name]) for name, v in values.items()},
            checks, accounted)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "viscosplit").is_dir():
        print(f"viscosplit sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = workloads.make(args.workload, ROOT, Path(tmp))
        if args.trace:
            metrics, checks, accounted = traced_run(workload, args.seed)
        else:
            metrics, checks, accounted = timed_run(
                workload, args.seed, args.seconds)

    failures = [c.failure for c in checks if c.failure]
    for failure in sorted(set(failures)):
        print(f"failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    print(json.dumps({
        "correct": not failures and accounted,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
