"""Command line front end; README's "Command line" section has the config
format.

  run <config.json> [--out DIR] [--seed N]   execute every cell in a config
  check <instance-id> [--seed N]             audit an instance's declared classes
  validate <config.json>                     parse and pre-validate a config

Exit codes: 0 success, 1 non-convergence / divergence / audit failure,
2 invalid configuration, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problems import catalog, default_schedule_for, load_instance
from .schedules import (SEQUENCE_FAMILIES, InfeasibleScheduleError,
                        ParamSeq, validate)
from .solvers import (COLUMNS, ScheduleValidationError, audit_instance,
                      check_run_arguments, require_admissible,
                      run as run_solver)

CSV_HEADER = ("n,psi_norm,dist_to_solution,delta_residual_T1,"
              "pi_residual_T2,phi_residual_T3,fb_residual,fejer_ok,"
              "step_size_alpha")

_CELL_ID = re.compile(r"^[A-Za-z0-9._-]+$")

_PLAIN_CELL_KEYS = {"id", "algorithm", "instance", "psi0", "tol",
                    "max_iter", "record_stride"}

_EXPECTED = {float: "a finite number", bool: "true or false",
             int: "an integer"}


class ConfigError(ValueError):
    pass


@dataclass
class Cell:
    id: str
    algorithm: str
    instance_id: str
    problem: object
    schedule: object
    psi0: object
    tol: float
    max_iter: int
    record_stride: int | None
    seed: int | None


def _fmt(x) -> str:
    return repr(float(x))


def _read(value, kind: type, what: str):
    """``value`` as a finite float, a bool or an int, by ``kind``.

    JSON true/false are booleans only, never numbers.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        ok = number and isinstance(value, int)
    else:
        ok = number and abs(value) <= sys.float_info.max
    if not ok:
        raise ConfigError(f"{what} must be {_EXPECTED[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _build_schedule(problem, overrides: dict):
    kwargs = {}
    if "mu_bar" in overrides:
        kwargs["mu_bar"] = _read(overrides.pop("mu_bar"), float,
                                 "schedule.mu_bar")
    if "strict_paper" in overrides:
        kwargs["strict_paper"] = _read(overrides.pop("strict_paper"), bool,
                                       "schedule.strict_paper")
    schedule = default_schedule_for(problem, **kwargs)
    interval = overrides.pop("interval", None)
    seq_updates = {}
    for key, spec in overrides.items():
        if key not in ("alpha", "theta", "beta", "gamma", "mu", "lam"):
            raise ConfigError(f"unknown schedule key {key!r}")
        if (not isinstance(spec, dict)
                or spec.get("kind") not in SEQUENCE_FAMILIES):
            raise ConfigError(
                f"schedule.{key} must be an object with kind in "
                f"{sorted(SEQUENCE_FAMILIES)}")
        unknown = sorted(set(spec) - {"kind", "scale"})
        if unknown:
            raise ConfigError(f"unknown schedule.{key} keys: {unknown}")
        seq_updates[key] = getattr(ParamSeq, spec["kind"])(
            _read(spec.get("scale", 1.0), float, f"schedule.{key}.scale"))
    if seq_updates or interval is not None:
        if interval is not None:
            if (not isinstance(interval, (list, tuple)) or len(interval) != 2):
                raise ConfigError("schedule.interval must be [a, b]")
            seq_updates["interval"] = tuple(
                _read(v, float, "schedule.interval entries") for v in interval)
        elif "lam" in seq_updates and seq_updates["lam"].kind == "constant":
            c = seq_updates["lam"].scale
            seq_updates["interval"] = (c, c)
        try:
            schedule = dataclasses.replace(schedule, **seq_updates)
        except ValueError as exc:
            raise ConfigError(f"invalid schedule: {exc}") from None
    return schedule


def _build_cell(raw: dict, default_seed) -> Cell:
    if not isinstance(raw, dict):
        raise ConfigError("each cell must be an object")
    unknown = [k for k in raw
               if k not in _PLAIN_CELL_KEYS
               and not k.startswith(("instance.", "schedule."))]
    if unknown:
        raise ConfigError(f"unknown cell keys: {sorted(unknown)}")
    for key in ("id", "algorithm", "instance"):
        if key not in raw:
            raise ConfigError(f"cell is missing required key {key!r}")
    cell_id = raw["id"]
    if not isinstance(cell_id, str) or not _CELL_ID.match(cell_id):
        raise ConfigError(
            f"cell id {cell_id!r} must match [A-Za-z0-9._-]+")
    algorithm = raw["algorithm"]
    tol = _read(raw.get("tol", 1e-8), float, "tol")
    max_iter, stride = raw.get("max_iter", 100_000), raw.get("record_stride")
    try:
        check_run_arguments(tol, max_iter, stride, algorithm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    inst_kwargs = {k.split(".", 1)[1]: v for k, v in raw.items()
                   if k.startswith("instance.")}
    try:
        problem = load_instance(raw["instance"], **inst_kwargs)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None
    except TypeError as exc:
        raise ConfigError(
            f"bad parameters for instance {raw['instance']!r}: {exc}") from None
    except (ValueError, MemoryError) as exc:
        # numpy refuses an array of a huge dim with a MemoryError.
        raise ConfigError(
            f"invalid instance parameters: {exc}") from None

    sched_overrides = {k.split(".", 1)[1]: v for k, v in raw.items()
                       if k.startswith("schedule.")}
    try:
        schedule = _build_schedule(problem, sched_overrides)
        require_admissible(schedule, problem)
    except InfeasibleScheduleError as exc:
        raise ConfigError(f"infeasible schedule: {exc}") from None
    except ScheduleValidationError as exc:
        raise ConfigError(f"cell {cell_id!r}: {exc}") from None

    psi0 = raw.get("psi0")
    if psi0 is not None:
        values = psi0 if isinstance(psi0, list) else [psi0]
        psi0 = np.array([_read(v, float, "psi0 entries") for v in values])
        if psi0.size != problem.dim:
            raise ConfigError(
                f"psi0 has dimension {psi0.size}, instance needs {problem.dim}")

    return Cell(id=cell_id, algorithm=algorithm, instance_id=raw["instance"],
                problem=problem, schedule=schedule, psi0=psi0, tol=tol,
                max_iter=max_iter, record_stride=stride, seed=default_seed)


def _read_config(path) -> str:
    """The text of the config file at ``path``, read as UTF-8 whatever the
    locale and without a leading byte-order mark; a file that does not
    decode is a :class:`ConfigError`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def parse_config(text: str, seed_override=None) -> list[Cell]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    unknown = [k for k in data if k not in ("cells", "seed")]
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    cells_raw = data.get("cells")
    if not isinstance(cells_raw, list) or not cells_raw:
        raise ConfigError("config needs a nonempty 'cells' list")
    seed = seed_override if seed_override is not None else data.get("seed")
    if seed is not None:
        _read(seed, int, "seed")
    cells = [_build_cell(raw, seed) for raw in cells_raw]
    ids = [c.id for c in cells]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate cell ids: {sorted(ids)}")
    return cells


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _write_csv(path: Path, report) -> None:
    # The CSV's columns, picked from each row by name.
    pick = operator.itemgetter(*map(COLUMNS.index, (
        "n", "psi_norm", "dist_to_solution", "residual_t1", "residual_t2",
        "residual_t3", "fb_residual", "fejer_ok", "alpha")))
    lines = [CSV_HEADER]
    for row in report.trajectory.rows():
        n, *values, fejer, alpha = pick(row)
        lines.append(",".join([
            str(int(n)), *map(_fmt, values),
            "nan" if fejer != fejer else str(int(fejer)), _fmt(alpha)]))
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, cell: Cell, report) -> None:
    payload = {"cell": cell.id, "seed": cell.seed, **report.summary_dict()}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_run(args) -> int:
    cells = parse_config(_read_config(args.config), seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_ok = True
    for cell in cells:
        # parse_config has validated every cell's schedule already.
        report = run_solver(
            cell.algorithm, cell.problem, cell.schedule, psi0=cell.psi0,
            tol=cell.tol, max_iter=cell.max_iter, check_schedule=False,
            record_stride=cell.record_stride)
        _write_csv(out_dir / f"{cell.id}.csv", report)
        _write_summary(out_dir / f"{cell.id}.json", cell, report)
        clean = (report.terminated_by == "tolerance"
                 and report.fejer_violations == 0
                 and report.bound_violations == 0)
        all_ok = all_ok and clean
        print(f"cell {cell.id}: {cell.algorithm} on {cell.instance_id} "
              f"-> {report.terminated_by} after {report.iterations} "
              f"iterations, fejer_violations={report.fejer_violations}, "
              f"bound_violations={report.bound_violations}")
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def _print_audit(name: str, result) -> bool:
    """Print one audit's line under ``name``; return whether it passed."""
    tag = "ok" if result.passed else "FAIL"
    note = f" [{result.note}]" if result.note else ""
    print(f"[{tag}] {name}: worst slack {result.worst_slack:g} "
          f"over {result.checked} checks{note}")
    return result.passed


def _cmd_check(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, "
                          f"got {args.seed}")
    try:
        problem = load_instance(args.instance)
    except KeyError as exc:
        print(f"config error: {exc.args[0]}", file=sys.stderr)
        return 2
    # A list, not a generator: all() would stop at the first failed line.
    ok = all([_print_audit(label, res)
              for label, res in audit_instance(problem, args.seed)])

    # Building the instance has certified each declared common point.
    for q in problem.known_common_points:
        print(f"[ok] common point {q.tolist()}: certified")

    report = validate(default_schedule_for(problem), problem.params)
    tag = "ok" if report.ok else "FAIL"
    print(f"[{tag}] default schedule admissibility")
    if not report.ok:
        print(report.summary())
    ok = ok and report.ok

    return 0 if ok else 1


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    cells = parse_config(_read_config(args.config))
    for cell in cells:
        print(f"cell {cell.id}: algorithm={cell.algorithm} "
              f"instance={cell.instance_id} dim={cell.problem.dim} "
              f"tol={cell.tol:g} max_iter={cell.max_iter}")
    print(f"{len(cells)} cell(s) valid")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="viscosplit",
        description="Viscosity forward-backward splitting runs and audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every cell of a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None)

    p_check = sub.add_parser("check", help="audit a catalog instance")
    p_check.add_argument("instance",
                         help="one of: " + ", ".join(sorted(catalog())))
    p_check.add_argument("--seed", type=int, default=0)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
