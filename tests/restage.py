"""A run's recorded states, stepped again from its start.

``run()`` keeps the start and final states whole and, of every recorded
state in between, one row of scalars, so a test that reads an interior
state's vectors steps the start state again through every n with the
public step of the run's rule.  The start state has dropped its carried
forward-backward point, and the step forms that point again with the same
arithmetic, so every stepped state is the one ``run()`` audited, bit for
bit.  Each recorded row is checked against its stepped state, which makes
this helper an oracle of the table that shares no code with the recording
in ``run()``.
"""
import functools

import numpy as np

from viscosplit.hilbert import norm
from viscosplit.solvers import (COLUMNS, step_fc, step_forward_backward,
                                step_main, step_sow)

#: The public step of each rule.
STEP = {"main": step_main, "sow": step_sow, "fc": step_fc,
        "forward_backward": step_forward_backward,
        "sow_phi": functools.partial(step_sow, use_phi=True)}


def _same(got: float, want: float) -> bool:
    """Equal bit for bit, nan included."""
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def restaged(report) -> list:
    """Every recorded state of ``report.trajectory``, with its vectors.

    Steps ``trajectory[0]`` through every n up to the last recorded one.
    Each recorded row must equal its stepped state bit for bit, column by
    column name: its ``psi_norm`` is the state's and ``norm(psi)``, and
    its residuals, distance to the solution, alpha, mu and lam are the
    state's.  ``fejer_ok`` is the audit's, which a stepped state has not
    had.  The last stepped state's vectors must equal those of
    ``trajectory[-1]``.
    """
    problem, schedule = report.problem, report.schedule
    step = STEP[report.algorithm]
    trajectory = report.trajectory
    state, states = trajectory[0], []
    for values in trajectory.rows():
        row = dict(zip(COLUMNS, values))
        while state.n < row["n"]:
            state = step(problem, schedule, state)
        assert state.n == row["n"]
        assert _same(row["psi_norm"], norm(state.psi)), row
        assert all(_same(row[name], getattr(state, name))
                   for name in COLUMNS if name != "fejer_ok"), row
        states.append(state)
    last = trajectory[-1]
    for name in ("psi", "psi_prev", "delta", "pi", "phi", "xi"):
        assert np.array_equal(getattr(state, name), getattr(last, name))
    return states
