"""The stage points of a run's recorded states, stepped again.

``run()`` releases each state's stage points (delta, pi, phi_p, xi) once
it has audited them, so a test that reads them steps each recorded
state's recorded predecessor again with the public step of the run's
rule.  A recorded state has dropped its carried forward-backward point,
and the step forms that point again with the same arithmetic, so the
stepped state is the one ``run()`` audited, bit for bit.
"""
import functools

import numpy as np

from viscosplit.solvers import (initial_state, step_fc, step_forward_backward,
                                step_main, step_sow)

_STEPS = {"main": step_main, "sow": step_sow, "fc": step_fc,
          "forward_backward": step_forward_backward,
          "sow_phi": functools.partial(step_sow, use_phi=True)}


def restaged(report) -> list:
    """Every state of ``report.trajectory`` with its stage points.

    State 0 is built again by ``initial_state`` from the recorded start,
    each later state by stepping the state recorded before it, which must
    be its predecessor.  Each new iterate must equal the recorded one
    exactly.
    """
    problem, schedule = report.problem, report.schedule
    step = _STEPS[report.algorithm]
    states = [initial_state(problem, schedule, report.trajectory[0].psi)]
    for prev, state in zip(report.trajectory, report.trajectory[1:]):
        assert state.n == prev.n + 1, "a state between them was not recorded"
        states.append(step(problem, schedule, prev))
    for got, recorded in zip(states, report.trajectory):
        assert got.n == recorded.n
        assert np.array_equal(got.psi, recorded.psi)
        assert np.array_equal(got.psi_prev, recorded.psi_prev)
    return states
