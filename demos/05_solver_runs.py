"""End-to-end solver runs on the bundled problem catalog.

Each run validates its schedule, certifies the declared common points,
audits the monotone-distance chain and the boundedness estimate at every
iteration, and reports how it terminated.
"""
import numpy as np

from viscosplit import (audit_fejer_chain, boundedness_radius, catalog,
                        default_schedule_for, load_instance, run, step_main)

print("-- catalog --")
for name in sorted(catalog()):
    print(f"  {name}")

print()
print("-- a converging run on the box instance --")
problem = load_instance("inclusion_box", dim=2)
schedule = default_schedule_for(problem)
report = run("main", problem, schedule, tol=1e-8)
print(f"terminated by {report.terminated_by} after {report.iterations} "
      f"iterations")
final = report.trajectory[-1]
print(f"final iterate {np.round(report.final, 12).tolist()}, "
      f"distance to known solution {final.dist_to_solution:.2e}")
print(f"variational-inequality residual at the end: "
      f"{report.vi_residual:.2e}")
print(f"audits: {report.fejer_violations} chain violations, "
      f"{report.bound_violations} bound violations "
      f"across {report.audit_points} certified point(s)")

print()
print("-- what one recorded state carries --")
# run() keeps the start and the final state whole, and of every state in
# between one row of scalars; stepping the start again gives each state
# back with its vectors, bit for bit.
states = [report.trajectory[0]]
while states[-1].n < report.iterations:
    states.append(step_main(problem, schedule, states[-1]))
row, state = report.trajectory[5], states[5]
assert (row.n, row.residual_t1) == (state.n, state.residual_t1)
print(f"n={state.n}: psi={np.round(state.psi, 6).tolist()}, "
      f"alpha={row.alpha:g}, mu={row.mu:g}, lambda={row.lam:g}")
print(f"  stage residuals: T1 {row.residual_t1:.2e}, "
      f"T2 {row.residual_t2:.2e}, T3 {row.residual_t3:.2e}, "
      f"splitting {row.fb_residual:.2e}")
q = problem.known_common_points[0]
audit = audit_fejer_chain(state, q)
for name, lhs, rhs, ok in audit.links:
    print(f"  {name:12s} {lhs:.6f} <= {rhs:.6f}  {'ok' if ok else 'FAIL'}")

print()
print("-- the boundedness estimate --")
psi0 = report.trajectory[0].psi
radius = boundedness_radius(problem, schedule.mu_bar, psi0, q)
norms = max(float(np.linalg.norm(s.psi - q)) for s in states)
print(f"predicted radius around q: {radius:g}; "
      f"largest observed distance: {norms:g}")

print()
print("-- every catalog instance, default settings --")
for name in sorted(catalog()):
    problem = load_instance(name)
    report = run("main", problem, default_schedule_for(problem),
                 tol=1e-8, max_iter=20_000)
    print(f"  {name:18s} {report.terminated_by:10s} "
          f"iters={report.iterations:5d} "
          f"fejer={report.fejer_violations} bound={report.bound_violations}")

print()
print("trivial_collapse contracts by 1 - alpha_n*(1 - mu_n) per step, a")
print("harmonic-rate factor, so it needs far more than 2e4 iterations to")
print("reach 1e-8; the audits still hold at every recorded state.")
