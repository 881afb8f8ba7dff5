"""The five update rules side by side on one instance.

"main" anchors the viscosity step at the third averaged point xi_n,
"sow" stops after two averaging stages and anchors at pi_n, "sow_phi"
anchors the same two stages at phi_n, "fc" anchors at xi_n without the
mixing weight mu_n, and "forward_backward" drops the averaging stages
entirely.  All four anchored variants share the same limit point.
"""
import numpy as np

from viscosplit import (ALGORITHMS, default_schedule_for, load_instance,
                        run)

problem = load_instance("inclusion_ball")
schedule = default_schedule_for(problem)
print(f"instance {problem.name}, dim {problem.dim}, "
      f"start {problem.default_start.tolist()}")
print()

finals = {}
header = f"{'algorithm':18s} {'terminated':11s} {'iters':>5s} {'final dist':>12s}"
print(header)
for algorithm in ALGORITHMS:
    report = run(algorithm, problem, schedule, tol=1e-8, max_iter=50_000)
    finals[algorithm] = report.final
    dist = report.trajectory[-1].dist_to_solution
    print(f"{algorithm:18s} {report.terminated_by:11s} "
          f"{report.iterations:5d} {dist:12.3e}")

print()
print("pairwise gaps between final iterates:")
names = list(finals)
for i, a in enumerate(names):
    for b in names[i + 1:]:
        gap = float(np.linalg.norm(finals[a] - finals[b]))
        print(f"  {a:14s} vs {b:14s} {gap:.3e}")
