"""Parameter sequences, admissibility conditions, and schedule building.

All scalar sequences feeding the iteration live in small analyzable
families so the liminf conditions can be decided in closed form.  The
validator names every condition it checks; a failed run tells you which
hypothesis the schedule broke, not just that something was off.
"""
import dataclasses

from viscosplit import (InfeasibleScheduleError, ParamSeq, ViscosityParams,
                        default_schedule, validate)

print("-- sequence families (indexed from n = 1) --")
for seq, label in [(ParamSeq.inverse(), "1/(n+1)"),
                   (ParamSeq.inverse_square(), "1/(n+1)^2"),
                   (ParamSeq.approaching_one(0.5), "1 - 0.5/(n+1)"),
                   (ParamSeq.constant(0.75), "constant 0.75")]:
    vals = ", ".join(f"{seq(n):g}" for n in (1, 2, 3, 10))
    print(f"  {label:16s} n=1,2,3,10 -> {vals}   "
          f"limit={seq.limit}, divergent sum={seq.divergent_sum}")

print()
print("-- a default schedule from problem constants --")
# A problem instance derives these from its operators and mappings
# (ProblemInstance.params); here they are written out by hand.
params = ViscosityParams(gamma=0.25, eta=1.0, k=1.0, L=1.0, b=1.0,
                         beta_demi=0.5, alpha_ism=1.0)
print(f"tau = {params.tau:g}, gamma*b = {params.gamma * params.b:g}, "
      f"beta_demi = {params.beta_demi:g}, alpha_ism = {params.alpha_ism:g}")
schedule = default_schedule(params)
print(f"alpha_1 = {schedule.alpha(1):g}, theta = {schedule.theta(1):g}, "
      f"lambda window = {schedule.interval}, mu_bar = {schedule.mu_bar:g}")
report = validate(schedule, params)
print(report.summary())

print()
print("-- named failures --")
bad = dataclasses.replace(schedule, gamma=ParamSeq.approaching_one())
report = validate(bad, params)
for failure in report.failures():
    print(f"  FAIL {failure.name}")
    print(f"       {failure.detail}")

try:
    default_schedule(dataclasses.replace(params, b=3.0))
except InfeasibleScheduleError as exc:
    print(f"  infeasible constants rejected up front: {exc}")

print()
print("-- strict summable-anchor mode --")
strict = default_schedule(params, strict_paper=True)
report = validate(strict, params)
sum_conditions = [c for c in report.conditions if "sum alpha_n" in c.name]
for c in sum_conditions:
    print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}")
