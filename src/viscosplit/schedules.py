"""Parameter sequences and the named admissibility conditions.

The iteration consumes six scalar sequences indexed from n = 1: the anchor
weights alpha_n, the three averaging weights theta_n, beta_n, gamma_n, the
mixing weights mu_n, and the splitting steps lambda_n.  A schedule bundles
them with the step window and the mixing cap; the problem's constants they
must respect are a :class:`ViscosityParams`.  ``validate`` evaluates every
admissibility condition of a schedule against those constants by name and
returns a report instead of raising, so a caller can surface exactly which
condition failed.

Sequences built from the known families (constant, 1/(n+1), 1/(n+1)^2,
1 - c/(n+1)) carry their limits in closed form, which makes every liminf
condition exact.  Custom callables fall back to a horizon scan and the
affected conditions are flagged as empirical.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .hilbert import _is_real
from .monotone import wang_tau


class InfeasibleScheduleError(ValueError):
    """No admissible schedule exists for the given constants."""


# --------------------------------------------------------------------------
# Sequence families
# --------------------------------------------------------------------------

#: Names of the built-in families; each is also the name of the
#: :class:`ParamSeq` constructor that builds it.
SEQUENCE_FAMILIES = ("constant", "inverse", "inverse_square",
                     "approaching_one")


@dataclass(frozen=True)
class ParamSeq:
    """A scalar sequence s_n, n >= 1, from a small analyzable family.

    ``limit`` and ``divergent_sum`` are closed-form facts for the built-in
    families and optional declarations for custom callables; ``None`` means
    unknown, in which case validation falls back to sampling.
    """

    kind: str
    scale: float = 1.0
    fn: Callable[[int], float] | None = None
    limit: float | None = None
    divergent_sum: bool | None = None

    @staticmethod
    def constant(value: float) -> "ParamSeq":
        value = float(value)
        return ParamSeq("constant", value, limit=value,
                        divergent_sum=value > 0)

    @staticmethod
    def inverse(scale: float = 1.0) -> "ParamSeq":
        """s_n = scale / (n + 1): vanishing with a divergent sum."""
        return ParamSeq("inverse", float(scale), limit=0.0, divergent_sum=True)

    @staticmethod
    def inverse_square(scale: float = 1.0) -> "ParamSeq":
        """s_n = scale / (n + 1)^2: vanishing with a finite sum."""
        return ParamSeq("inverse_square", float(scale), limit=0.0,
                        divergent_sum=False)

    @staticmethod
    def approaching_one(scale: float = 1.0) -> "ParamSeq":
        """s_n = 1 - scale / (n + 1): drifts to the boundary value 1."""
        return ParamSeq("approaching_one", float(scale), limit=1.0,
                        divergent_sum=True)

    @staticmethod
    def custom(fn: Callable[[int], float], limit: float | None = None,
               divergent_sum: bool | None = None) -> "ParamSeq":
        return ParamSeq("custom", fn=fn, limit=limit,
                        divergent_sum=divergent_sum)

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"sequences are indexed from 1, got n={n}")
        if self.kind == "custom":
            return float(self.fn(n))
        return self._closed_form(n)

    def _closed_form(self, n):
        """s_n of a built-in family, for an index or an array of indices."""
        if self.kind == "constant":
            return self.scale
        if self.kind == "inverse":
            return self.scale / (n + 1)
        if self.kind == "inverse_square":
            return self.scale / (n + 1) ** 2
        if self.kind == "approaching_one":
            return 1.0 - self.scale / (n + 1)
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    def values(self, horizon: int) -> np.ndarray:
        """s_1, ..., s_horizon.  The built-in families are one array
        expression, equal bit for bit to calling the sequence per index."""
        if self.kind == "custom":
            fn = self.fn
            return np.array([float(fn(n)) for n in range(1, horizon + 1)])
        n = np.arange(1, horizon + 1, dtype=float)
        return np.full(horizon, self._closed_form(n))

    def extremes(self, horizon: int) -> tuple[float, float]:
        """The least and the largest of s_1, ..., s_horizon, equal to those
        of :meth:`values`.  A built-in family is monotone in n, and so is
        each rounded value, so its extremes are s_1 and s_horizon."""
        if self.kind == "custom":
            return _extremes(self.values(horizon))
        first, last = float(self(1)), float(self(horizon))
        return min(first, last), max(first, last)


def _extremes(vals: np.ndarray) -> tuple[float, float]:
    """The least and the largest of ``vals``; nan if any value is nan."""
    return float(np.min(vals)), float(np.max(vals))


def _liminf_of(f: Callable[[np.ndarray], np.ndarray],
               tail: float | np.ndarray) -> float:
    """liminf of f(s_n), as the least f over ``tail``: a declared limit (a
    number), or the second half of the horizon values (an array).

    For a declared limit f(limit) is the true liminf because f is
    continuous and the sequence is convergent.  A nan anywhere in the tail
    makes the liminf nan, so no condition on it holds.
    """
    if isinstance(tail, np.ndarray):
        return float(np.min(f(tail)))
    return float(f(float(tail)))


# --------------------------------------------------------------------------
# Constants attached to the viscosity step
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ViscosityParams:
    """The problem's constants: those of the anchor step, psi+ includes
    alpha*gamma*phi(psi) and (1 - mu)*(psi - eta*alpha*Strong(psi)), and
    the two that bound the averaging weights and the splitting step.

    ``gamma`` scales the contraction phi (Lipschitz constant ``b``); ``eta``
    scales the strongly monotone operator with modulus ``k`` and Lipschitz
    constant ``L``.  ``tau`` is the induced contraction margin.
    ``beta_demi`` is the largest demicontractivity constant among the
    mappings, which theta_n and beta_n must stay above, and ``alpha_ism``
    the forward operator's ism modulus, which sets the splitting-step
    window (0, min(1, 2*alpha_ism)).  Each constant must be a real number
    (not a bool), and construction raises
    :class:`InfeasibleScheduleError` unless ``beta_demi`` lies in [0, 1)
    and ``alpha_ism`` > 0; the other ranges are named conditions, see
    :data:`STATIC_CONDITIONS`.

    This is the standalone input of :func:`validate` and
    :func:`default_schedule`.  A problem instance builds its own from its
    ``gamma`` and ``eta``, its mappings and the constants its operators
    declare, so each constant has one home there (see
    :class:`~viscosplit.solvers.ProblemInstance`).
    """

    gamma: float
    eta: float
    k: float
    L: float
    b: float
    beta_demi: float
    alpha_ism: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_real(value):
                raise TypeError(
                    f"{f.name} must be a real number, got {value!r}")
        if not 0.0 <= self.beta_demi < 1.0:
            raise InfeasibleScheduleError(
                f"beta_demi = {self.beta_demi} must lie in [0, 1)")
        if not self.alpha_ism > 0:
            raise InfeasibleScheduleError("alpha_ism must be positive")

    @property
    def tau(self) -> float:
        return wang_tau(self.eta, self.k, self.L)

    @property
    def lam_mid(self) -> float:
        """The midpoint of the splitting-step window: the default schedule's
        constant step, and the step of certification and of the resolvent
        audit."""
        return step_window(self.alpha_ism) / 2.0

    def margin(self, mu_bar: float) -> float:
        """The anchor step's contraction margin tau*(1 - mu_bar) - gamma*b,
        positive for an admissible mixing cap ``mu_bar``."""
        return self.tau * (1.0 - mu_bar) - self.gamma * self.b

    def violations(self) -> list[str]:
        """Names of the static constant conditions that fail; empty is good."""
        return [name for name, holds in STATIC_CONDITIONS if not holds(self)]


#: The static constant conditions, in report order, as (name, holds(params)).
STATIC_CONDITIONS = (
    ("k > 0", lambda p: p.k > 0),
    ("L > 0", lambda p: p.L > 0),
    ("k <= L (strong monotonicity cannot exceed Lipschitz)",
     lambda p: not p.k > p.L),
    ("b > 0", lambda p: p.b > 0),
    ("gamma > 0", lambda p: p.gamma > 0),
    ("0 < eta < 2k/L^2",
     lambda p: not p.L > 0 or 0.0 < p.eta < 2.0 * p.k / p.L ** 2),
    ("0 < gamma*b < tau", lambda p: 0.0 < p.gamma * p.b < p.tau),
)


def step_window(alpha_ism: float) -> float:
    """The upper end of the splitting-step window (0, min(1, 2*alpha_ism))
    for a forward operator with ism modulus ``alpha_ism``."""
    return min(1.0, 2.0 * alpha_ism)


@dataclass(frozen=True)
class Schedule:
    """Six sequences plus the window and cap their conditions refer to.

    ``interval`` is the compact window [a, b] that lambda_n must stay in,
    itself required to sit inside (0, min(1, 2*alpha_ism)).  ``mu_bar`` caps
    mu_n.  ``strict_paper`` switches the anchor-weight sum condition from
    divergent to summable.  The problem's constants, beta_demi and
    alpha_ism among them, are not part of a schedule: :func:`validate`
    takes them as its :class:`ViscosityParams`.  Construction raises
    ``ValueError`` unless a <= b.
    """

    alpha: ParamSeq
    theta: ParamSeq
    beta: ParamSeq
    gamma: ParamSeq
    mu: ParamSeq
    lam: ParamSeq
    interval: tuple[float, float]
    mu_bar: float
    strict_paper: bool = False

    def __post_init__(self):
        a, b = self.interval
        if not a <= b:
            raise ValueError("interval must satisfy a <= b")


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class ConditionResult:
    """One named condition's verdict; ``passed`` is a plain ``bool``."""

    name: str
    passed: bool
    detail: str = ""
    value: float | None = None
    empirical: bool = False

    def __init__(self, name: str, passed: bool, detail: str = "",
                 value: float | None = None, empirical: bool = False):
        # Written to the instance dict: the generated frozen __init__
        # would pay one object.__setattr__ per field.
        fields = self.__dict__
        fields["name"], fields["passed"], fields["detail"] = (
            name, bool(passed), detail)
        fields["value"], fields["empirical"] = value, empirical


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.conditions:
            tag = "ok" if c.passed else "FAIL"
            extra = " (empirical)" if c.empirical else ""
            lines.append(f"[{tag}] {c.name}{extra}" +
                         (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _in_band(extremes: tuple[float, float], limit: float | None,
             low: float, high: float, closed: bool = False) -> bool:
    """The band rule: every horizon value in (low, high), or in [low, high]
    when ``closed``, and a declared ``limit`` in the closure [low, high].
    The horizon values enter by their ``extremes``, a nan one failing."""
    least, most = extremes
    if closed:
        inside = least >= low and most <= high
    else:
        inside = least > low and most < high
    return inside and (limit is None or low <= limit <= high)


#: Number of leading sequence values :func:`validate` scans.
VALIDATION_HORIZON = 500


def validate(schedule: Schedule, params: ViscosityParams) -> ValidationReport:
    """Evaluate every named admissibility condition for a schedule.

    Nothing is raised; the report lists each condition with its verdict.
    Conditions whose verdict needed sampling over the first
    :data:`VALIDATION_HORIZON` values (custom sequences with no declared
    limit) are marked empirical.
    """
    horizon = VALIDATION_HORIZON
    conds: list[ConditionResult] = []

    # Static constant conditions, including the coupling 0 < gamma*b < tau.
    details = {"0 < gamma*b < tau":
               f"gamma*b = {params.gamma * params.b:g}, tau = {params.tau:g}"}
    for name, holds in STATIC_CONDITIONS:
        conds.append(ConditionResult(name, holds(params),
                                     details.get(name, "")))

    # Whether each sequence's verdicts are sampled from its horizon values:
    # exact when its limit is declared.  The band and cap rules read only
    # the least and largest values; all the values, computed once, are
    # kept only where a verdict samples them: a liminf over the second half
    # of a sampled sequence, and alpha's decay and sum when sampled.  A
    # liminf is taken at the declared limit otherwise.
    seqs = {"alpha": schedule.alpha, "theta": schedule.theta,
            "beta": schedule.beta, "gamma": schedule.gamma,
            "mu": schedule.mu, "lambda": schedule.lam}
    sampled = {label: seq.limit is None for label, seq in seqs.items()}
    vals = {label: seq.values(horizon) for label, seq in seqs.items()
            if sampled[label]
            or label == "alpha" and seq.divergent_sum is None}
    spans = {label: _extremes(vals[label]) if label in vals
             else seq.extremes(horizon) for label, seq in seqs.items()}
    tails = {label: vals[label][horizon // 2:] if sampled[label]
             else seq.limit for label, seq in seqs.items()}

    # All six sequences inside (0, 1).
    outside = [label for label, seq in seqs.items()
               if not _in_band(spans[label], seq.limit, 0.0, 1.0)]
    conds.append(ConditionResult(
        "sequences take values in (0, 1)", not outside,
        f"{outside[-1]}_n leaves (0, 1)" if outside else "",
        empirical=any(sampled.values())))

    # Condition (i): the anchor weights vanish, with the adopted sum
    # reading; a declared divergent_sum makes the sum verdict exact.  A
    # sampled alpha must end small, below its start, and still falling
    # over the second half of the horizon (by a fifth at least, as 1/n
    # falls by half), so a plateau such as a small constant fails.
    alpha, alpha_vals = schedule.alpha, vals.get("alpha")
    if sampled["alpha"]:
        to_zero = np.all(alpha_vals[-1] <= np.array(
            (0.05, alpha_vals[0], 0.8 * alpha_vals[horizon // 2])))
    else:
        to_zero = alpha.limit == 0.0
    conds.append(ConditionResult("condition (i): alpha_n -> 0", to_zero,
                                 empirical=sampled["alpha"]))

    sum_sampled = alpha.divergent_sum is None
    if sum_sampled:
        # Compare consecutive partial-sum chunks; a divergent tail keeps
        # contributing at a comparable rate, a summable one decays.
        chunk_late = float(np.sum(alpha_vals[horizon // 2:]))
        chunk_early = float(np.sum(alpha_vals[horizon // 4: horizon // 2]))
        diverges = chunk_late >= 0.8 * chunk_early
    else:
        diverges = alpha.divergent_sum
    if schedule.strict_paper:
        name, holds = ("condition (i, strict): sum alpha_n < infinity",
                       not diverges)
    else:
        name, holds = "condition (i): sum alpha_n = infinity", diverges
    conds.append(ConditionResult(name, holds, empirical=sum_sampled))

    # Condition (ii): the splitting steps stay in [a, b] inside the window.
    a, b = schedule.interval
    window = step_window(params.alpha_ism)
    conds.append(ConditionResult(
        "condition (ii): lambda_n in [a, b] within (0, min(1, 2*alpha_ism))",
        0.0 < a <= b < window and _in_band(spans["lambda"],
                                           schedule.lam.limit, a, b,
                                           closed=True),
        f"[a, b] = [{a:g}, {b:g}], window (0, {window:g})",
        empirical=sampled["lambda"]))

    # Condition (ii): theta_n and beta_n stay strictly above the
    # demicontractivity constant with a positive liminf gap.
    demi = params.beta_demi
    for label in ("theta", "beta"):
        gap = _liminf_of(lambda s: (1.0 - s) * (s - demi), tails[label])
        conds.append(ConditionResult(
            f"condition (ii): {label}_n in (beta_demi, 1) with "
            f"liminf (1 - {label}_n)({label}_n - beta_demi) > 0",
            _in_band(spans[label], seqs[label].limit, demi, 1.0)
            and gap > 0.0,
            f"liminf gap = {gap:g}", value=gap, empirical=sampled[label]))

    # Condition (iii): the three averaging products keep a positive liminf.
    for label in ("gamma", "beta", "theta"):
        prod = _liminf_of(lambda s: (1.0 - s) * s, tails[label])
        conds.append(ConditionResult(
            f"condition (iii): liminf (1 - {label}_n) {label}_n > 0",
            prod > 0.0, f"liminf product = {prod:g}", value=prod,
            empirical=sampled[label]))

    # The mixing weights respect the cap that keeps the anchor contraction.
    sup_mu = spans["mu"][1]
    if not sampled["mu"]:
        sup_mu = max(sup_mu, schedule.mu.limit)
    margin = params.margin(schedule.mu_bar)
    conds.append(ConditionResult(
        "mu_n <= mu_bar with tau*(1 - mu_bar) > gamma*b",
        sup_mu <= schedule.mu_bar and margin > 0.0,
        f"sup mu_n = {sup_mu:g}, mu_bar = {schedule.mu_bar:g}, "
        f"margin = {margin:g}",
        value=margin, empirical=sampled["mu"]))

    return ValidationReport(tuple(conds))


# --------------------------------------------------------------------------
# Default construction
# --------------------------------------------------------------------------

def default_schedule(params: ViscosityParams, mu_bar: float | None = None,
                     strict_paper: bool = False) -> Schedule:
    """An admissible schedule from the problem constants alone.

    Uses alpha_n = 1/(n+1) (or 1/(n+1)^2 under ``strict_paper``), constant
    theta_n = beta_n = (1 + beta_demi)/2, gamma_n = 1/2, a constant
    splitting step lambda_n = min(1, 2*alpha_ism)/2 (``params.lam_mid``),
    and a constant mixing weight mu_n = mu_bar, defaulting to
    0.8*(tau - gamma*b)/tau, with every constant read from ``params``.
    Raises :class:`InfeasibleScheduleError` when the constants admit no
    schedule.
    """
    bad = params.violations()
    if bad:
        raise InfeasibleScheduleError(
            "constants violate: " + "; ".join(bad))

    tau = params.tau
    if mu_bar is None:
        mu_bar = 0.8 * params.margin(0.0) / tau
    if not 0.0 < mu_bar < 1.0 or params.margin(mu_bar) <= 0:
        raise InfeasibleScheduleError(
            f"mu_bar = {mu_bar:g} leaves no contraction margin "
            f"(tau = {tau:g}, gamma*b = {params.gamma * params.b:g})")

    mid = (1.0 + params.beta_demi) / 2.0
    lam_value = params.lam_mid
    alpha = (ParamSeq.inverse_square() if strict_paper else ParamSeq.inverse())
    return Schedule(
        alpha=alpha,
        theta=ParamSeq.constant(mid),
        beta=ParamSeq.constant(mid),
        gamma=ParamSeq.constant(0.5),
        mu=ParamSeq.constant(mu_bar),
        lam=ParamSeq.constant(lam_value),
        interval=(lam_value, lam_value),
        mu_bar=mu_bar,
        strict_paper=strict_paper,
    )
