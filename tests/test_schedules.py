import dataclasses

import numpy as np
import pytest

from viscosplit.schedules import (InfeasibleScheduleError, ParamSeq,
                                  ViscosityParams, default_schedule, validate)


def reference_params(b=1.0, gamma=0.25):
    # eta = k = L = 1 gives tau = 1/2.
    return ViscosityParams(gamma=gamma, eta=1.0, k=1.0, L=1.0, b=b)


class TestParamSeq:
    def test_families(self):
        assert ParamSeq.constant(0.3)(7) == 0.3
        assert ParamSeq.inverse()(1) == 0.5
        assert ParamSeq.inverse()(3) == 0.25
        assert ParamSeq.inverse_square()(1) == 0.25
        assert ParamSeq.approaching_one()(1) == 0.5
        assert ParamSeq.approaching_one()(99) == 0.99

    def test_indexing_starts_at_one(self):
        with pytest.raises(ValueError):
            ParamSeq.inverse()(0)

    def test_closed_form_facts(self):
        assert ParamSeq.inverse().limit == 0.0
        assert ParamSeq.inverse().divergent_sum is True
        assert ParamSeq.inverse_square().divergent_sum is False
        assert ParamSeq.approaching_one().limit == 1.0
        assert ParamSeq.custom(lambda n: 1.0 / n).limit is None

    def test_values_scan(self):
        vals = ParamSeq.inverse().values(3)
        assert np.allclose(vals, [0.5, 1 / 3, 0.25])

    @pytest.mark.parametrize("seq", [
        ParamSeq.constant(0.3), ParamSeq.inverse(0.7),
        ParamSeq.inverse_square(1.3), ParamSeq.approaching_one(0.9),
        ParamSeq.custom(lambda n: 0.4 + 0.1 / (n + 1))],
        ids=lambda seq: seq.kind)
    @pytest.mark.parametrize("horizon", [1, 500, 4097])
    def test_values_equal_the_per_index_sequence(self, seq, horizon):
        expected = [seq(n) for n in range(1, horizon + 1)]
        assert np.array_equal(seq.values(horizon), expected)


class TestViscosityParams:
    def test_tau(self):
        assert reference_params().tau == 0.5

    def test_clean_params_have_no_violations(self):
        assert reference_params().violations() == []

    def test_named_violations(self):
        assert "0 < gamma*b < tau" in reference_params(b=3.0).violations()
        assert "0 < eta < 2k/L^2" in ViscosityParams(
            0.25, 2.5, 1.0, 1.0, 1.0).violations()
        assert any("k <= L" in v for v in ViscosityParams(
            0.25, 0.5, 2.0, 1.0, 0.1).violations())


class TestDefaultSchedule:
    def test_reference_values(self):
        sched = default_schedule(reference_params(), beta_demi=0.5,
                                 alpha_ism=1.0)
        assert sched.alpha(1) == 0.5          # 1/(n+1) at n = 1
        assert sched.theta(5) == 0.75         # (1 + beta_demi)/2
        assert sched.beta(5) == 0.75
        assert sched.gamma(5) == 0.5
        assert sched.lam(5) == 0.5            # min(1, 2*alpha_ism)/2
        assert sched.interval == (0.5, 0.5)
        # mu_bar = 0.8*(tau - gamma*b)/tau with tau = 1/2, gamma*b = 1/4.
        assert sched.mu_bar == pytest.approx(0.4, abs=1e-15)
        assert sched.mu(9) == sched.mu_bar

    def test_default_passes_validation(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        report = validate(sched, params)
        assert report.ok, report.summary()
        assert not any(c.empirical for c in report.conditions)

    def test_strict_paper_flips_sum_condition(self):
        params = reference_params()
        strict = default_schedule(params, beta_demi=0.5, alpha_ism=1.0,
                                  strict_paper=True)
        assert strict.alpha.divergent_sum is False
        report = validate(strict, params)
        assert report.ok, report.summary()
        # The strict-mode alpha sequence fails the default-mode reading.
        loosened = dataclasses.replace(strict, strict_paper=False)
        bad = validate(loosened, params).failures()
        assert any("sum alpha_n = infinity" in c.name for c in bad)

    def test_infeasible_constants_raise(self):
        with pytest.raises(InfeasibleScheduleError):
            default_schedule(reference_params(b=3.0), beta_demi=0.5,
                             alpha_ism=1.0)
        with pytest.raises(InfeasibleScheduleError):
            default_schedule(reference_params(), beta_demi=1.0,
                             alpha_ism=1.0)
        with pytest.raises(InfeasibleScheduleError):
            default_schedule(reference_params(), beta_demi=0.5,
                             alpha_ism=1.0, mu_bar=0.99)

    def test_nonpositive_ism_modulus_raises(self):
        with pytest.raises(InfeasibleScheduleError, match="alpha_ism"):
            default_schedule(reference_params(), beta_demi=0.5, alpha_ism=0)

    def test_nan_ism_modulus_raises(self):
        # min(1, 2*nan) is 1, so only the modulus check itself catches it.
        with pytest.raises(InfeasibleScheduleError, match="alpha_ism"):
            default_schedule(reference_params(), beta_demi=0.5,
                             alpha_ism=float("nan"))


class TestValidationNegatives:
    def test_sequence_leaving_unit_interval_rejected(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        # theta_1 = 2/2 = 1 lies outside (0, 1).
        outside = dataclasses.replace(sched, theta=ParamSeq.inverse(2.0))
        failed = {c.name: c for c in validate(outside, params).failures()}
        unit = failed["sequences take values in (0, 1)"]
        assert unit.detail == "theta_n leaves (0, 1)"

    def test_beta_at_demicontractivity_constant_rejected(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        stuck = dataclasses.replace(sched, beta=ParamSeq.constant(0.5))
        failures = [c.name for c in validate(stuck, params).failures()]
        assert any("condition (ii): beta_n in (beta_demi, 1)" in n
                   for n in failures)

    def test_gamma_drifting_to_one_rejected(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        drifty = dataclasses.replace(sched, gamma=ParamSeq.approaching_one())
        failures = [c.name for c in validate(drifty, params).failures()]
        assert any("condition (iii): liminf (1 - gamma_n) gamma_n > 0" == n
                   for n in failures)

    def test_gamma_b_coupling_rejected_by_name(self):
        params = reference_params(b=3.0)  # gamma*b = 0.75 >= tau = 0.5
        sched = default_schedule(reference_params(), beta_demi=0.5,
                                 alpha_ism=1.0)
        failures = [c.name for c in validate(sched, params).failures()]
        assert "0 < gamma*b < tau" in failures

    def test_mu_cap_enforced(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        greedy = dataclasses.replace(sched, mu=ParamSeq.constant(0.9))
        failures = [c.name for c in validate(greedy, params).failures()]
        assert any(n.startswith("mu_n <= mu_bar") for n in failures)

    def test_lambda_window(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        wide = dataclasses.replace(sched, lam=ParamSeq.constant(0.9),
                                    interval=(0.9, 1.2))
        failures = [c.name for c in validate(wide, params).failures()]
        assert any("lambda_n in [a, b]" in n for n in failures)

    def test_custom_sequences_marked_empirical(self):
        params = reference_params()
        sched = default_schedule(params, beta_demi=0.5, alpha_ism=1.0)
        custom = dataclasses.replace(sched, mu=ParamSeq.custom(lambda n: 0.4))
        report = validate(custom, params)
        assert report.ok
        mu_conds = [c for c in report.conditions
                    if c.name.startswith("mu_n <= mu_bar")]
        assert mu_conds[0].empirical


def _by_name(report):
    return {c.name: c for c in report.conditions}


class TestSampledValidation:
    """Verdicts of the sampled paths, for custom sequences with no declared
    limit or sum, derived by hand from the first VALIDATION_HORIZON = 500
    values."""

    def test_custom_harmonic_alpha_is_sampled_as_divergent(self):
        # alpha_n = 1/(n+1): alpha_500 = 1/501 <= 0.05 and below alpha_1,
        # and the partial-sum chunks n = 251..500 and n = 126..250 are
        # both ~ln 2, so the later one is above 0.8 times the earlier.
        params = reference_params()
        sched = dataclasses.replace(
            default_schedule(params, beta_demi=0.5, alpha_ism=1.0),
            alpha=ParamSeq.custom(lambda n: 1.0 / (n + 1)))
        conds = _by_name(validate(sched, params))
        for name in ("condition (i): alpha_n -> 0",
                     "condition (i): sum alpha_n = infinity"):
            assert conds[name].passed and conds[name].empirical
        strict = _by_name(validate(
            dataclasses.replace(sched, strict_paper=True), params))
        summable = strict["condition (i, strict): sum alpha_n < infinity"]
        assert not summable.passed and summable.empirical

    def test_custom_square_alpha_is_sampled_as_summable(self):
        # alpha_n = 1/(n+1)^2: the chunk n = 251..500 is ~1/251 - 1/501
        # ~ 0.0020, under 0.8 times the chunk n = 126..250, ~ 0.0039.
        params = reference_params()
        sched = dataclasses.replace(
            default_schedule(params, beta_demi=0.5, alpha_ism=1.0),
            alpha=ParamSeq.custom(lambda n: 1.0 / (n + 1) ** 2))
        conds = _by_name(validate(sched, params))
        divergent = conds["condition (i): sum alpha_n = infinity"]
        assert not divergent.passed and divergent.empirical
        strict = _by_name(validate(
            dataclasses.replace(sched, strict_paper=True), params))
        summable = strict["condition (i, strict): sum alpha_n < infinity"]
        assert summable.passed and summable.empirical

    def test_custom_constant_theta_liminfs_are_sampled(self):
        # theta_n = 3/4 with beta_demi = 1/2: the tail gives the gap
        # (1 - 3/4)(3/4 - 1/2) = 1/16 and the product (1 - 3/4)(3/4) = 3/16.
        params = reference_params()
        sched = dataclasses.replace(
            default_schedule(params, beta_demi=0.5, alpha_ism=1.0),
            theta=ParamSeq.custom(lambda n: 0.75))
        conds = _by_name(validate(sched, params))
        gap = conds["condition (ii): theta_n in (beta_demi, 1) with "
                    "liminf (1 - theta_n)(theta_n - beta_demi) > 0"]
        prod = conds["condition (iii): liminf (1 - theta_n) theta_n > 0"]
        assert (gap.passed, gap.value, gap.empirical) == (True, 0.0625, True)
        assert (prod.passed, prod.value, prod.empirical) == (True, 0.1875,
                                                             True)
        assert gap.detail == "liminf gap = 0.0625"
        assert prod.detail == "liminf product = 0.1875"

    def test_summary_of_a_failing_schedule(self):
        # gamma_n = 1 - 1/(n+1) -> 1 makes the gamma product's liminf 0;
        # the custom constant mu_n = 0.4 marks the conditions on mu
        # empirical.
        params = reference_params()
        sched = dataclasses.replace(
            default_schedule(params, beta_demi=0.5, alpha_ism=1.0),
            gamma=ParamSeq.approaching_one(),
            mu=ParamSeq.custom(lambda n: 0.4))
        assert validate(sched, params).summary().splitlines() == [
            "[ok] k > 0",
            "[ok] L > 0",
            "[ok] k <= L (strong monotonicity cannot exceed Lipschitz)",
            "[ok] b > 0",
            "[ok] gamma > 0",
            "[ok] 0 < eta < 2k/L^2",
            "[ok] 0 < gamma*b < tau: gamma*b = 0.25, tau = 0.5",
            "[ok] sequences take values in (0, 1) (empirical)",
            "[ok] condition (i): alpha_n -> 0",
            "[ok] condition (i): sum alpha_n = infinity",
            "[ok] condition (ii): lambda_n in [a, b] within "
            "(0, min(1, 2*alpha_ism)): [a, b] = [0.5, 0.5], window (0, 1)",
            "[ok] condition (ii): theta_n in (beta_demi, 1) with "
            "liminf (1 - theta_n)(theta_n - beta_demi) > 0: "
            "liminf gap = 0.0625",
            "[ok] condition (ii): beta_n in (beta_demi, 1) with "
            "liminf (1 - beta_n)(beta_n - beta_demi) > 0: "
            "liminf gap = 0.0625",
            "[FAIL] condition (iii): liminf (1 - gamma_n) gamma_n > 0: "
            "liminf product = 0",
            "[ok] condition (iii): liminf (1 - beta_n) beta_n > 0: "
            "liminf product = 0.1875",
            "[ok] condition (iii): liminf (1 - theta_n) theta_n > 0: "
            "liminf product = 0.1875",
            "[ok] mu_n <= mu_bar with tau*(1 - mu_bar) > gamma*b "
            "(empirical): sup mu_n = 0.4, mu_bar = 0.4, margin = 0.05",
        ]
