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
