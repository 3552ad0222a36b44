import math
from dataclasses import replace

import numpy as np
import pytest

from etcsim.certificates import (
    QuadraticLyapunovData,
    derive_constants,
    dwell_time_ode,
    epsilon_star_search,
    max_dwell_time,
    select_analysis_parameters,
    trigger_slope_bound,
    validate_assumptions,
)
from etcsim.demo import demo_lyapunov_data, demo_plant
from etcsim.errors import (
    CertificateError,
    CertificateInfeasibleError,
    InfeasibleDwellError,
)
from etcsim.triggers import GammaForm


def unit_data():
    return QuadraticLyapunovData(p1=np.eye(2), p2=np.eye(1),
                                 alpha1_bar=1.0, alpha2=1.0, l_bar=1.0)


class TestDeriveConstants:
    def test_unit_data_hand_values(self):
        c = derive_constants(unit_data())
        assert c.alpha1 == pytest.approx(0.5, abs=1e-12)
        assert c.gamma1.coeff == pytest.approx(2.0, abs=1e-12)
        assert c.beta1 == pytest.approx(2.0, abs=1e-12)
        assert c.beta2 == pytest.approx(2.0, abs=1e-12)
        assert c.beta3 == pytest.approx(4.0, abs=1e-12)
        assert c.gamma2.coeff == pytest.approx(2.0, abs=1e-12)
        assert c.l_link == pytest.approx(1.0, abs=1e-12)
        assert c.lambda1 == pytest.approx(0.5, abs=1e-12)
        assert c.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert c.m_err == pytest.approx(1.0, abs=1e-12)
        assert c.n_err == pytest.approx(1.0, abs=1e-12)

    def test_scaled_p1_hand_values(self):
        data = QuadraticLyapunovData(p1=2.0 * np.eye(2), p2=np.eye(1),
                                     alpha1_bar=1.0, alpha2=1.0, l_bar=1.0)
        c = derive_constants(data)
        assert c.gamma1.coeff == pytest.approx(4.0, abs=1e-12)
        assert c.l_link == pytest.approx(0.5, abs=1e-12)
        # composed gain: gamma2(gamma1^{-1}(s)) = (c2/c1) s, equal to the
        # link constant here
        s = 3.7
        composed = c.gamma2(c.gamma1.inverse(s))
        assert composed == pytest.approx(c.l_link * s, rel=1e-12)

    def test_gains_vanish_at_zero(self):
        c = derive_constants(unit_data())
        assert c.gamma1(0.0) == 0.0
        assert c.gamma2(0.0) == 0.0

    def test_non_spd_rejected(self):
        with pytest.raises(CertificateError):
            QuadraticLyapunovData(p1=np.array([[1.0, 2.0], [2.0, 1.0]]),
                                  p2=np.eye(1), alpha1_bar=1.0, alpha2=1.0,
                                  l_bar=1.0)
        with pytest.raises(CertificateError):
            QuadraticLyapunovData(p1=np.array([[1.0, 0.1], [0.0, 1.0]]),
                                  p2=np.eye(1), alpha1_bar=1.0, alpha2=1.0,
                                  l_bar=1.0)

    def test_link_condition_enforced(self):
        c = derive_constants(unit_data())
        with pytest.raises(CertificateError):
            replace(c, gamma2=GammaForm(10.0 * c.gamma2.coeff))


class TestDwellBound:
    def test_boundary_branch(self):
        # gamma1_bar * N^2 / alpha1 = 4 = M^2: both limits give 1/M
        assert max_dwell_time(2.0, 1.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_arctan_branch(self):
        assert max_dwell_time(1.0, 1.0, 2.0, 1.0) == pytest.approx(
            math.pi / 4.0, abs=1e-12)

    def test_artanh_branch(self):
        r = math.sqrt(0.5)
        expected = math.atanh(r) / (2.0 * r)
        assert max_dwell_time(2.0, 1.0, 2.0, 1.0) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.623225, abs=1e-6)

    def test_branch_continuity(self):
        m = 2.0
        for direction in (+1.0, -1.0):
            ratio = 1.0 + direction * 1e-6
            # pick gamma1_bar so gamma1_bar*N^2/(alpha1 M^2) = ratio
            g1 = ratio * m**2
            assert abs(max_dwell_time(m, 1.0, g1, 1.0) - 1.0 / m) < 1e-4

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(CertificateError):
            max_dwell_time(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(CertificateError):
            max_dwell_time(1.0, 1.0, 1.0, -1.0)


class TestComparisonOde:
    def test_unit_rate_ceiling(self):
        sol = dwell_time_ode(0.1, 0.2, 1.0, 1.0, 2.0, 1.0)
        assert sol.transit_time <= 1.0 / 0.2 - 0.2

    def test_monotone_in_mu_and_vartheta(self):
        mus = [0.02, 0.1, 0.3]
        thetas = [0.01, 0.05, 0.2]
        grid = {(m, v): dwell_time_ode(m, v, 1.0, 1.0, 2.0, 1.0).transit_time
                for m in mus for v in thetas}
        for v in thetas:
            times = [grid[(m, v)] for m in mus]
            assert times == sorted(times, reverse=True)
        for m in mus:
            times = [grid[(m, v)] for v in thetas]
            assert times == sorted(times, reverse=True)

    def test_oracle_agreement_all_branches(self):
        triples = [
            (1.0, 1.0, 2.0, 1.0),   # arctan
            (2.0, 1.0, 2.0, 0.5),   # boundary
            (2.0, 1.0, 2.0, 1.0),   # artanh
        ]
        for m, n, g1, a1 in triples:
            sol = dwell_time_ode(1e-4, 1e-4, m, n, g1, a1)
            assert abs(sol.transit_time - max_dwell_time(m, n, g1, a1)) <= 1e-3

    def test_trajectory_endpoints_and_freeze(self):
        sol = dwell_time_ode(0.05, 0.1, 1.0, 1.0, 2.0, 1.0)
        assert sol.values[0] == pytest.approx(10.0)
        assert sol.values[-1] == pytest.approx(0.1)
        assert sol.evaluate(sol.transit_time + 99.0) == pytest.approx(0.1)

    def test_invalid_parameters(self):
        with pytest.raises(CertificateError):
            dwell_time_ode(2.0, 0.1, 1.0, 1.0, 2.0, 1.0)  # mu >= alpha1
        with pytest.raises(CertificateError):
            dwell_time_ode(0.1, 1.5, 1.0, 1.0, 2.0, 1.0)


class TestSelectParameters:
    def test_dwell_mode_postconditions(self):
        c = derive_constants(demo_lyapunov_data())
        dwell = max_dwell_time(c.m_err, c.n_err, c.gamma1_bar, c.alpha1)
        params = select_analysis_parameters(c, 0.15, t_star=0.9 * dwell,
                                            mode="dwell")
        assert params.t_star <= params.dwell_bound_ode < params.dwell_bound
        assert 0.0 < params.mu < c.alpha1
        assert 0.0 < params.vartheta < 1.0
        assert params.d_weight <= 0.5
        assert params.psi > 0.0
        # d sits strictly inside each admissibility bound
        lam = params.lambda_jump
        bounds = [
            c.gamma1_bar / c.gamma2_bar * params.mu,
            (1 - 0.15) / 0.15 * c.gamma1_bar / c.gamma2_bar,
            params.vartheta**2 / (c.lambda1 + c.lambda2) ** 2,
            (math.expm1(params.mu * params.t_star) / lam) ** 2,
            1.0,
        ]
        assert all(params.d_weight < b for b in bounds)
        # psi below its ceiling
        ceiling = ((params.mu - math.log1p(lam * math.sqrt(params.d_weight))
                    / params.t_star) / (1.0 / params.t_star + 1.0))
        assert 0.0 < params.psi < ceiling

    def test_infeasible_dwell_names_bound(self):
        c = derive_constants(demo_lyapunov_data())
        dwell = max_dwell_time(c.m_err, c.n_err, c.gamma1_bar, c.alpha1)
        with pytest.raises(InfeasibleDwellError) as exc:
            select_analysis_parameters(c, 0.15, t_star=1.1 * dwell, mode="dwell")
        assert exc.value.dwell_bound == pytest.approx(dwell)

    def test_practical_mode_values(self):
        c = derive_constants(demo_lyapunov_data())
        params = select_analysis_parameters(c, 0.3, mode="practical")
        assert params.mu == pytest.approx(0.5 * c.alpha1 * (1.0 - 0.3))
        lam = (c.lambda1 + c.lambda2) * max(0.3 * c.alpha1, 1.0)
        theta = (1.0 + 2.0 * lam) * max(2.0 * (1.0 + c.l_link) / params.mu, 1.0)
        assert params.theta == pytest.approx(theta, rel=1e-12)
        assert params.lambda_jump == pytest.approx(
            max(c.lambda2, (c.lambda1 + c.lambda2) * 0.3 * c.alpha1))
        assert params.lambda_practical == pytest.approx(lam)


class TestJsonRecords:
    def test_practical_parameters_keys_in_field_order(self):
        c = derive_constants(demo_lyapunov_data())
        params = select_analysis_parameters(c, 0.3, mode="practical")
        assert list(params.to_dict()) == [
            "mode", "sigma", "mu", "dwell_bound", "lambda_jump",
            "lambda_practical", "theta"]

    def test_dwell_parameters_leave_out_the_stored_ode(self):
        c = derive_constants(demo_lyapunov_data())
        dwell = max_dwell_time(c.m_err, c.n_err, c.gamma1_bar, c.alpha1)
        params = select_analysis_parameters(c, 0.15, t_star=0.9 * dwell,
                                            mode="dwell")
        assert params.dwell_ode is not None
        out = params.to_dict()
        assert "dwell_ode" not in out
        assert out["t_star"] == params.t_star
        assert out["dwell_bound_ode"] == params.dwell_bound_ode

    def test_lyapunov_data_round_trip(self):
        data = QuadraticLyapunovData(p1=np.diag([2.0, 0.5]), p2=[[0.8]],
                                     alpha1_bar=1.5, alpha2=0.3, l_bar=2.0)
        out = data.to_dict()
        assert out["p1"] == [[2.0, 0.0], [0.0, 0.5]]
        back = QuadraticLyapunovData.from_dict(out)
        assert np.array_equal(back.p1, data.p1)
        assert np.array_equal(back.p2, data.p2)
        assert (back.alpha1_bar, back.alpha2, back.l_bar) == (1.5, 0.3, 2.0)
        del out["l_bar"]
        with pytest.raises(KeyError):
            QuadraticLyapunovData.from_dict(out)


def _practical_conditions_hold(c, sigma, mu, eps):
    # independent re-statement of the certified flow inequalities
    se = math.sqrt(eps)
    slow = c.alpha1 * (1.0 - sigma * (1.0 + se * c.l_link))
    fast = c.alpha2 / se - se * (c.beta3 + mu)
    cross = (c.beta1 + se * c.beta2) ** 2 / 4.0
    return eps <= 1.0 and slow >= mu and (slow - mu) * fast >= cross


class TestEpsilonStar:
    def test_unit_data_regression(self):
        c = derive_constants(unit_data())
        eps = epsilon_star_search(c, 0.5, 0.1, "practical")
        # frozen from running this search once; the two closed-form
        # inequalities are re-checked independently below
        assert eps == pytest.approx(0.00987332765501508, rel=1e-6)
        assert _practical_conditions_hold(c, 0.5, 0.1, eps)
        assert not _practical_conditions_hold(c, 0.5, 0.1, eps * 1.05)

    def test_postcondition_recheck(self):
        c = derive_constants(demo_lyapunov_data())
        eps = epsilon_star_search(c, 0.3, 0.25 * c.alpha1, "practical")
        assert _practical_conditions_hold(c, 0.3, 0.25 * c.alpha1, eps)

    def test_limit_toward_zero_passes(self):
        c = derive_constants(demo_lyapunov_data())
        assert _practical_conditions_hold(c, 0.3, 0.25 * c.alpha1, 1e-12)

    def test_dwell_mode_search_and_postcondition(self):
        c = derive_constants(demo_lyapunov_data())
        dwell = max_dwell_time(c.m_err, c.n_err, c.gamma1_bar, c.alpha1)
        params = select_analysis_parameters(c, 0.15, t_star=0.9 * dwell,
                                            mode="dwell")
        eps = epsilon_star_search(c, 0.15, params.mu, "dwell",
                                  d=params.d_weight, dwell_ode=params.dwell_ode)
        assert eps > 0.0
        # larger eps must fail (the search returns the boundary)
        with pytest.raises(CertificateError):
            _ = epsilon_star_search(c, 0.15, c.alpha1 * 2.0, "dwell",
                                    d=params.d_weight,
                                    dwell_ode=params.dwell_ode)

    def test_monotone_in_sigma_and_mu(self):
        c = derive_constants(demo_lyapunov_data())
        sigmas = [0.15, 0.3, 0.45]
        mu_fracs = [0.1, 0.3, 0.5]
        table = {}
        for s in sigmas:
            for f in mu_fracs:
                mu = f * c.alpha1 * (1.0 - s)
                table[(s, f)] = epsilon_star_search(c, s, mu, "practical")
        for f in mu_fracs:
            row = [table[(s, f)] for s in sigmas]
            assert all(a >= b for a, b in zip(row, row[1:]))
        for s in sigmas:
            row = [table[(s, f)] for f in mu_fracs]
            assert all(a >= b for a, b in zip(row, row[1:]))

    def test_jump_compensation_condition(self):
        c = derive_constants(demo_lyapunov_data())
        mu = 0.25 * c.alpha1
        base = epsilon_star_search(c, 0.3, mu, "practical")
        constrained = epsilon_star_search(c, 0.3, mu, "practical", rho=0.5,
                                          xi_delta=1.0)
        assert constrained <= base
        lam = c.lambda_practical(0.3)
        assert (4.0 / mu) * math.log1p(2.0 * constrained**0.25 * lam) \
            <= 0.5 / 1.0 * (1.0 + 1e-9)

    def test_infeasible_raises(self):
        c = derive_constants(unit_data())
        # an absurd dead-zone requirement admits no epsilon
        with pytest.raises(CertificateInfeasibleError):
            epsilon_star_search(c, 0.5, 0.1, "practical", rho=1e-30, xi_delta=1e30)

    def test_invalid_mu_rejected(self):
        c = derive_constants(unit_data())
        with pytest.raises(CertificateError):
            epsilon_star_search(c, 0.5, c.alpha1, "practical")


class TestValidateAssumptions:
    def test_demo_passes(self):
        data = demo_lyapunov_data()
        consts = derive_constants(data)
        spec = demo_plant(0.05).as_plant_spec()
        report = validate_assumptions(spec, data, consts, n_samples=2000,
                                      box=10.0, seed=0)
        assert report.passed
        assert {f.name for f in report.families} == {
            "slow_iss", "fast_decay", "coupling_slow", "coupling_fast",
            "jump_growth", "error_growth",
        }

    def test_origin_every_inequality_tight_or_slack(self):
        data = demo_lyapunov_data()
        consts = derive_constants(data)
        spec = demo_plant(0.05).as_plant_spec()
        # a single sample at the origin: every family holds with zero terms
        report = validate_assumptions(spec, data, consts, n_samples=1,
                                      box=1e-30, seed=0)
        assert report.passed

    def test_corrupted_constant_yields_witness(self):
        data = demo_lyapunov_data()
        consts = derive_constants(data)
        broken = replace(consts, beta1=consts.beta1 / 2.0)
        spec = demo_plant(0.05).as_plant_spec()
        report = validate_assumptions(spec, data, broken, n_samples=4000,
                                      box=10.0, seed=0)
        assert not report.passed
        family = report.family("coupling_slow")
        assert not family.passed
        assert family.witness is not None
        x, y, e = family.witness
        assert len(x) == 2 and len(y) == 1 and len(e) == 2


class TestTriggerSlopeBound:
    def test_positive_and_inflated(self):
        data = demo_lyapunov_data()
        consts = derive_constants(data)
        spec = demo_plant(0.05).as_plant_spec()
        lo = trigger_slope_bound(spec, data, consts, theta=76.0, rho=0.02,
                                 delta=1.0, n_samples=2000, seed=1,
                                 inflation=1.0)
        hi = trigger_slope_bound(spec, data, consts, theta=76.0, rho=0.02,
                                 delta=1.0, n_samples=2000, seed=1)
        assert hi == pytest.approx(1.1 * lo)
        assert lo > 0.0
