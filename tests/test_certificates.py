import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsim.certificates as certificates
from etcsim.certificates import (
    FAMILY_NAMES,
    QuadraticLyapunovData,
    _dot_rows,
    _draw_in_balls,
    _minors_nonnegative,
    _quad_rows,
    derive_constants,
    dwell_time_ode,
    epsilon_star_search,
    max_dwell_time,
    sample_in_ball,
    select_analysis_parameters,
    trigger_slope_bound,
    validate_assumptions,
)
from etcsim.demo import demo_certification, demo_lyapunov_data, demo_plant
from etcsim.errors import (
    CertificateError,
    CertificateInfeasibleError,
    ConfigurationError,
    DimensionError,
    InfeasibleDwellError,
)
from etcsim.plant import check_root_consistency
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

    def test_oracle_agreement_all_branches(self, comparison_ode_oracle):
        triples = [
            (1.0, 1.0, 2.0, 1.0),   # arctan
            (2.0, 1.0, 2.0, 0.5),   # boundary
            (2.0, 1.0, 2.0, 1.0),   # artanh
        ]
        for m, n, g1, a1 in triples:
            transit, _ = comparison_ode_oracle(1e-4, 1e-4, m, n, g1, a1)
            assert abs(transit - max_dwell_time(m, n, g1, a1)) <= 1e-3

    # (mu, vartheta, m_err, n_err, gamma1_bar, alpha1) for each branch of
    # the closed form, at vartheta 0.1 and 1e-4: 4GC > B^2 (tan), 4GC < B^2
    # (log), 4GC = B^2 exactly (rational: G = 1.5, B = 3, C = 1.5) and G = 0.
    @pytest.mark.parametrize("vartheta", [0.1, 1e-4])
    @pytest.mark.parametrize("branch, mu, m_err, n_err, gamma1_bar, alpha1", [
        ("tan", 0.05, 1.0, 1.0, 2.0, 1.0),
        ("log", 0.05, 2.0, 1.0, 2.0, 1.0),
        ("rational", 0.5, 1.25, 1.0, 0.75, 1.0),
        ("g0", 0.05, 1.0, 1.0, 0.0, 1.0),
    ])
    def test_closed_form_equals_ode_oracle(self, comparison_ode_oracle, vartheta, branch,
                                           mu, m_err, n_err, gamma1_bar, alpha1):
        args = (mu, vartheta, m_err, n_err, gamma1_bar, alpha1)
        sol = dwell_time_ode(*args)
        disc = 4.0 * sol.g * sol.c - sol.b * sol.b
        assert {"tan": disc > 0.0, "log": disc < 0.0 < sol.g,
                "rational": disc == 0.0, "g0": sol.g == 0.0}[branch]
        transit, w = comparison_ode_oracle(*args)
        assert sol.transit_time == pytest.approx(transit, rel=1e-8)
        # equally spaced clock values, plus log-spaced ones near tau = 0
        # where w falls fastest from 1/vartheta
        taus = np.concatenate([np.linspace(0.0, transit, 200),
                               transit * np.geomspace(1e-10, 1.0, 100)])
        for tau in taus:
            assert sol.evaluate(tau) == pytest.approx(w(tau), rel=1e-8)

    def test_trajectory_endpoints_and_freeze(self):
        sol = dwell_time_ode(0.05, 0.1, 1.0, 1.0, 2.0, 1.0)
        assert sol.evaluate(0.0) == pytest.approx(10.0)
        assert sol.evaluate(sol.transit_time) == pytest.approx(0.1)
        assert sol.evaluate(sol.transit_time + 99.0) == pytest.approx(0.1)

    def test_invalid_parameters(self):
        with pytest.raises(CertificateError):
            dwell_time_ode(2.0, 0.1, 1.0, 1.0, 2.0, 1.0)  # mu >= alpha1
        with pytest.raises(CertificateError):
            dwell_time_ode(0.1, 1.5, 1.0, 1.0, 2.0, 1.0)
        # G < 0 or B <= 0: the closed form's coefficients leave their domain
        with pytest.raises(CertificateError, match="needs G >= 0 and B > 0"):
            dwell_time_ode(0.1, 0.2, 1.0, 1.0, -2.0, 1.0)
        with pytest.raises(CertificateError, match="needs G >= 0 and B > 0"):
            dwell_time_ode(0.1, 0.2, -1.0, 1.0, 2.0, 1.0)


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

    def test_overflowing_constant_is_a_certificate_error(self):
        # max_dwell_time squares n_err, which overflows past 1.3e154
        c = replace(derive_constants(demo_lyapunov_data()), n_err=1e200)
        with pytest.raises(CertificateError,
                           match="overflows in select_analysis_parameters"):
            select_analysis_parameters(c, 0.3, mode="practical")

    @pytest.mark.parametrize("t_star", ["x", math.nan, 0.5])
    def test_practical_t_star_is_a_certificate_error(self, t_star):
        # as epsilon_star_search rejects a keyword its mode does not take
        c = derive_constants(demo_lyapunov_data())
        with pytest.raises(CertificateError,
                           match="practical analysis does not take t_star"):
            select_analysis_parameters(c, 0.3, t_star=t_star, mode="practical")


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
        with pytest.raises(ConfigurationError, match="l_bar"):
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

    @pytest.mark.parametrize("mode, names, message", [
        ("practical", ("rho",), "rho and xi_delta are given together or not at all"),
        ("practical", ("xi_delta",), "rho and xi_delta are given together or not at all"),
        ("practical", ("d",), "practical analysis does not take d$"),
        ("practical", ("dwell_ode",), "practical analysis does not take dwell_ode"),
        ("dwell", ("d", "dwell_ode", "rho", "xi_delta"), "dwell analysis does not take rho"),
    ])
    def test_keyword_the_mode_does_not_take_rejected(self, certification, mode, names,
                                                      message):
        c, dwell = certification.cert.constants, certification.dwell
        values = {"d": dwell.d_weight, "dwell_ode": dwell.dwell_ode, "rho": 0.5, "xi_delta": 1.0}
        mu = dwell.mu if mode == "dwell" else 0.25 * c.alpha1
        with pytest.raises(CertificateError, match=message):
            epsilon_star_search(c, dwell.sigma, mu, mode, **{n: values[n] for n in names})

    def test_overflowing_constant_is_a_certificate_error(self, certification):
        # the dwell flow form's comparison coefficient squares n_err
        c, dwell = certification.cert.constants, certification.dwell
        with pytest.raises(CertificateError, match="overflows in epsilon_star_search"):
            epsilon_star_search(replace(c, n_err=1e200), dwell.sigma, dwell.mu, "dwell",
                                d=dwell.d_weight, dwell_ode=dwell.dwell_ode)

    def test_demo_chain_pinned(self, certification):
        # the parameters and epsilon* of both demo analyses, bitwise
        assert certification.practical.to_dict() == {
            "mode": "practical", "sigma": 0.3, "mu": 0.34964999999999996,
            "dwell_bound": 0.9266585607027892, "lambda_jump": 1.2642784503423288,
            "lambda_practical": 2.0634784503423287, "epsilon_star": 0.030501921980267813,
            "theta": 76.20125731868448}
        assert certification.dwell.to_dict() == {
            "mode": "dwell", "sigma": 0.15, "mu": 0.08730302688628569,
            "dwell_bound": 0.9266585607027892, "lambda_jump": 1.2642784503423288,
            "lambda_practical": 2.0634784503423287, "epsilon_star": 1.21335231120515e-10,
            "vartheta": 0.015732632357860408, "t_star": 0.8339927046325103,
            "dwell_bound_ode": 0.8352451112791504, "d_weight": 2.906517332371021e-05,
            "psi": 0.017998222486270563}
        ode = certification.dwell.dwell_ode
        assert (ode.vartheta, ode.transit_time) == (0.015732632357860408, 0.8352451112791504)


def grid_dwell_feasible(eps, c, sigma, mu, d, w_grid):
    """The dwell flow-form test at every clock value of w_grid: the clock-grid
    form that _dwell_feasible's two-endpoint form replaced, kept as its
    reference."""
    if eps > 1.0:
        return False
    for w in w_grid:
        if not _minors_nonnegative(*certificates._a1_entries(eps, c, mu, d, float(w))):
            return False
    g1, g2 = c.gamma1_bar, c.gamma2_bar
    slow = c.alpha1 * (1.0 - sigma * (1.0 + (d * g2 / g1 if g1 > 0 else 0.0)))
    fast = d * (c.alpha2 / eps - c.beta3) - mu * d
    return _minors_nonnegative(slow - mu, fast, 0.5 * (c.beta1 + d * c.beta2))


def endpoint_and_grid_verdicts(c, sigma, mu, d, vartheta):
    """(endpoint, dense-grid) verdicts of the dwell flow form on an eps log-grid."""
    w_grid = np.geomspace(vartheta, 1.0 / vartheta, 201)  # endpoints exact
    return [(certificates._dwell_feasible(eps, c, sigma, mu, d, vartheta),
             grid_dwell_feasible(eps, c, sigma, mu, d, w_grid))
            for eps in np.geomspace(1e-12, 1.0, 61)]


def _chain_argument_cases():
    """(call, function, argument, interval, bad values): each call passes its
    value as the one argument of a chain function that a check covers."""
    c = derive_constants(demo_lyapunov_data())
    mu = 0.25 * c.alpha1
    positive = ("1", math.nan, math.inf, -math.inf, 0.0, -1.0, -5e-324)
    unit = ("0.3", math.nan, math.inf, -math.inf, 0.0, 1.0, -0.3, 1.5)
    yield (lambda v: select_analysis_parameters(c, v, mode="practical"),
           "select_analysis_parameters", "sigma", "(0, 1)", unit)
    yield (lambda v: select_analysis_parameters(c, 0.15, t_star=v, mode="dwell"),
           "select_analysis_parameters", "t_star", "(0, inf)", positive)
    yield (lambda v: epsilon_star_search(c, v, mu, "practical"),
           "epsilon_star_search", "sigma", "(0, 1)", unit)
    yield (lambda v: epsilon_star_search(c, 0.3, v, "practical"),
           "epsilon_star_search", "mu", "(0, inf)", positive)
    for i, name in enumerate(("m_err", "n_err", "gamma1_bar", "alpha1")):
        yield (lambda v, i=i: max_dwell_time(*(v if j == i else 1.0 for j in range(4))),
               "max_dwell_time", name, "(0, inf)", positive)


@pytest.mark.parametrize("call, function, name, interval, value", [
    pytest.param(call, function, name, interval, value, id=f"{function}-{name}-{value!r}")
    for call, function, name, interval, bad in _chain_argument_cases() for value in bad])
def test_chain_argument_is_a_typed_certificate_error(call, function, name, interval, value):
    with pytest.raises(CertificateError) as exc:
        call(value)
    assert type(exc.value) is CertificateError
    assert str(exc.value).startswith(
        f"{function} field {name!r} must be a number in {interval}, got {name} {value!r}")


def test_chain_arguments_take_any_real_number_inside_their_interval():
    c = derive_constants(demo_lyapunov_data())
    assert max_dwell_time(1, 1, 1, 1) == max_dwell_time(1.0, 1.0, 1.0, 1.0) == 1.0
    params = select_analysis_parameters(c, np.float64(0.3), mode="practical")
    assert params == select_analysis_parameters(c, 0.3, mode="practical")
    assert (epsilon_star_search(c, np.float64(0.3), np.float64(params.mu), "practical")
            == epsilon_star_search(c, 0.3, params.mu, "practical"))
    dwell = max_dwell_time(c.m_err, c.n_err, c.gamma1_bar, c.alpha1)
    with pytest.raises(InfeasibleDwellError):  # the data-dependent bound stays
        select_analysis_parameters(c, 0.15, t_star=dwell, mode="dwell")


def fraction_minors_nonnegative(a11, d2, b, w33=None, c=None):
    """The 1x1, 2x2 and (given w33, c) 3x3 leading minors of
    [[a11, -b, -c], [-b, d2, -c], [-c, -c, w33]], each >= 0 in Fraction
    arithmetic by cofactor expansion; a non-finite entry is not certified."""
    entries = (a11, d2, b) if w33 is None else (a11, d2, b, w33, c)
    if not all(map(math.isfinite, entries)):
        return False
    a11, d2, b, *rest = map(Fraction, entries)
    if a11 < 0 or a11 * d2 - b * b < 0:
        return False
    if not rest:
        return True
    w33, c = rest
    return a11 * (d2 * w33 - c * c) + b * (-b * w33 - c * c) - c * (b * c + d2 * c) >= 0


def _scaled(mantissa, exponents):
    return st.builds(math.ldexp, mantissa, st.integers(*exponents))


def _nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


# any finite float (subnormals and the largest included), or one of a wide
# exponent spread whose products leave the float range
_ENTRY = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   _scaled(st.floats(-1.0, 1.0), (-400, 400)))
_POSITIVE = _scaled(st.floats(0.5, 1.0), (-60, 60))


class TestMinorsNonnegative:
    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(entries=st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY, _ENTRY), full=st.booleans())
    def test_equals_fraction_on_wide_exponents(self, entries, full):
        entries = entries if full else entries[:3]
        assert _minors_nonnegative(*entries) == fraction_minors_nonnegative(*entries)

    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(a11=_POSITIVE, d2=_POSITIVE, c=_scaled(st.floats(-1.0, 1.0), (-60, 60)),
           gap=st.floats(0.0, 1e-6), b_ulps=st.integers(-3, 3), w_ulps=st.integers(-3, 3))
    def test_equals_fraction_near_singular(self, a11, d2, c, gap, b_ulps, w_ulps):
        # b cancels a11 d2 in the 2x2 minor to the last bits, and w33 cancels
        # the rest of the determinant (a11 d2 - b^2) w33 - c^2 (a11 + 2b + d2)
        b = _nudged(math.sqrt(a11) * math.sqrt(d2) * (1.0 - gap), b_ulps)
        assert _minors_nonnegative(a11, d2, b) == fraction_minors_nonnegative(a11, d2, b)
        minor2 = a11 * d2 - b * b
        if minor2 > 0.0:
            w33 = _nudged(c * c * (a11 + 2.0 * b + d2) / minor2, w_ulps)
            assert (_minors_nonnegative(a11, d2, b, w33, c)
                    == fraction_minors_nonnegative(a11, d2, b, w33, c))

    def test_demo_chain_calls_equal_fraction(self, monkeypatch):
        calls = []

        def recorded(*entries):
            calls.append(entries)
            return _minors_nonnegative(*entries)

        monkeypatch.setattr(certificates, "_minors_nonnegative", recorded)
        demo_certification.__wrapped__()
        assert {len(entries) for entries in calls} == {3, 5}
        assert all(_minors_nonnegative(*entries) == fraction_minors_nonnegative(*entries)
                   for entries in calls)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(5))
    def test_non_finite_entry_not_certified(self, index, bad):
        entries = [1.0, 1.0, 0.0, 1.0, 0.0]
        assert _minors_nonnegative(*entries) and _minors_nonnegative(*entries[:3])
        entries[index] = bad
        assert not _minors_nonnegative(*entries)
        if index < 3:
            assert not _minors_nonnegative(*entries[:3])


class TestDwellFlowFormEndpoints:
    @pytest.mark.parametrize("vartheta", [0.01, None, 0.5])
    def test_endpoints_equal_dense_grid_on_demo(self, certification, vartheta):
        c, dwell = certification.cert.constants, certification.dwell
        verdicts = endpoint_and_grid_verdicts(c, dwell.sigma, dwell.mu, dwell.d_weight,
                                              vartheta or dwell.vartheta)
        assert all(ends == grid for ends, grid in verdicts)
        assert {ends for ends, _ in verdicts} == {True, False}  # the grid crosses eps*

    @settings(derandomize=True, max_examples=25, database=None, deadline=None)
    @given(p1=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
           p2=st.floats(0.2, 5.0), alpha1_bar=st.floats(0.2, 3.0),
           alpha2=st.floats(0.2, 3.0), l_bar=st.floats(0.05, 2.0),
           sigma=st.floats(0.05, 0.6), mu_fraction=st.floats(0.01, 0.99),
           log_d=st.floats(-8.0, 0.0), log_vartheta=st.floats(-4.0, -0.05))
    def test_endpoints_equal_dense_grid_on_drawn_constants(
            self, p1, p2, alpha1_bar, alpha2, l_bar, sigma, mu_fraction, log_d,
            log_vartheta):
        c = derive_constants(QuadraticLyapunovData(
            p1=np.diag(p1), p2=[[p2]], alpha1_bar=alpha1_bar, alpha2=alpha2, l_bar=l_bar))
        verdicts = endpoint_and_grid_verdicts(c, sigma, mu_fraction * c.alpha1,
                                              10.0 ** log_d, 10.0 ** log_vartheta)
        assert all(ends == grid for ends, grid in verdicts)


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

    @pytest.mark.parametrize("n_samples, box", [
        (-5, 10.0), (2000, 0.0), (2000, -10.0), (2000, math.nan), (2000, math.inf)])
    def test_sample_count_and_box_checked(self, n_samples, box):
        # a negative count or a zero box sampled nothing and passed any constants
        data = demo_lyapunov_data()
        broken = replace(derive_constants(data), lambda2=0.0)
        spec = demo_plant(0.05).as_plant_spec()
        with pytest.raises(CertificateError, match="validate_assumptions field"):
            validate_assumptions(spec, data, broken, n_samples=n_samples, box=box)


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

    @pytest.mark.parametrize("field, value, interval", [
        ("theta", -5.0, "(0, inf)"), ("theta", 0.0, "(0, inf)"),
        ("theta", math.nan, "(0, inf)"), ("rho", 0.0, "(0, inf)"),
        ("rho", math.inf, "(0, inf)"), ("delta", -1.0, "[0, inf)"),
        ("delta", math.nan, "[0, inf)"), ("inflation", -1.0, "[1, inf)"),
        ("inflation", 0.5, "[1, inf)"), ("inflation", "1.1", "[1, inf)"),
    ])
    def test_scalar_arguments_checked(self, field, value, interval):
        # a negative delta was squared, a NaN theta dropped by max(), a
        # negative inflation gave a negative bound, and an infinite rho or
        # a NaN delta ended in "supremum nonpositive"
        data = demo_lyapunov_data()
        args = dict(theta=76.0, rho=0.02, delta=1.0, n_samples=500, inflation=1.1)
        args[field] = value
        interval = interval.replace("(", r"\(").replace(")", r"\)").replace("[", r"\[")
        with pytest.raises(CertificateError, match=f"trigger_slope_bound field '{field}' "
                                                   f"must be a number in {interval}, "
                                                   f"got {field} "):
            trigger_slope_bound(demo_plant(0.05).as_plant_spec(), data,
                                derive_constants(data), **args)

    @pytest.mark.parametrize("theta, rho, delta", [
        (76.0, 0.02, 1e200), (1e300, 1e10, 1.0)])
    def test_level_that_overflows_rejected(self, theta, rho, delta):
        # delta**2 raised a bare OverflowError; theta * rho = inf sampled
        # NaN rows and ended in "supremum nonpositive"
        data = demo_lyapunov_data()
        with pytest.raises(CertificateError, match="trigger slope level inf"):
            trigger_slope_bound(demo_plant(0.05).as_plant_spec(), data,
                                derive_constants(data), theta=theta, rho=rho,
                                delta=delta, n_samples=10)

    def test_sampled_supremum_below_linear_bound(self):
        # for the LTI demo f_x = A_cl x + A12 y + B_s K e exactly, and
        # gamma1's slope grows with |e|: the triangle bound over the three
        # balls caps every sample
        lin, data = demo_plant(0.03), demo_lyapunov_data()
        consts = derive_constants(data)
        theta, rho, delta = 2.0, 0.02, 1.0
        eig1, eig2 = np.linalg.eigvalsh(data.p1), np.linalg.eigvalsh(data.p2)
        level = max((eig1.max() + eig2.max()) * delta**2, theta * rho)
        x_max, y_max = math.sqrt(level / eig1.min()), math.sqrt(level / eig2.min())
        e_max = 2.0 * x_max
        bound = consts.gamma1.slope(e_max) * (
            np.linalg.norm(lin.a_closed, 2) * x_max + np.linalg.norm(lin.a12, 2) * y_max
            + np.linalg.norm(lin.b_slow @ lin.k_gain, 2) * e_max)
        assert bound == pytest.approx(17.8077, abs=1e-4)
        spec = lin.as_plant_spec()
        for seed in range(20):
            assert trigger_slope_bound(spec, data, consts, theta=theta, rho=rho,
                                       delta=delta, n_samples=25_000, seed=seed,
                                       inflation=1.0) <= bound, seed


# -- Batched sampling against the one-sample-at-a-time loops -----------------
#
# scalar_validate and scalar_slope_bound are reference loops that draw and
# evaluate one sample at a time, with scalar_sample_in_ball, scalar_draw_chunk
# and 1-D arithmetic. They live only here, as oracles: the batched samplers
# must equal them bitwise.

def scalar_sample_in_ball(rng, dim, radius):
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.uniform() ** (1.0 / dim)
    return v * (r / norm)


def scalar_draw_chunk(rng, rows, balls):
    """One chunk of ball samples, one draw call at a time: per ball, a
    standard normal per row, then a uniform per row whose normal is
    nonzero. A list of rows, each a tuple with one sample per ball."""
    per_ball = []
    for dim, radius in balls:
        vs = [rng.standard_normal(dim) for _ in range(rows)]
        norms = [float(np.linalg.norm(v)) for v in vs]
        per_ball.append([v * (radius * rng.uniform() ** (1.0 / dim) / norm)
                         if norm != 0.0 else np.zeros(dim)
                         for v, norm in zip(vs, norms)])
    return list(zip(*per_ball))


def scalar_validate(spec, data, consts, n_samples, box, seed):
    rng = np.random.default_rng(seed)
    worst = {name: (math.inf, None) for name in FAMILY_NAMES}
    p1, p2 = data.p1, data.p2
    g1, g2 = consts.gamma1, consts.gamma2

    def track(name, slack, point):
        if slack < worst[name][0]:
            worst[name] = (slack, point)

    for _ in range(n_samples):
        x = rng.uniform(-box, box, spec.n_x)
        y = rng.uniform(-box, box, spec.n_y)
        e = rng.uniform(-box, box, spec.n_x)
        point = (x.copy(), y.copy(), e.copy())
        u = np.asarray(spec.k(x + e), dtype=float).reshape(-1)
        u_fresh = np.asarray(spec.k(x), dtype=float).reshape(-1)
        h_held = np.asarray(spec.h(x, u), dtype=float).reshape(-1)
        h_fresh = np.asarray(spec.h(x, u_fresh), dtype=float).reshape(-1)
        f_x = np.asarray(spec.f(x, y + h_held, u), dtype=float).reshape(-1)
        f_s = np.asarray(spec.f(x, h_held, u), dtype=float).reshape(-1)
        g_f = np.asarray(spec.g(x, y + h_held, u), dtype=float).reshape(-1)
        jac = np.asarray(spec.dh_dx(x, u), dtype=float).reshape(spec.n_z, spec.n_x)
        h_y = y + h_held - h_fresh
        v_x = float(x @ p1 @ x)
        v_y = float(y @ p2 @ y)
        e_norm = float(np.linalg.norm(e))
        grad_vx = 2.0 * (p1 @ x)
        grad_vy = 2.0 * (p2 @ y)
        track("slow_iss",
              -consts.alpha1 * v_x + g1(e_norm) - float(grad_vx @ f_s), point)
        track("fast_decay",
              -consts.alpha2 * v_y - float(grad_vy @ g_f), point)
        sqrt_vxy = math.sqrt(max(v_x * v_y, 0.0))
        track("coupling_slow",
              consts.beta1 * sqrt_vxy - float(grad_vx @ (f_x - f_s)), point)
        track("coupling_fast",
              consts.beta2 * sqrt_vxy + consts.beta3 * v_y + g2(e_norm)
              + float(grad_vy @ (jac @ f_x)), point)
        v_y_post = float(h_y @ p2 @ h_y)
        track("jump_growth",
              v_y + consts.lambda1 * g1(e_norm)
              + consts.lambda2 * math.sqrt(max(g1(e_norm) * v_y, 0.0))
              - v_y_post, point)
        if e_norm > 0.0:
            track("error_growth",
                  consts.m_err * e_norm
                  + consts.n_err * (math.sqrt(v_x) + math.sqrt(v_y))
                  + float(e @ f_x) / e_norm, point)
    return worst


def scalar_slope_bound(spec, data, consts, theta, rho, delta, n_samples, seed,
                       inflation=1.1):
    rng = np.random.default_rng(seed)
    p1, p2 = data.p1, data.p2
    lmax1 = float(np.max(np.linalg.eigvalsh(p1)))
    lmax2 = float(np.max(np.linalg.eigvalsh(p2)))
    lmin1 = float(np.min(np.linalg.eigvalsh(p1)))
    lmin2 = float(np.min(np.linalg.eigvalsh(p2)))
    level = max((lmax1 + lmax2) * delta**2, theta * rho)
    x_max = math.sqrt(level / lmin1)
    y_max = math.sqrt(level / lmin2)
    e_max = 2.0 * x_max
    balls = ((spec.n_x, x_max), (spec.n_y, y_max), (spec.n_x, e_max))
    chunk = certificates._SAMPLE_CHUNK  # read per call: a test may patch it
    samples = [sample for start in range(0, n_samples, chunk)
               for sample in scalar_draw_chunk(rng, min(chunk, n_samples - start), balls)]
    sup = 0.0
    for x, y, e in samples:
        if float(x @ p1 @ x) > level or float(y @ p2 @ y) > level:
            continue
        u = np.asarray(spec.k(x + e), dtype=float).reshape(-1)
        h_val = np.asarray(spec.h(x, u), dtype=float).reshape(-1)
        f_x = np.asarray(spec.f(x, y + h_val, u), dtype=float).reshape(-1)
        val = consts.gamma1.slope(float(np.linalg.norm(e))) * float(np.linalg.norm(f_x))
        if val > sup:
            sup = val
    return inflation * sup


DEMO_THETA = 76.0


@pytest.fixture(scope="module")
def demo_case():
    data = demo_lyapunov_data()
    return demo_plant(0.03).as_plant_spec(), data, derive_constants(data)


@pytest.mark.parametrize("n_samples", [2.5, -1, True])
@pytest.mark.parametrize("check, error", [
    (lambda spec, data, consts, n: validate_assumptions(spec, data, consts, n_samples=n),
     CertificateError),
    (lambda spec, data, consts, n: trigger_slope_bound(
        spec, data, consts, theta=DEMO_THETA, rho=0.02, delta=1.0, n_samples=n),
     CertificateError),
    (lambda spec, data, consts, n: check_root_consistency(spec, n_samples=n),
     ConfigurationError),
], ids=["validate_assumptions", "trigger_slope_bound", "check_root_consistency"])
def test_sample_count_is_a_nonnegative_integer(demo_case, check, error, n_samples):
    # a fractional count ended in a bare TypeError, a negative slope-bound
    # count in a misleading "supremum nonpositive", and True ran one sample
    with pytest.raises(error, match=f"field 'n_samples' must be an integer in \\[0, inf\\), "
                                    f"got n_samples {n_samples!r}$"):
        check(*demo_case, n_samples)


@pytest.fixture(scope="module")
def nonlinear_case(nonlinear_plant):
    data = QuadraticLyapunovData(p1=np.eye(1), p2=np.eye(1),
                                 alpha1_bar=1.0, alpha2=1.9, l_bar=1.5)
    return nonlinear_plant, data, derive_constants(data)


@pytest.fixture(scope="module")
def demo_slope_oracle(demo_case):
    spec, data, consts = demo_case
    return {seed: scalar_slope_bound(spec, data, consts, DEMO_THETA, 0.02, 1.0,
                                     12_500, seed)
            for seed in range(100, 108)}


def assert_report_equals_oracle(report, oracle):
    assert [f.name for f in report.families] == list(FAMILY_NAMES)
    for family in report.families:
        slack, point = oracle[family.name]
        assert family.worst_slack == slack, family.name  # bitwise
        assert family.passed == (slack >= -1e-9)
        if slack < -1e-9:
            assert family.witness is not None
            for got, want in zip(family.witness, point, strict=True):
                assert np.array_equal(got, want), family.name
        else:
            assert family.witness is None


class RecordingGenerator:
    """Stub generator that logs its calls and their sizes; its normal draws
    come from `normal`, and every uniform draw is 0.75."""

    def __init__(self, normal):
        self.normal = normal
        self.calls = []

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        return self.normal(size)

    def random(self, size):
        self.calls.append(("random", size))
        return np.full(size, 0.75)


class TestBatchedSampling:
    def test_demo_flag_set_by_linear_plant(self, demo_case):
        assert demo_case[0].batched
        assert not replace(demo_case[0], batched=False).batched

    @pytest.mark.parametrize("batched", [True, False])
    def test_slope_bound_equals_scalar_loop_on_demo(self, demo_case,
                                                    demo_slope_oracle, batched):
        # seed 104 is where norms rounded as (a * a).sum() lose the last bit
        spec, data, consts = demo_case
        spec = replace(spec, batched=batched)
        for seed, oracle in demo_slope_oracle.items():
            got = trigger_slope_bound(spec, data, consts, theta=DEMO_THETA,
                                      rho=0.02, delta=1.0, n_samples=12_500,
                                      seed=seed)
            assert got == oracle, seed

    def test_slope_bound_equals_scalar_loop_on_nonlinear_plant(self, nonlinear_case):
        spec, data, consts = nonlinear_case
        for seed in range(100, 108):
            args = dict(theta=2.0, rho=0.02, delta=1.0, n_samples=3000, seed=seed)
            assert (trigger_slope_bound(spec, data, consts, **args)
                    == scalar_slope_bound(spec, data, consts, **args)), seed

    def test_slope_bound_pinned(self, demo_case):
        spec, data, consts = demo_case
        assert trigger_slope_bound(spec, data, consts, theta=2, rho=0.02,
                                   delta=1, n_samples=100_000,
                                   seed=11) == 18.067551829754187

    @pytest.mark.parametrize("batched", [True, False])
    def test_validate_equals_scalar_loop_on_demo(self, demo_case, batched):
        spec, data, consts = demo_case
        spec = replace(spec, batched=batched)
        # at seed 559, gains rounded as numpy's s ** 2.0 instead of the
        # scalar gain's libm pow move slow_iss's worst slack by 1 ulp
        for seed, n in ((0, 10_000), (5, 10_000), (4242, 10_000), (559, 2000)):
            report = validate_assumptions(spec, data, consts, n_samples=n,
                                          box=10.0, seed=seed)
            assert_report_equals_oracle(
                report, scalar_validate(spec, data, consts, n, 10.0, seed))

    def test_validate_witnesses_equal_scalar_loop(self, demo_case):
        # halved constants fail several families: same decisions and the
        # same first worst sample as the loop
        spec, data, consts = demo_case
        broken = replace(consts, beta1=consts.beta1 / 2.0,
                         beta2=consts.beta2 / 2.0, alpha1=2.0 * consts.alpha1)
        report = validate_assumptions(spec, data, broken, n_samples=4000,
                                      box=10.0, seed=0)
        assert not report.passed
        assert_report_equals_oracle(
            report, scalar_validate(spec, data, broken, 4000, 10.0, seed=0))

    def test_validate_equals_scalar_loop_on_nonlinear_plant(self, nonlinear_case):
        spec, data, consts = nonlinear_case
        for box in (1.0, 3.0):
            report = validate_assumptions(spec, data, consts, n_samples=3000,
                                          box=box, seed=7)
            assert_report_equals_oracle(
                report, scalar_validate(spec, data, consts, 3000, box, 7))

    def test_nan_slack_skipped_as_in_scalar_loop(self, nonlinear_case):
        spec, data, consts = nonlinear_case
        # NaN off the band |x| < 1: those samples never set a worst slack
        nan_f = replace(spec, f=lambda x, z, u: (
            spec.f(x, z, u) if abs(x[0]) < 1.0 else np.array([np.nan])))
        report = validate_assumptions(nan_f, data, consts, n_samples=2000,
                                      box=3.0, seed=1)
        oracle = scalar_validate(nan_f, data, consts, 2000, 3.0, 1)
        assert_report_equals_oracle(report, oracle)
        assert math.isfinite(report.family("slow_iss").worst_slack)
        args = dict(theta=2.0, rho=0.02, delta=1.0, n_samples=2000, seed=3)
        assert (trigger_slope_bound(nan_f, data, consts, **args)
                == scalar_slope_bound(nan_f, data, consts, **args))

    @pytest.mark.parametrize("n", [2047, 2049, 4097])
    def test_chunk_borders_equal_scalar_loop(self, demo_case, n):
        # sizes on both sides of one chunk and past two: the draws, the
        # worst slacks, their first witnesses and the supremum run on
        # across chunks as in one pass
        assert certificates._SAMPLE_CHUNK == 2048
        spec, data, consts = demo_case
        broken = replace(consts, beta1=consts.beta1 / 2.0,
                         beta2=consts.beta2 / 2.0, alpha1=2.0 * consts.alpha1)
        report = validate_assumptions(spec, data, broken, n_samples=n,
                                      box=10.0, seed=3)
        assert not report.passed
        assert_report_equals_oracle(
            report, scalar_validate(spec, data, broken, n, 10.0, 3))
        args = dict(theta=DEMO_THETA, rho=0.02, delta=1.0, n_samples=n, seed=n)
        assert (trigger_slope_bound(spec, data, consts, **args)
                == scalar_slope_bound(spec, data, consts, **args))

    def test_first_witness_kept_across_small_chunks(self, nonlinear_case,
                                                    monkeypatch):
        # f = inf for x > 0 makes slow_iss -inf at every such sample: the
        # witness is the first of them, not one from a later chunk
        monkeypatch.setattr(certificates, "_SAMPLE_CHUNK", 3)
        spec, data, consts = nonlinear_case
        inf_f = replace(spec, f=lambda x, z, u: (
            np.array([math.inf]) if x[0] > 0.0 else spec.f(x, z, u)))
        with np.errstate(invalid="ignore"):  # inf - inf in other families
            report = validate_assumptions(inf_f, data, consts, n_samples=40,
                                          box=1.0, seed=2)
            oracle = scalar_validate(inf_f, data, consts, 40, 1.0, 2)
        assert_report_equals_oracle(report, oracle)
        draws = np.random.default_rng(2).uniform(-1.0, 1.0, (40, 3))
        first = int(np.argmax(draws[:, 0] > 0.0))
        witness = report.family("slow_iss").witness
        assert report.family("slow_iss").worst_slack == -math.inf
        assert witness[0][0] == draws[first, 0] and first >= 3
        for n in (1, 3, 10):
            args = dict(theta=2.0, rho=0.02, delta=1.0, n_samples=n, seed=n)
            assert (trigger_slope_bound(spec, data, consts, **args)
                    == scalar_slope_bound(spec, data, consts, **args))

    def test_zero_samples(self, demo_case):
        spec, data, consts = demo_case
        with pytest.raises(CertificateError):
            trigger_slope_bound(spec, data, consts, theta=DEMO_THETA, rho=0.02,
                                delta=1.0, n_samples=0)
        report = validate_assumptions(spec, data, consts, n_samples=0)
        assert report.passed and report.n_samples == 0
        for family in report.families:
            assert family.worst_slack == math.inf and family.witness is None

    def test_single_sample_at_tiny_box_equals_scalar_loop(self, demo_case):
        spec, data, consts = demo_case
        report = validate_assumptions(spec, data, consts, n_samples=1,
                                      box=1e-30, seed=0)
        assert report.passed
        assert_report_equals_oracle(
            report, scalar_validate(spec, data, consts, 1, 1e-30, 0))

    def test_draws_equal_sample_in_ball(self):
        # random(k) returns the doubles k uniform() calls do, and
        # standard_normal((rows, dim)) those of rows standard_normal(dim) calls
        balls = ((2, 1.3), (1, 2.7), (3, 0.4))
        rows = _draw_in_balls(np.random.default_rng(5), 500, balls)
        oracle = scalar_draw_chunk(np.random.default_rng(5), 500, balls)
        for i in range(500):
            for sample, want in zip(rows, oracle[i], strict=True):
                assert np.array_equal(sample[i], want)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(500):
            for dim, radius in balls:
                assert np.array_equal(sample_in_ball(ours, dim, radius),
                                      scalar_sample_in_ball(theirs, dim, radius))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_draws_uniform_in_ball(self, dim):
        # inside the ball, radial CDF (|v| / radius) ** dim uniform (KS at
        # about the 1% level), and each coordinate centred
        n, radius = 50_000, 1.7
        (rows,) = _draw_in_balls(np.random.default_rng(dim), n, ((dim, radius),))
        r = np.sqrt(_dot_rows(rows, rows)) / radius
        assert np.all(r <= 1.0)
        cdf = np.sort(r ** dim)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)
        assert np.all(np.abs(rows.mean(axis=0) / radius) < 4.0 / math.sqrt(n))

    def test_level_filter_and_norms_round_as_scalar_loop(self, demo_case):
        # the level filter compares x @ p @ x with the level, and the slope
        # takes two norms: per row, all three must round as the 1-D forms
        p1, p2 = demo_case[1].p1, demo_case[1].p2
        for seed in range(100, 108):
            x, y, e = _draw_in_balls(np.random.default_rng(seed), 12_500,
                                     ((2, 1.5), (1, 4.0), (2, 3.0)))
            for rows, p in ((x, p1), (y, p2)):
                assert np.array_equal(_quad_rows(rows, p),
                                      [float(r @ p @ r) for r in rows])
            assert np.array_equal(np.sqrt(_dot_rows(e, e)),
                                  [float(np.linalg.norm(r)) for r in e])

    @pytest.mark.parametrize("normal", [np.zeros, np.ones])
    def test_draw_calls_equal_sample_in_ball(self, normal):
        # one normal call per ball, then one random(k) for the k rows whose
        # normal is nonzero: a zero normal draws random(0), which reads
        # nothing from the stream, as sample_in_ball's skipped draw did
        balls = ((2, 1.0), (1, 3.0))
        ours, theirs = RecordingGenerator(normal), RecordingGenerator(normal)
        rows = _draw_in_balls(ours, 3, balls)
        expected = [[sample_in_ball(theirs, dim, radius) for dim, radius in balls]
                    for _ in range(3)]
        k = 0 if normal is np.zeros else 3
        assert ours.calls == [("standard_normal", (3, 2)), ("random", k),
                              ("standard_normal", (3, 1)), ("random", k)]
        assert theirs.calls == 3 * [("standard_normal", (1, 2)), ("random", k // 3),
                                    ("standard_normal", (1, 1)), ("random", k // 3)]
        for i in range(3):
            for sample, want in zip(rows, expected[i], strict=True):
                assert np.array_equal(sample[i], want)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        rng.random(0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("name, bad", [
        ("k", lambda spec: lambda xs: spec.k(xs).ravel()),
        ("h", lambda spec: lambda x, u: spec.h(x, u).T),
        ("f", lambda spec: lambda x, z, u: spec.f(x, z, u)[:, :1]),
        ("dh_dx", lambda spec: lambda x, u: np.zeros((spec.n_x, spec.n_z))),
    ])
    def test_batched_map_of_wrong_shape_named(self, demo_case, name, bad):
        spec, data, consts = demo_case
        broken = replace(spec, **{name: bad(spec)})
        with pytest.raises(DimensionError, match=f"batched plant map {name} gave"):
            validate_assumptions(broken, data, consts, n_samples=50)
