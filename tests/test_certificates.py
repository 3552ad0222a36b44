import math
from dataclasses import replace

import numpy as np
import pytest

import etcsim.certificates as certificates
from etcsim.certificates import (
    FAMILY_NAMES,
    QuadraticLyapunovData,
    _dot_rows,
    _draw_in_balls,
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
from etcsim.demo import demo_lyapunov_data, demo_plant
from etcsim.errors import (
    CertificateError,
    CertificateInfeasibleError,
    ConfigurationError,
    DimensionError,
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

    def test_overflowing_constant_is_a_certificate_error(self):
        # max_dwell_time squares n_err, which overflows past 1.3e154
        c = replace(derive_constants(demo_lyapunov_data()), n_err=1e200)
        with pytest.raises(CertificateError,
                           match="overflows in select_analysis_parameters"):
            select_analysis_parameters(c, 0.3, mode="practical")


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
            "lambda_practical": 2.0634784503423287, "epsilon_star": 1.2133523112123186e-10,
            "vartheta": 0.015732632357860408, "t_star": 0.8339927046325103,
            "dwell_bound_ode": 0.8352451112965213, "d_weight": 2.906517332371021e-05,
            "psi": 0.017998222486270563}
        assert certification.dwell.dwell_ode.values.size == 512


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


# -- Batched sampling against the one-sample-at-a-time loops -----------------
#
# scalar_validate and scalar_slope_bound are reference loops that draw and
# evaluate one sample at a time, with scalar_sample_in_ball and 1-D
# arithmetic. They live only here, as oracles: the batched samplers must
# equal them bitwise.

def scalar_sample_in_ball(rng, dim, radius):
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.uniform() ** (1.0 / dim)
    return v * (r / norm)


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
    sup = 0.0
    for _ in range(n_samples):
        x = scalar_sample_in_ball(rng, spec.n_x, x_max)
        y = scalar_sample_in_ball(rng, spec.n_y, y_max)
        e = scalar_sample_in_ball(rng, spec.n_x, e_max)
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
    """Stub generator that logs its calls; its normal draws come from `normal`."""

    def __init__(self, normal):
        self.normal = normal
        self.calls = []

    def standard_normal(self, dim):
        self.calls.append(("standard_normal", dim))
        return self.normal(dim)

    def random(self):
        self.calls.append(("random",))
        return 0.75


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
                                   seed=11) == 18.523360549710752

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
        # random() returns the doubles uniform() does, one call faster
        balls = ((2, 1.3), (1, 2.7), (3, 0.4))
        rows = _draw_in_balls(np.random.default_rng(5), 500, balls)
        ours, oracle = np.random.default_rng(5), np.random.default_rng(5)
        for i in range(500):
            for sample, (dim, radius) in zip(rows, balls):
                want = scalar_sample_in_ball(oracle, dim, radius)
                assert np.array_equal(sample[i], want)
                assert np.array_equal(sample_in_ball(ours, dim, radius), want)

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
        # a zero normal draw skips random(), as sample_in_ball does
        balls = ((2, 1.0), (1, 3.0))
        ours, theirs = RecordingGenerator(normal), RecordingGenerator(normal)
        rows = _draw_in_balls(ours, 3, balls)
        expected = [[sample_in_ball(theirs, dim, radius) for dim, radius in balls]
                    for _ in range(3)]
        one_sample = [("standard_normal", 2), ("random",),
                      ("standard_normal", 1), ("random",)]
        if normal is np.zeros:
            one_sample = [("standard_normal", 2), ("standard_normal", 1)]
        assert ours.calls == theirs.calls == 3 * one_sample
        for i in range(3):
            for sample, want in zip(rows, expected[i]):
                assert np.array_equal(sample[i], want)

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
