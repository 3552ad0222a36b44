import math
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsim import triggers
from etcsim.demo import demo_scenario
from etcsim.errors import ConfigurationError
from etcsim.hybrid import HybridState, Termination, _quad_rows
from etcsim.simulate import _PolicyEval, integrate_arc
from etcsim.triggers import (
    GammaForm,
    PolicyKind,
    TriggerPolicy,
    _pow_rows,
    deadzone_event,
    naive_event,
    periodic_event,
    time_regularized_event,
    time_regularized_margin,
)


class StubCert:
    """Quadratic Vx = |x|^2 with explicit gamma1 and alpha1."""

    def __init__(self, gamma1_coeff=2.0, alpha1=0.5):
        self.gamma1 = GammaForm(gamma1_coeff)
        self.alpha1 = alpha1

    def v_x(self, x):
        x = np.asarray(x)
        return float(x @ x)


class CubicCert(StubCert):
    """StubCert with a cubic gamma1."""

    def __init__(self):
        super().__init__()
        self.gamma1 = GammaForm(2.0, 3.0)


def state(x, e, tau=None, n_y=1):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return HybridState(x=x, y=np.zeros(n_y), e=e, tau=tau)


class TestGammaForm:
    def test_zero_at_zero_and_increasing(self):
        g = GammaForm(2.0)
        assert g(0.0) == 0.0
        assert g(2.0) > g(1.0) > 0.0

    def test_inverse(self):
        g = GammaForm(2.0)
        assert g.inverse(g(1.7)) == pytest.approx(1.7)

    def test_slope(self):
        g = GammaForm(3.0, 2.0)
        assert g.slope(2.0) == pytest.approx(12.0)

    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0, 3.0])
    def test_rows_bitwise_equal_the_scalar_gain(self, power):
        # libm's pow per entry, as float ** float: numpy's power may round
        # differently; 0, subnormals and values near the float range included
        s = np.array([0.0, 5e-324, 1e-310, 1e-160, 0.1, 0.3, 1.0, 7.5, 3.0e51, 1e100,
                      2.0**-1074 * 3, 5.6e102])
        g = GammaForm(1.7, power)
        assert g.rows(s).tobytes() == np.array([g(v) for v in s]).tobytes()
        assert g.slope_rows(s).tobytes() == np.array([g.slope(v) for v in s]).tobytes()

    def test_pow_rows_at_exponent_one_is_the_libm_loop(self):
        # the copy at p == 1 is pow's result byte for byte: signed zeros and
        # infinities, NaNs with their payloads (a signalling one too), the
        # extreme subnormals and finite values, and values of both signs
        # spread over the whole float range
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF0000000000ABC,
                         0x7FF4000000000000], dtype=np.uint64).view(float)
        edge = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(20261020)
        wide = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-323.0, 308.0, 20000)
        v = np.concatenate([edge, nans, wide])
        out = _pow_rows(v, 1.0)
        assert out.tobytes() == np.fromiter(map(pow, v.tolist(), repeat(1.0)), float,
                                            v.size).tobytes()
        assert not np.shares_memory(out, v)

    def test_pow_rows_at_half_and_two_is_the_libm_loop(self, monkeypatch):
        # sqrt and s * s on arrays of at least _POW_VECTOR_ROWS entries, pow
        # near a rounding tie: byte for byte the loop, errors included, on
        # uniform draws (about 800 per million round otherwise under pow),
        # wide magnitudes, squared midpoints between neighbouring doubles and
        # exact ties of the square, values just below powers of two, signed
        # zeros, infinities, NaNs, the subnormal and finite extremes, and
        # negative entries
        n = triggers._POW_VECTOR_ROWS
        rng = np.random.default_rng(20261021)
        uniform = rng.random(1_000_000)
        wide = 10.0 ** rng.uniform(-300.0, 300.0, 100_000)
        mid_squares = []
        for r in np.concatenate([rng.random(3000), 10.0 ** rng.uniform(-150, 150, 3000)]).tolist():
            m, e = math.frexp(r)  # r = m * 2**53 * 2**(e - 53), midpoint 2m + 1
            mid = 2 * int(m * 2**53) + 1
            mid_squares.append(math.ldexp(float(mid * mid), 2 * (e - 53) - 2))
        mid_squares = np.array(mid_squares)
        odd = 2 * rng.integers(math.isqrt(2**51) + 1, 2**26, 3000) + 1  # odd 27 bits: squares of 54
        near = np.concatenate([mid_squares, np.ldexp(odd.astype(float), -26),
                               np.nextafter(2.0 ** np.arange(-1074, 1024), 0.0)])
        near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF0000000000ABC,
                         0x7FF4000000000000], dtype=np.uint64).view(float)
        edge = np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                                2.225073858507201e-308, 1.7976931348623157e308], nans])

        def outcome(v, p):
            try:
                return _pow_rows(v, p).tobytes()
            except (TypeError, OverflowError) as exc:
                return type(exc), str(exc)

        def loop(v, p):
            try:
                return np.fromiter(map(pow, v.tolist(), repeat(p)), float, v.size).tobytes()
            except (TypeError, OverflowError) as exc:
                return type(exc), str(exc)

        pad = uniform[:n]
        for p in (0.5, 2.0):
            for v in (uniform, wide, near, -near, np.concatenate([edge, pad]),
                      np.concatenate([edge[edge != 1.7976931348623157e308], pad]),
                      np.concatenate([pad, -wide[:1]]), uniform[:n - 1], near[:n]):
                assert outcome(v, p) == loop(v, p)
        assert loop(np.concatenate([pad, [-0.25]]), 0.5)[0] is TypeError
        assert loop(np.concatenate([edge, pad]), 2.0)[0] is OverflowError
        # below the crossover every entry goes through pow, from it only some
        looped = []
        real_loop = triggers._pow_loop
        monkeypatch.setattr(triggers, "_pow_loop", lambda v, p: looped.append(v.size)
                            or real_loop(v, p))
        for p in (0.5, 2.0):
            for size in (n - 1, n):
                assert _pow_rows(uniform[:size], p).tobytes() == loop(uniform[:size], p)
        assert looped[0] == looped[2] == n - 1 and 0 < looped[1] < n and 0 < looped[3] < n

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            GammaForm(-1.0)
        with pytest.raises(ConfigurationError):
            GammaForm(1.0, 0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="'coeff'"):
                GammaForm(bad)
            with pytest.raises(ConfigurationError, match="'power'"):
                GammaForm(1.0, bad)


class TestPolicyValidation:
    def test_sigma_range(self):
        with pytest.raises(ConfigurationError):
            TriggerPolicy(kind=PolicyKind.NAIVE, sigma=1.0)
        with pytest.raises(ConfigurationError):
            TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.5, rho=0.0)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="rho"):
                deadzone_event(state([0.0, 0.0], [0.0, 0.0]), StubCert(), 0.5, rho)
        # the public functions reject exactly what TriggerPolicy rejects
        q, cert = state([1.0, 0.0], [0.5, 0.0], tau=0.5), StubCert()
        for sigma in (1.0, math.nan):
            for call in (lambda: naive_event(q, cert, sigma),
                         lambda: deadzone_event(q, cert, sigma, 0.1),
                         lambda: time_regularized_event(q, cert, sigma, 1.0),
                         lambda: time_regularized_margin(q, cert, sigma, 1.0)):
                with pytest.raises(ConfigurationError, match="sigma"):
                    call()
        for t_star in (math.nan, -1.0):
            for fn in (time_regularized_event, time_regularized_margin):
                with pytest.raises(ConfigurationError, match="t_star"):
                    fn(q, cert, 0.5, t_star)
        with pytest.raises(ConfigurationError):
            TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.5,
                          t_star=-1.0)
        with pytest.raises(ConfigurationError):
            TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.0)

    def test_clock_requirement(self):
        tr = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.5,
                           t_star=1.0)
        dz = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.5, rho=0.1)
        assert tr.requires_clock and not dz.requires_clock

    def test_from_dict(self):
        p = TriggerPolicy.from_dict({"policy": "deadzone", "sigma": 0.4,
                                     "rho": 0.2})
        assert p.kind is PolicyKind.DEADZONE and p.rho == 0.2
        with pytest.raises(ConfigurationError):
            TriggerPolicy.from_dict({"sigma": 0.4})
        with pytest.raises(ConfigurationError):
            TriggerPolicy.from_dict({"policy": "deadzone", "sigma": 0.4,
                                     "rho": 0.2, "bogus": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            TriggerPolicy.from_dict({"policy": "bogus"})
        with pytest.raises(ConfigurationError, match="bogus"):
            TriggerPolicy(kind="bogus", sigma=0.3)

    def test_parameter_of_another_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take rho"):
            TriggerPolicy(kind=PolicyKind.NAIVE, sigma=0.3, rho=0.1)
        for kind, params in POLICY_PARAMS.items():
            TriggerPolicy(kind=kind, **params)
            for name in ("sigma", "rho", "t_star", "period"):
                if name not in params:
                    with pytest.raises(ConfigurationError,
                                       match=f"does not take {name}"):
                        TriggerPolicy(kind=kind, **params, **{name: 0.5})
                    with pytest.raises(ConfigurationError,
                                       match=f"does not take {name}"):
                        TriggerPolicy.from_dict({"policy": kind.value, **params,
                                                 name: 0.5})

    def test_missing_nan_or_non_number_parameter_rejected(self):
        for kind, params in POLICY_PARAMS.items():
            for name in params:
                for bad in (None, math.nan, "0.5"):
                    with pytest.raises(ConfigurationError, match=name):
                        TriggerPolicy(kind=kind, **{**params, name: bad})


POLICY_PARAMS = {
    PolicyKind.NAIVE: {"sigma": 0.3},
    PolicyKind.DEADZONE: {"sigma": 0.3, "rho": 0.1},
    PolicyKind.TIME_REGULARIZED: {"sigma": 0.3, "t_star": 0.5},
    PolicyKind.PERIODIC: {"period": 0.25},
}


def policy_of(kind):
    return TriggerPolicy(kind=kind, **POLICY_PARAMS[kind])


class TestPolicyRules:
    def test_clock_ceiling(self):
        ceilings = {kind: policy_of(kind).clock_ceiling for kind in PolicyKind}
        assert ceilings == {PolicyKind.NAIVE: None, PolicyKind.DEADZONE: None,
                            PolicyKind.TIME_REGULARIZED: 0.5,
                            PolicyKind.PERIODIC: 0.25}

    def test_jump_reason(self):
        for kind in (PolicyKind.NAIVE, PolicyKind.DEADZONE):
            for m, tau in ((0.0, 0.0), (1.0, 0.5), (1.0, 9.0)):
                assert policy_of(kind).jump_reason(m, tau) == "threshold"
        periodic = policy_of(PolicyKind.PERIODIC)
        assert periodic.jump_reason(0.0, 0.25) == "periodic"
        dwell = policy_of(PolicyKind.TIME_REGULARIZED)
        # past the surface at the boundary: the clock fired it
        assert dwell.jump_reason(1.0, 0.5) == "dwell-clock"
        # on the surface, or past the boundary: the threshold fired it
        assert dwell.jump_reason(0.0, 0.5) == "threshold"
        assert dwell.jump_reason(0.0, 0.7) == "threshold"

    def test_check_certificate(self):
        policy_of(PolicyKind.PERIODIC).check_certificate(None)
        for kind in (PolicyKind.NAIVE, PolicyKind.DEADZONE,
                     PolicyKind.TIME_REGULARIZED):
            with pytest.raises(ConfigurationError, match="certificate"):
                policy_of(kind).check_certificate(None)
            policy_of(kind).check_certificate(StubCert())
        policy_of(PolicyKind.NAIVE).check_certificate(CubicCert())
        policy_of(PolicyKind.DEADZONE).check_certificate(CubicCert())
        with pytest.raises(ConfigurationError, match="quadratic"):
            policy_of(PolicyKind.TIME_REGULARIZED).check_certificate(CubicCert())


class TestNaive:
    def test_origin_is_zeno_seed(self):
        # margin zero at the origin, and the jump image (e reset, x kept)
        # sits on the surface again
        cert = StubCert()
        q = state([0.0, 0.0], [0.0, 0.0])
        assert naive_event(q, cert, 0.5) == 0.0
        q_post = state([0.0, 0.0], [0.0, 0.0])
        assert naive_event(q_post, cert, 0.5) == 0.0

    def test_interior_when_error_zero(self):
        cert = StubCert()
        q = state([1.0, 0.0], [0.0, 0.0])
        assert naive_event(q, cert, 0.5) < 0.0

    def test_quadratic_threshold_value(self):
        # Vx = 1, sigma*alpha1 = 0.25, gamma1 = 2 s^2: boundary at
        # |e| = sqrt(0.125)
        cert = StubCert(gamma1_coeff=2.0, alpha1=0.5)
        q = state([1.0, 0.0], [math.sqrt(0.125), 0.0])
        assert naive_event(q, cert, 0.5) == pytest.approx(0.0, abs=1e-15)


class TestDeadzone:
    def test_floor_reached_at_origin(self):
        cert = StubCert()
        rho = 0.3
        e = math.sqrt(rho / 2.0)
        q = state([0.0, 0.0], [e, 0.0])
        assert deadzone_event(q, cert, 0.5, rho) == pytest.approx(0.0)

    def test_origin_strictly_interior(self):
        # the naive policy's Zeno seed now sits strictly inside the flow set
        cert = StubCert()
        q = state([0.0, 0.0], [0.0, 0.0])
        assert deadzone_event(q, cert, 0.5, 0.3) == -0.3

    def test_threshold_above_floor(self):
        # Vx = 4, sigma*alpha1 = 0.25, rho = 0.5: threshold max{1, 0.5} = 1,
        # trigger at |e| = sqrt(0.5)
        cert = StubCert(gamma1_coeff=2.0, alpha1=0.5)
        q = state([2.0, 0.0], [math.sqrt(0.5), 0.0])
        assert deadzone_event(q, cert, 0.5, 0.5) == pytest.approx(0.0)

    def test_post_jump_strictly_negative(self):
        cert = StubCert()
        q = state([1.5, 0.0], [0.0, 0.0])
        margin = deadzone_event(q, cert, 0.5, 0.2)
        assert margin <= -0.2


class TestTimeRegularized:
    def test_flow_during_dwell(self):
        cert = StubCert()
        q = state([0.1, 0.0], [5.0, 0.0], tau=0.5)
        flow_ok, jump_ok = time_regularized_event(q, cert, 0.5, 1.0)
        assert flow_ok and not jump_ok

    def test_jump_at_dwell_with_threshold_met(self):
        cert = StubCert()
        q = state([0.1, 0.0], [5.0, 0.0], tau=1.0)
        flow_ok, jump_ok = time_regularized_event(q, cert, 0.5, 1.0)
        assert jump_ok

    def test_flow_after_dwell_below_threshold(self):
        cert = StubCert()
        q = state([1.0, 0.0], [0.0, 0.0], tau=2.0)
        flow_ok, jump_ok = time_regularized_event(q, cert, 0.5, 1.0)
        assert flow_ok and not jump_ok

    def test_margin_branches(self):
        cert = StubCert()
        q = state([1.0, 0.0], [0.0, 0.0], tau=0.5)
        assert time_regularized_margin(q, cert, 0.5, 1.0) == -math.inf
        q = state([0.0, 0.0], [1.0, 0.0], tau=0.5)
        assert time_regularized_margin(q, cert, 0.5, 1.0) == -0.5
        q = state([0.0, 0.0], [1.0, 0.0], tau=1.5)
        assert time_regularized_margin(q, cert, 0.5, 1.0) == pytest.approx(2.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(x=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           e=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           tau_frac=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0)),
                             min_size=2, max_size=2),
           sigma=st.floats(0.01, 0.99), t_star=st.floats(1e-3, 10.0))
    def test_margin_sign_is_the_max_rule(self, x, e, tau_frac, sigma, t_star):
        # The earlier rule: the max of the threshold margin once tau >= t_star
        # and of tau - t_star once that margin is >= 0, each -inf otherwise.
        # The margin keeps its sign and its jump reason, point by point and
        # on rows.
        cert = StubCert()
        policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=sigma, t_star=t_star)
        xs, es = np.reshape(x, (2, 2)), np.reshape(e, (2, 2))
        taus = np.array(tau_frac) * t_star
        v_x = np.array([cert.v_x(row) for row in xs])
        rows = policy._margin(cert, v_x, es, taus, rows=True)
        for k in range(2):
            tau = float(taus[k])
            threshold = TriggerPolicy(kind=PolicyKind.NAIVE, sigma=sigma).margin(
                cert, xs[k], es[k], tau)
            old = max(threshold if tau >= t_star else -math.inf,
                      tau - t_star if threshold >= 0.0 else -math.inf)
            m = policy.margin(cert, xs[k], es[k], tau)
            assert (m >= 0.0) == (old >= 0.0) and (m == -math.inf) == (old == -math.inf)
            assert rows[k] == m
            if m >= 0.0:
                assert policy.jump_reason(m, tau) == policy.jump_reason(old, tau)

    def test_clock_required(self):
        cert = StubCert()
        q = state([1.0, 0.0], [0.0, 0.0], tau=None)
        with pytest.raises(ConfigurationError):
            time_regularized_event(q, cert, 0.5, 1.0)

    def test_quadratic_gain_required(self):
        q = state([1.0, 0.0], [0.0, 0.0], tau=0.5)
        with pytest.raises(ConfigurationError):
            time_regularized_event(q, CubicCert(), 0.5, 1.0)


class TestPeriodic:
    def test_margins(self):
        assert periodic_event(0.0, 2.0) == -2.0
        assert periodic_event(2.0, 2.0) == 0.0

    def test_jump_count_arithmetic(self):
        horizon, period = 10.0, 3.0
        count = 0
        t = 0.0
        while t + period <= horizon:
            t += period
            count += 1
        assert count == math.floor(horizon / period)

    def test_invalid_period(self):
        for period in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="period"):
                periodic_event(1.0, period)


class TestPurity:
    def test_bitwise_repeatable(self, rng):
        cert = StubCert(1.7, 0.42)
        for _ in range(50):
            q = state(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2), tau=None)
            a = deadzone_event(q, cert, 0.37, 0.11)
            b = deadzone_event(q, cert, 0.37, 0.11)
            assert a == b
            n1 = naive_event(q, cert, 0.37)
            n2 = naive_event(q, cert, 0.37)
            assert n1 == n2


def test_integrator_margins_equal_public_functions(certification):
    # The integrator's stored margins come from the same arithmetic as the
    # public event functions, so they agree bitwise on every stored sample.
    # Each stored margin is also the value that decided the jump: a sample
    # is followed by a jump row exactly when its margin is >= 0, and the
    # arc ends off the jump set unless the Zeno guard stopped it.
    cert = certification.cert
    short = {"deadzone": 5.0, "dwell": 4.0}
    for name in ("zeno", "deadzone", "dwell", "compare_periodic"):
        sc = demo_scenario(name)
        policy = sc.policy
        if policy.kind is PolicyKind.PERIODIC:
            horizon = 5.0 * policy.period
        else:
            horizon = short.get(name, sc.solver.horizon)
        cfg = replace(sc.solver, horizon=horizon)
        arc = integrate_arc(sc.plant, policy, sc.q0, cfg, cert=cert)
        assert arc.jump_count >= 1
        before_jump = np.append(arc.is_jump[1:], 0) == 1
        margins = arc.trigger_margin
        assert np.array_equal(margins[:-1] >= 0.0, before_jump[:-1]), name
        if arc.termination is not Termination.ZENO_GUARD:
            assert margins[-1] < 0.0, name
        for i, stored in enumerate(arc.trigger_margin.tolist()):
            q = arc.state_at(i)
            if policy.kind is PolicyKind.NAIVE:
                expected = naive_event(q, cert, policy.sigma)
            elif policy.kind is PolicyKind.DEADZONE:
                expected = deadzone_event(q, cert, policy.sigma, policy.rho)
            elif policy.kind is PolicyKind.TIME_REGULARIZED:
                expected = time_regularized_margin(q, cert, policy.sigma,
                                                   policy.t_star)
            elif before_jump[i]:
                # Clockless arcs store no tau. It is known exactly before a
                # jump (the clamped clock boundary) and at the start and
                # after each jump (zero); elsewhere it cannot be recomputed.
                expected = periodic_event(policy.period, policy.period)
            elif i == 0 or arc.is_jump[i]:
                expected = periodic_event(0.0, policy.period)
            else:
                continue
            assert stored == expected, (name, i)


@pytest.mark.parametrize("policy", [
    TriggerPolicy(kind=PolicyKind.NAIVE, sigma=0.3),
    TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02),
    TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.3, t_star=0.2),
    TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.2),
], ids=lambda p: p.kind.value)
def test_row_margins_equal_point_margins(certification, policy):
    # the integrator's runs take margins on rows of stacked (x, y, e)
    # states, and its monitor fill Vx: each entry equals the point margin
    # and v_x bitwise, across both sides of the dead-zone floor, zero
    # errors and tau at t_star
    cert = certification.cert
    gen = np.random.default_rng(11)
    states = gen.uniform(-1.0, 1.0, (300, 5)) * gen.choice([1e-3, 0.1, 1.0], (300, 1))
    states[::7, 3:] = 0.0
    tau = gen.uniform(0.0, 0.4, 300)
    tau[::5] = 0.2
    ev = _PolicyEval(policy, cert, 2, 1)
    rows = ev.rows(states, tau)
    point = [ev.margin(s, t) for s, t in zip(states, tau.tolist())]
    assert rows.tobytes() == np.array(point).tobytes()
    v_x = _quad_rows(states[:, :2], cert.data.p1)
    assert v_x.tobytes() == np.array([cert.v_x(s[:2]) for s in states]).tobytes()
    if policy.kind is not PolicyKind.PERIODIC:
        assert 0 < np.count_nonzero(rows >= 0.0) < rows.size
