import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etcsim.simulate as simulate
from etcsim.certificates import LyapunovCertificate, QuadraticLyapunovData
from etcsim.demo import demo_certification, demo_plant, demo_scenario
from etcsim.errors import ConfigurationError, DimensionError, DivergenceError, OrderingError
from etcsim.hybrid import HybridArc, HybridState, Termination
from etcsim.plant import LinearPlantSpec, PlantSpec, apply_jump
from etcsim.simulate import (
    DIVERGENCE_NORM,
    SolverConfig,
    build_hybrid_system,
    integrate_arc,
    locate_event,
    monitor_r,
    monitor_v,
)
from etcsim.triggers import GammaForm, PolicyKind, TriggerPolicy


@pytest.fixture(scope="module")
def certn():
    return demo_certification()


def _q0(x=(1.0, -0.5), y=(0.4,), tau=None):
    return HybridState(x=np.array(x, dtype=float), y=np.array(y, dtype=float),
                       e=np.zeros(2), tau=tau)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(horizon=-1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(zeno_max_jumps=1)
        with pytest.raises(ConfigurationError):
            SolverConfig(store_stride=0)
        # NaN passes every `<=` range test; max_step_factor NaN made the
        # integrator loop forever, so it is tested here and not through the CLI
        for name in ("max_step_factor", "event_tol", "rel_tol", "abs_tol", "zeno_window",
                     "zeno_max_jumps", "store_stride", "fast_floor"):
            with pytest.raises(ConfigurationError, match=f"'{name}'"):
                SolverConfig(**{name: math.nan})
        for name, bad in (("fast_floor", -1.0), ("seed", -1), ("horizon", math.inf)):
            with pytest.raises(ConfigurationError, match=f"'{name}'"):
                SolverConfig(**{name: bad})


class TestLocateEvent:
    def test_linear_margin_midpoint(self):
        margin = lambda t: t - 0.5
        t_event = locate_event(margin, 0.0, 1.0, 1e-9)
        assert t_event == pytest.approx(0.5, abs=1e-9)
        assert margin(t_event) >= 0.0

    def test_no_sign_change(self):
        assert locate_event(lambda t: -1.0, 0.0, 1.0, 1e-9) is None
        assert locate_event(lambda t: 1.0, 0.0, 1.0, 1e-9) is None

    def test_zero_at_left_edge_is_not_a_crossing(self):
        # a restart exactly on the boundary is the jump loop's business
        # (eager selection), not the bracketing localizer's
        assert locate_event(lambda t: t, 0.0, 1.0, 1e-9) is None

    def test_held_bracket_ends_are_not_evaluated_again(self):
        probed = []

        def margin(t):
            probed.append(t)
            return t - 0.3

        t_event = locate_event(margin, 0.0, 1.0, 1e-9, m_lo=-0.3, m_hi=0.7)
        assert t_event == locate_event(lambda t: t - 0.3, 0.0, 1.0, 1e-9)
        assert 0.0 not in probed and 1.0 not in probed


def _counted_locate(margin, t_lo, t_hi, event_tol):
    """(locate_event's time, its margin evaluations) with the held ends given."""
    probed = []

    def counted(t):
        probed.append(t)
        return margin(t)

    t_event = locate_event(counted, t_lo, t_hi, event_tol, m_lo=margin(t_lo), m_hi=margin(t_hi))
    return t_event, len(probed)


def _bisection_count(width, event_tol):
    return math.ceil(math.log2(width / event_tol))


# Margins that rise through zero at root on every bracket below.
_HARD_MARGINS = {
    # the dead-zone form gamma(|e|) - rho, with gamma = 2 max(|e| - a, 0)
    # and |e| = t - root + a: constant up to its kink at root, then 5e-7
    # more to the crossing
    "kink": lambda root: lambda t: 2.0 * max(abs(t - root + 1.0) - 1.0, 0.0) - 1e-6,
    # a ninth power of t - t0: flat at the root
    "flat_end": lambda root: lambda t: (t - root + 0.05) ** 9 - 0.05**9,
    # a jump discontinuity at the root
    "jump": lambda root: lambda t: 1.0 if t >= root else -1.0,
}


class TestLocateEventBound:
    """The locator's evaluations never pass bisection's count plus
    _ITP_N0, whatever the margin, and fall far below it on smooth ones."""

    @pytest.mark.parametrize("kind", sorted(_HARD_MARGINS))
    @pytest.mark.parametrize("t_lo, width", [(0.0, 1.0), (3.7, 0.0075), (12.25, 0.5)])
    @pytest.mark.parametrize("event_tol", [1e-9, 2.0**-30, 1e-11])
    def test_never_above_bisection_plus_n0(self, kind, t_lo, width, event_tol):
        bound = _bisection_count(width, event_tol) + simulate._ITP_N0
        for frac in (0.001, 0.25, 0.5, 0.61803, 0.999):
            root = t_lo + frac * width
            margin = _HARD_MARGINS[kind](root)
            t_event, evals = _counted_locate(margin, t_lo, t_lo + width, event_tol)
            assert evals <= bound, (frac, evals, bound)
            assert margin(t_event) >= 0.0 > margin(t_event - event_tol)

    def test_smooth_margin_well_below_bisection(self):
        for root in (0.1, 0.37, 0.5, 0.93):
            margin = lambda t, root=root: math.expm1(3.0 * (t - root)) + 0.2 * (t - root) ** 2
            t_event, evals = _counted_locate(margin, 0.0, 1.0, 1e-9)
            assert evals <= _bisection_count(1.0, 1e-9) // 3, (root, evals)
            assert margin(t_event) >= 0.0 > margin(t_event - 1e-9)


# Monotone margins through zero at r: smooth, kinked, flat-ended.
_MONOTONE = {
    "smooth": lambda r, s: lambda t: math.expm1(s * (t - r)),
    "kinked": lambda r, s: lambda t: (t - r) + s * (max(t - r + 0.01, 0.0) - 0.01),
    "flat_end": lambda r, s: lambda t: (t - r + 0.1) ** 9 - 0.1**9 + s * 1e-12 * (t - r),
}


class TestLocateEventContract:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(sorted(_MONOTONE)),
           t_lo=st.floats(0.0, 30.0), width=st.floats(1e-6, 2.0),
           root_at=st.floats(-0.5, 1.5), slope=st.floats(0.1, 10.0),
           event_tol=st.sampled_from([1e-9, 1e-11, 1e-7]))
    def test_nonnegative_side_within_tol_or_none(self, kind, t_lo, width, root_at, slope,
                                                  event_tol):
        t_hi = t_lo + width
        margin = _MONOTONE[kind](t_lo + root_at * width, slope)
        t_event = locate_event(margin, t_lo, t_hi, event_tol)
        if not margin(t_lo) < 0.0 <= margin(t_hi):
            assert t_event is None
            return
        assert t_event is not None and t_lo < t_event <= t_hi
        assert margin(t_event) >= 0.0
        assert margin(t_event - event_tol) < 0.0


class TestEventAccuracy:
    @pytest.mark.parametrize("generic", [False, True])
    def test_deadzone_demo_against_a_tight_reference(self, certn, generic):
        sc = demo_scenario("deadzone")
        plant = sc.plant.as_plant_spec() if generic else sc.plant

        def arc(event_tol):
            return integrate_arc(plant, sc.policy, sc.q0, replace(sc.solver, event_tol=event_tol),
                                 cert=certn.cert)

        default, tight = arc(sc.solver.event_tol), arc(1e-14)
        assert default.termination is tight.termination is Termination.HORIZON
        assert [ev.reason for ev in default.events] == [ev.reason for ev in tight.events]
        assert default.jump_count == tight.jump_count > 0
        assert abs(default.jump_times()[0] - tight.jump_times()[0]) <= sc.solver.event_tol


class TestZeno:
    @pytest.mark.parametrize("generic_jump", [True, False])
    def test_naive_from_origin_trips_guard(self, certn, generic_jump):
        sc = demo_scenario("zeno")
        plant = sc.plant.as_plant_spec() if generic_jump else sc.plant
        arc = integrate_arc(plant, sc.policy, sc.q0, sc.solver, cert=certn.cert)
        assert arc.termination is Termination.ZENO_GUARD
        assert arc.jump_count >= 1000
        assert arc.elapsed_time() == 0.0
        assert np.all(arc.t == 0.0)

    def test_guard_stops_at_max_jumps_plus_one(self, certn):
        sc = demo_scenario("zeno")
        cfg = replace(sc.solver, zeno_max_jumps=5)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        assert arc.termination is Termination.ZENO_GUARD
        assert arc.jump_count == 6

    @pytest.mark.parametrize("window, tripped", [(0.06, True), (0.04, False)])
    def test_guard_trips_only_within_window(self, window, tripped):
        # six periodic jumps span 0.05; the horizon sits half a period past
        # the 19th boundary, so no boundary ties with it within rounding
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.01)
        cfg = SolverConfig(horizon=0.195, zeno_max_jumps=5, zeno_window=window)
        arc = integrate_arc(demo_plant(0.05), policy, _q0(), cfg)
        if tripped:
            assert arc.termination is Termination.ZENO_GUARD
            assert arc.jump_count == 6
        else:
            assert arc.termination is Termination.HORIZON
            assert arc.jump_count == 19

    @pytest.mark.parametrize("generic", [False, True])
    @pytest.mark.parametrize("max_jumps", [2**63 - 1, 10**19])
    def test_guard_takes_max_jumps_past_the_index_range(self, generic, max_jumps):
        # [2, inf) has no top: a bound past what a deque can hold runs, and
        # the guard does not trip before it (here it never can)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.01)
        plant = demo_plant(0.05)
        cfg = SolverConfig(horizon=0.195, zeno_max_jumps=max_jumps, zeno_window=0.06)
        arc = integrate_arc(plant.as_plant_spec() if generic else plant, policy, _q0(), cfg)
        assert arc.termination is Termination.HORIZON
        assert arc.jump_count == 19

    def test_eager_first_action_from_jump_set(self, certn):
        # any state on the naive surface jumps before flowing
        sc = demo_scenario("zeno")
        q0 = _q0(x=(0.0, 0.0), y=(0.3,))
        arc = integrate_arc(sc.plant, sc.policy, q0, sc.solver,
                            cert=certn.cert)
        assert arc.is_jump[1] == 1
        assert arc.t[1] == 0.0


@pytest.fixture(scope="module")
def arc(certn):
    sc = demo_scenario("deadzone")
    cfg = replace(sc.solver, horizon=15.0)
    return integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)


class TestDeadzone:
    def test_horizon_reached_with_events(self, arc):
        assert arc.termination is Termination.HORIZON
        assert arc.jump_count >= 3

    def test_post_jump_error_exactly_zero(self, arc):
        for ev in arc.events:
            assert np.array_equal(ev.post_state.e, np.zeros(2))
            assert np.array_equal(ev.post_state.x, ev.pre_state.x)

    def test_pre_jump_margin_localized(self, arc, certn):
        sc = demo_scenario("deadzone")
        for ev in arc.events:
            e_norm = float(np.linalg.norm(ev.pre_state.e))
            margin = (certn.cert.gamma1(e_norm)
                      - max(sc.policy.sigma * certn.cert.alpha1
                            * certn.cert.v_x(ev.pre_state.x), sc.policy.rho))
            assert margin >= 0.0
            assert margin <= 1e-6

    def test_post_jump_margin_strictly_interior(self, arc):
        post = arc.trigger_margin[arc.is_jump == 1]
        assert np.all(post <= -demo_scenario("deadzone").policy.rho + 1e-12)

    def test_flow_samples_inside_flow_set(self, arc):
        margins = arc.trigger_margin[arc.is_jump == 0]
        assert np.all(margins <= 1e-6)

    def test_no_two_jumps_at_same_time(self, arc):
        # post-jump margins sit at -max(threshold, rho) < 0, so a second
        # jump at the same instant is impossible
        times = arc.jump_times()
        assert np.all(np.diff(times) > 0.0)

    def test_determinism_bitwise(self, certn):
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=5.0)
        a = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        b = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.v, b.v)

    def test_propagator_and_generic_path_agree(self, certn):
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=5.0)
        a = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        b = integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0, cfg,
                          cert=certn.cert)
        assert a.jump_count == b.jump_count
        assert a.jump_times() == pytest.approx(b.jump_times(), abs=1e-7)
        assert a.final_state().x == pytest.approx(b.final_state().x, abs=1e-7)

    def test_propagator_and_generic_path_agree_on_dwell_policy(self, certn):
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=4.0)
        a = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert,
                          params=certn.dwell)
        b = integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0, cfg,
                          cert=certn.cert, params=certn.dwell)
        assert a.jump_count == b.jump_count
        assert a.jump_times() == pytest.approx(b.jump_times(), abs=1e-9)
        ra = a.r[np.isfinite(a.r)]
        rb = b.r[np.isfinite(b.r)]
        assert ra[0] == rb[0]
        assert a.final_state().xy_norm() == pytest.approx(
            b.final_state().xy_norm(), rel=1e-6, abs=1e-12)

    def test_paths_agree_over_many_events(self, certn):
        # thirty seconds of the dwell scenario crosses ~36 clock-clamped
        # transmissions; the two integration paths must stay in lockstep
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=30.0)
        a = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert,
                          params=certn.dwell)
        b = integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0, cfg,
                          cert=certn.cert, params=certn.dwell)
        assert a.jump_count == b.jump_count >= 30
        assert a.jump_times() == pytest.approx(b.jump_times(), abs=1e-9)
        assert [ev.reason for ev in a.events] == [ev.reason for ev in b.events]

    def test_arcs_pass_ordering_check(self, certn, arc):
        arc.check_ordering()
        sc = demo_scenario("zeno")
        zeno = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver,
                             cert=certn.cert)
        zeno.check_ordering()

    def test_out_of_order_flow_row_raises(self, certn, monkeypatch):
        # flow rows skip the public append checks, one at a time or a run's
        # rows in one write; integrate_arc checks the arc's (t, j) ordering
        # once before it returns
        write = HybridArc._append_rows

        def misplaced(arc, rows):
            rows = np.array(rows, dtype=float)
            if len(arc) <= 5 < len(arc) + len(rows):
                rows[5 - len(arc), 0] = 0.0
            write(arc, rows)

        monkeypatch.setattr(HybridArc, "_append_rows", misplaced)
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=1.0)
        with pytest.raises(OrderingError):
            integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)


class TestPeriodic:
    def test_period_beyond_horizon_flows_only(self, certn):
        # frozen-input loop is stable, so the norm contracts over the run
        plant = demo_plant(0.02)
        assert np.all(np.linalg.eigvals(plant.a11).real < 0.0)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=100.0)
        cfg = SolverConfig(horizon=20.0)
        q0 = _q0()
        arc = integrate_arc(plant, policy, q0, cfg)
        assert arc.jump_count == 0
        assert arc.termination is Termination.HORIZON
        assert np.linalg.norm(arc.final_state().x) < np.linalg.norm(q0.x)

    def test_jump_count_matches_period(self, certn):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.5)
        arc = integrate_arc(plant, policy, _q0(), SolverConfig(horizon=5.25))
        assert arc.jump_count == math.floor(5.25 / 0.5)
        periods = np.diff(arc.jump_times())
        assert periods == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("period", [0.01, 0.03])
    def test_horizon_on_a_period_boundary_ends_the_arc(self, period):
        # the last boundary may land a few ulps short of the horizon; the
        # remnant is below the step floor and must end the arc, not raise
        # a step-size underflow (horizon 0.27 at period 0.03 did)
        plant = demo_plant(0.05)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=period)
        for k in range(2, 40):
            horizon = k * period
            arc = integrate_arc(plant, policy, _q0(), SolverConfig(horizon=horizon))
            assert arc.termination is Termination.HORIZON, k
            floor = 16.0 * np.finfo(float).eps * max(1.0, horizon)
            assert abs(horizon - arc.t[-1]) <= floor, k
            assert arc.jump_count in (k - 1, k), k

    def test_clock_boundary_jumps_are_not_bracketed(self, monkeypatch):
        # every periodic jump is at a clock boundary, where the clamped step
        # ends: it lands there without a bisection
        calls = []

        def counted(*args):
            calls.append(args)
            return locate_event(*args)

        monkeypatch.setattr(simulate, "locate_event", counted)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.1)
        arc = integrate_arc(demo_plant(0.05), policy, _q0(), SolverConfig(horizon=1.05))
        assert arc.jump_count == 10 and not calls
        assert np.diff(arc.jump_times()) == pytest.approx(0.1, abs=1e-12)


class TestInitialStateSize:
    def test_each_block_checked_against_the_plant(self, certn):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.3)
        cfg = SolverConfig(horizon=1.0)
        q0 = HybridState(x=np.ones(3), y=np.ones(1), e=np.zeros(3))
        with pytest.raises(DimensionError, match="x has size 3, expected 2"):
            integrate_arc(plant, policy, q0, cfg)
        q0 = HybridState(x=np.ones(2), y=np.ones(2), e=np.zeros(2))
        with pytest.raises(DimensionError, match="y has size 2, expected 1"):
            integrate_arc(plant, policy, q0, cfg)

    def test_lyapunov_blocks_checked_against_the_plant(self, certn):
        from etcsim.certificates import LyapunovCertificate, QuadraticLyapunovData

        data = QuadraticLyapunovData(p1=np.eye(3), p2=[[0.8]], alpha1_bar=1.998,
                                     alpha2=1.1988, l_bar=1.0)
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02)
        with pytest.raises(DimensionError, match="P1 has size 3, expected 2"):
            integrate_arc(demo_plant(0.02), policy, _q0(), SolverConfig(horizon=1.0),
                          cert=LyapunovCertificate.derive(data))


class TestTimeRegularized:
    def test_clock_mismatch_rejected(self, certn):
        sc = demo_scenario("dwell")
        with pytest.raises(ConfigurationError):
            integrate_arc(sc.plant, sc.policy, _q0(tau=None), sc.solver,
                          cert=certn.cert)

    def test_dwell_floor_respected(self, certn):
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=5.0)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert,
                            params=certn.dwell)
        iets = np.diff(arc.jump_times())
        assert np.all(iets >= sc.policy.t_star - 2.0 * cfg.event_tol)

    def test_threshold_branch_after_dwell(self, certn):
        # a large sigma keeps the threshold unmet at the dwell boundary, so
        # jumps come from the threshold branch at tau > t_star
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.9,
                               t_star=0.05)
        cfg = SolverConfig(horizon=6.0)
        arc = integrate_arc(plant, policy, _q0(tau=0.0), cfg, cert=certn.cert)
        assert arc.jump_count >= 1
        reasons = {ev.reason for ev in arc.events}
        assert "threshold" in reasons
        iets = np.diff(arc.jump_times())
        if iets.size:
            assert np.all(iets >= 0.05 - 2e-9)

    def test_compare_leg_locates_in_few_evaluations(self, certn, monkeypatch):
        # past t_star the margin is the threshold margin, continuous in time,
        # so the locator takes secant steps, not bisection's ~24 per event
        evals = []

        def counted(margin_at, *args, **kwargs):
            return locate_event(lambda t: evals.append(t) or margin_at(t), *args, **kwargs)

        monkeypatch.setattr(simulate, "locate_event", counted)
        sc = demo_scenario("compare")
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver, cert=certn.cert)
        assert arc.jump_count == 53 and {ev.reason for ev in arc.events} == {"threshold"}
        assert len(evals) <= 10 * arc.jump_count


class TestMonitors:
    def test_zero_state(self, certn):
        q = HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(2), tau=0.0)
        assert monitor_v(q, certn.cert, 0.01) == 0.0
        assert monitor_r(q, certn.cert, certn.dwell) == 0.0

    def test_negative_comparison_value_drops_error_term(self, certn):
        # a stand-in comparison solution whose value is negative
        params = replace(certn.dwell,
                         dwell_ode=SimpleNamespace(evaluate=lambda tau: -0.75))
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.ones(2), tau=0.5)
        expected = (certn.cert.v_x(q.x)
                    + params.d_weight * certn.cert.v_y(q.y))
        assert monitor_r(q, certn.cert, params) == pytest.approx(expected)

    def test_zero_error_drops_term_regardless(self, certn):
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.zeros(2), tau=0.0)
        expected = (certn.cert.v_x(q.x)
                    + certn.dwell.d_weight * certn.cert.v_y(q.y))
        assert monitor_r(q, certn.cert, certn.dwell) == pytest.approx(expected)

    def test_r_undefined_without_clock(self, certn):
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.zeros(2))
        assert math.isnan(monitor_r(q, certn.cert, certn.dwell))

    def test_vx_evaluated_once_per_margin(self, certn, monkeypatch):
        # each margin evaluates Vx once; the stored V and R take theirs on
        # rows when the loop ends, not per point
        counts = {"v_x": 0, "margin": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        data_cls = type(certn.cert.data)
        monkeypatch.setattr(data_cls, "v_x", counted("v_x", data_cls.v_x))
        monkeypatch.setattr(simulate._PolicyEval, "margin",
                            counted("margin", simulate._PolicyEval.margin))
        for name, params in (("deadzone", None), ("dwell", certn.dwell)):
            sc = demo_scenario(name)
            cfg = replace(sc.solver, horizon=4.0)
            arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert, params=params)
            assert arc.jump_count >= 1 and len(arc) > 10
        assert counts["v_x"] == counts["margin"] > 0

    def test_stored_monitors_equal_public_functions(self, certn, nonlinear_plant):
        # The integrator stores rows with V and R NaN and fills both on rows
        # of the whole table when the loop ends; each must still equal the
        # public monitors on the row's state bitwise (NaN where R is
        # undefined): on the start, step, event, jump and run rows, on both
        # flow backends, and on arcs that the horizon, the Zeno guard or
        # divergence ends.
        legs = []
        for name, horizon, params, generic in [
            ("deadzone", 5.0, None, False),
            ("dwell", 4.0, None, False),
            ("dwell", 4.0, certn.dwell, False),
            ("compare_periodic", None, certn.dwell, False),
            ("deadzone", 5.0, None, True),
            ("dwell", 4.0, certn.dwell, True),
            ("zeno", 1.0, None, False),
        ]:
            sc = demo_scenario(name)
            plant = sc.plant.as_plant_spec() if generic else sc.plant
            cfg = replace(sc.solver, horizon=horizon or 5.0 * sc.policy.period)
            legs.append((plant, sc.policy, sc.q0, cfg, certn.cert, params))
        dwell = demo_scenario("dwell")
        unstable = replace(demo_plant(0.05), a11=2.0 * np.eye(2))
        legs.append((unstable, dwell.policy, dwell.q0, SolverConfig(horizon=100.0),
                     certn.cert, certn.dwell))
        # the nonlinear benchmark plant with its certificate, under both state policies
        cert = LyapunovCertificate.derive(QuadraticLyapunovData(
            p1=np.eye(1), p2=np.eye(1), alpha1_bar=1.0, alpha2=1.9, l_bar=1.5))
        for policy in (TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01),
                       TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.4, t_star=0.3)):
            q0 = HybridState(x=[1.5], y=[0.5], e=[0.0], tau=0.0 if policy.requires_clock else None)
            legs.append((nonlinear_plant, policy, q0, SolverConfig(horizon=6.0), cert, None))
        ends = set()
        for k, (plant, policy, q0, cfg, cert, params) in enumerate(legs):
            arc = integrate_arc(plant, policy, q0, cfg, cert=cert, params=params)
            assert arc.jump_count >= 1 and len(arc) > 10, k
            ends.add(arc.termination)
            states = [arc.state_at(i) for i in range(len(arc))]
            v = np.array([monitor_v(q, cert, plant.epsilon) for q in states])
            r = np.array([math.nan if params is None else monitor_r(q, cert, params)
                          for q in states])
            assert arc.v.tobytes() == v.tobytes(), k
            assert arc.r.tobytes() == r.tobytes(), k
            if params is not None and policy.requires_clock:
                assert np.all(np.isfinite(arc.r)), k
                # and R as python floats take it on the point, sums in order
                d, g1, ode = params.d_weight, cert.gamma1.coeff, params.dwell_ode
                floats = [cert.v_x(q.x) + d * cert.v_y(q.y)
                          + max(0.0, g1 * ode.evaluate(q.tau) * float(np.dot(q.e, q.e)))
                          for q in states]
                assert arc.r.tobytes() == np.array(floats).tobytes(), k
        assert ends == set(Termination)

    def test_row_monitor_r_equals_point_form(self, certn):
        # _monitor_r on rows, as the fill takes it, against its point form
        # and against the point's python float arithmetic with max(0.0, v),
        # bit for bit, on e with signed zeros, infinities, NaN, subnormal and
        # huge entries, and w(tau) of both signs and zero: the gain term
        # (g1 w) |e|^2 meets NaN, both infinities and both zeros
        cert, params = certn.cert, certn.dwell
        edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e154, 1e155, 1.7976931348623157e308, -3.5]
        e = np.array(list(itertools.product(edge, repeat=2)))
        # row 0: Vx + d Vy = -0.0 meets the gain -0.0 (e = 0, w < 0)
        w = np.resize([-0.75, 1.0 / params.dwell_ode.vartheta, 0.3, 0.0], len(e))
        v_x = np.resize([-0.0, 2.5, 1e308], len(e))
        v_y = np.resize([-0.0, 0.5, 1e308, 7.0, 0.0], len(e))
        # and ordinary rows, where a sum taken in another order rounds otherwise
        gen = np.random.default_rng(5)
        e = np.concatenate([e, gen.standard_normal((200, 2))])
        w, v_x, v_y = (np.concatenate([a, gen.uniform(0.0, 3.0, 200)]) for a in (w, v_x, v_y))
        with np.errstate(over="ignore", invalid="ignore"):
            e_sq, e_sq_point = simulate._dot_rows(e, e), [float(np.dot(a, a)) for a in e]
            rows = simulate._monitor_r(v_x, v_y, e_sq, w, cert, params)
            point, floats = [], []
            for a, b, c, d in zip(v_x.tolist(), v_y.tolist(), e_sq_point, w.tolist()):
                point.append(simulate._monitor_r(a, b, c, d, cert, params))
                floats.append(a + params.d_weight * b + max(0.0, cert.gamma1.coeff * d * c))
            gains = (cert.gamma1.coeff * w) * e_sq
        assert e_sq.tobytes() == np.array(e_sq_point).tobytes()
        assert rows.tobytes() == np.array(point).tobytes() == np.array(floats).tobytes()
        # the row form's max: np.fmax(0.0, -0.0) is -0.0 at some positions of its vector loop
        gains = np.array(gains.tolist() + [5e-324, -5e-324, 1.7976931348623157e308])
        assert (np.where(gains > 0.0, gains, 0.0).tobytes()
                == np.array([max(0.0, g) for g in gains.tolist()]).tobytes())
        gains = gains.tolist()
        signs = {(g, math.copysign(1.0, g)) for g in gains if g == 0.0 or math.isinf(g)}
        assert signs == {(0.0, 1.0), (0.0, -1.0), (math.inf, 1.0), (-math.inf, -1.0)}
        assert any(math.isnan(g) for g in gains)


class TestJumpExactness:
    @pytest.mark.parametrize("generic_jump", [True, False])
    def test_post_state_is_jump_map_of_pre_state(self, certn, generic_jump):
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=8.0)
        spec = sc.plant.as_plant_spec()
        plant = spec if generic_jump else sc.plant
        arc = integrate_arc(plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        assert arc.jump_count >= 1
        for ev in arc.events:
            expected = apply_jump(ev.pre_state, spec)
            assert np.array_equal(ev.post_state.x, expected.x)
            assert np.array_equal(ev.post_state.e, expected.e)
            assert ev.post_state.y == pytest.approx(expected.y, abs=1e-12)
            if generic_jump:
                assert np.array_equal(ev.post_state.y, expected.y)

    def test_records_are_the_jump_map_of_their_rows(self, certn):
        # dwell demo (closed form) and a nonlinear plant (generic map) under
        # both state policies: each record's pre-state is the row before its
        # jump row, its post-state the jump row and apply_jump(pre) bitwise,
        # and both are read-only
        sc = demo_scenario("dwell")
        nonlinear = PlantSpec(n_x=1, n_z=1, n_u=1,
                              f=lambda x, z, u: np.array([-x[0] ** 3 - x[0] + z[0]]),
                              g=lambda x, z, u: u - z, h=lambda x, u: np.array([u[0]]),
                              dh_dx=lambda x, u: np.zeros((1, 1)),
                              k=lambda xs: np.array([-0.5 * xs[0]]), epsilon=0.02)
        cert = _unit_cert(1, 1)
        legs = [(sc.plant, sc.policy, sc.q0, replace(sc.solver, horizon=20.0), certn.cert)]
        for policy in (TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01),
                       TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.4, t_star=0.3)):
            q0 = HybridState(x=[1.5], y=[0.5], e=[0.0],
                             tau=0.0 if policy.requires_clock else None)
            legs.append((nonlinear, policy, q0, SolverConfig(horizon=6.0), cert))
        for plant, policy, q0, cfg, cert in legs:
            arc = integrate_arc(plant, policy, q0, cfg, cert=cert)
            rows = np.flatnonzero(arc.is_jump)
            assert arc.jump_count == len(rows) >= 2
            for ev, row in zip(arc.events, rows.tolist()):
                pre, post, expected = ev.pre_state, ev.post_state, apply_jump(ev.pre_state, plant)
                assert pre.as_vector().tobytes() == arc.states[row - 1].tobytes()
                assert post.as_vector().tobytes() == arc.states[row].tobytes()
                for part in "xye":
                    assert getattr(post, part).tobytes() == getattr(expected, part).tobytes()
                    assert not getattr(pre, part).flags.writeable
                    assert not getattr(post, part).flags.writeable
                if policy.requires_clock:
                    assert (pre.tau, post.tau) == (arc.tau[row - 1], 0.0)
                else:
                    assert pre.tau is None and post.tau is None
                assert (ev.t, ev.j_pre, ev.j_post) == (arc.t[row], arc.j[row] - 1, arc.j[row])

    def test_z_continuity_through_integrator(self, certn):
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=8.0)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        spec = sc.plant.as_plant_spec()
        for ev in arc.events:
            pre, post = ev.pre_state, ev.post_state
            z_pre = pre.y + np.asarray(spec.h(pre.x, spec.k(pre.x + pre.e)))
            z_post = post.y + np.asarray(spec.h(post.x, spec.k(post.x)))
            assert np.allclose(z_pre, z_post, rtol=0, atol=1e-9)


class TestDivergence:
    def test_unstable_loop_terminates_with_divergence(self):
        plant = demo_plant(0.05)
        unstable = replace(plant, a11=np.array([[2.0, 0.0], [0.0, 2.0]]))
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=1e6)
        cfg = SolverConfig(horizon=100.0, rel_tol=1e-6, abs_tol=1e-9)
        arc = integrate_arc(unstable, policy, _q0(), cfg)
        assert arc.termination is Termination.DIVERGENCE
        assert np.linalg.norm(arc.final_state().as_vector()) > 1e11

    def test_diverged_point_is_stored(self):
        # the stride would skip it: the divergence itself makes it stored
        plant = demo_plant(0.05)
        unstable = replace(plant, a11=np.array([[2.0, 0.0], [0.0, 2.0]]))
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=1e6)
        cfg = SolverConfig(horizon=100.0, rel_tol=1e-6, abs_tol=1e-9,
                           store_stride=10_000)
        arc = integrate_arc(unstable, policy, _q0(), cfg)
        assert arc.termination is Termination.DIVERGENCE
        assert arc.is_jump[-1] == 0
        assert np.linalg.norm(arc.states[-1]) > DIVERGENCE_NORM
        assert arc.t[-1] < cfg.horizon

    @pytest.mark.parametrize("generic", [False, True])
    @pytest.mark.parametrize("start", ["x", "y", "e", "xe"])
    def test_start_too_large_to_square(self, certn, generic, start):
        # |q0|^2 overflows: no RuntimeWarning (an error here), and the arc
        # diverges at t = 0, or jumps there first when only e is that large
        # (with x as large too, the margin is inf - inf, not a jump)
        sc = demo_scenario("deadzone")
        plant = sc.plant.as_plant_spec() if generic else sc.plant
        big = {"x": dict(x=np.array([1e155, 0.0])), "y": dict(y=np.array([1e155])),
               "e": dict(e=np.array([1e155, 0.0])),
               "xe": dict(x=np.array([1e155, 0.0]), e=np.array([1e155, 0.0]))}[start]
        arc = integrate_arc(plant, sc.policy, replace(sc.q0, **big),
                            replace(sc.solver, horizon=1.0), cert=certn.cert)
        if start == "e":
            assert arc.jump_times()[0] == 0.0
            assert arc.trigger_margin[0] == math.inf and arc.termination is Termination.HORIZON
        else:
            assert arc.termination is Termination.DIVERGENCE
            assert arc.jump_count == 0 and arc.t[-1] == 0.0

    @pytest.mark.parametrize("generic", [False, True])
    def test_monitor_overflow_warns_where_its_row_was_written(self, certn, generic):
        # Vy = 25 P2 1e308 overflows at y = 5. V and R are filled when the
        # loop ends, each row under the numpy error state of its writer: the
        # linear plant's overflowing rows are the start's and its runs',
        # written silently, so the arc reaches the horizon with 5 V = inf;
        # the generic plant stores its first step end under the caller's
        # state, where the overflow warns
        sc = demo_scenario("deadzone")
        data = certn.cert.data
        cert = replace(certn.cert, data=replace(data, p2=data.p2 * 1e308))
        plant = sc.plant.as_plant_spec() if generic else sc.plant
        args = (plant, sc.policy, replace(sc.q0, y=np.array([5.0])),
                replace(sc.solver, horizon=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if generic:
                with pytest.raises(RuntimeWarning, match="overflow encountered in matmul"):
                    integrate_arc(*args, cert=cert)
                return
            arc = integrate_arc(*args, cert=cert)
        assert arc.termination is Termination.HORIZON and len(arc) == 72
        assert np.count_nonzero(np.isinf(arc.v)) == 5

    @pytest.mark.parametrize("generic", [False, True])
    def test_start_whose_jump_overflows(self, certn, generic):
        # e = (0, 1e308) puts the start in the jump set (margin inf), and the
        # jump takes y = -1.5e308 past the float range: the post-jump state
        # raises the DivergenceError that names y, with no RuntimeWarning
        sc = demo_scenario("deadzone")
        plant = sc.plant.as_plant_spec() if generic else sc.plant
        q0 = replace(sc.q0, y=np.array([-1.5e308]), e=np.array([0.0, 1e308]))
        with pytest.raises(DivergenceError) as raised:
            integrate_arc(plant, sc.policy, q0, sc.solver, cert=certn.cert)
        assert str(raised.value) == "non-finite entries in y: [-inf]"


def _random_plants(count, seed):
    """test_plant's recipe for random Hurwitz-A22 plants of up to 3+2+3 states."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n_x, n_z, n_u = (int(v) for v in gen.integers(1, (4, 3, 3)))
        a22 = gen.standard_normal((n_z, n_z))
        a22 -= (max(np.linalg.eigvals(a22).real) + 0.5) * np.eye(n_z)
        base = LinearPlantSpec(
            a11=gen.standard_normal((n_x, n_x)), a12=gen.standard_normal((n_x, n_z)),
            a21=gen.standard_normal((n_z, n_x)), a22=a22,
            b1=gen.standard_normal((n_x, n_u)), b2=gen.standard_normal((n_z, n_u)),
            k_gain=gen.standard_normal((n_u, n_x)), epsilon=1.0)
        yield base, gen.uniform(-3, 3, 2 * n_x + n_z), gen.uniform(0.05, 1.0)


def _coupled_dwell_scenario():
    """The dwell demo with its fast layer driven by x: A21 = [[0, 0.05]]."""
    sc = demo_scenario("dwell")
    return replace(sc, plant=replace(sc.plant, a21=np.array([[0.0, 0.05]])))


class TestPropagator:
    """A LinearPlantSpec flows by expm(F h), built from its decoupling."""

    def test_equals_mpmath_expm_on_coupled_plants(self):
        # 60-digit oracle; the bound is 128 u |T| |T^-1| (infinity norms)
        # per unit of the largest entry of expm(F h), where T is the
        # decoupling transform: the blocks' own Pade error is a few u
        import mpmath

        unit = np.finfo(float).eps / 2
        worst = 0.0
        with mpmath.workdps(60):
            for base, _, _ in _random_plants(8, 20260):
                assert np.all(base.a21 != 0.0)
                for eps in (1e-2, 1e-6, 1e-10):
                    plant = base.with_epsilon(eps)
                    prop = simulate._Propagator(plant, 0.5 * eps)
                    t_norm = np.abs(prop.right).sum(axis=1).max()
                    t_inv_norm = np.abs(prop.left).sum(axis=1).max()
                    flow = mpmath.matrix(plant.flow_matrix().tolist())
                    for h in (prop.cell, 0.834, 1e-8):
                        exact = mpmath.expm(flow * h)
                        want = np.array(exact.tolist(), dtype=float)
                        err = np.abs(prop.matrix(h) - want).max()
                        bound = unit * t_norm * t_inv_norm * max(1.0, np.abs(want).max())
                        worst = max(worst, err / bound)
        assert worst <= 128.0

    def test_post_jump_states_equal_the_generic_path_on_coupled_plants(self):
        # every jump is on the clock, so both paths jump at the same times;
        # the generic path's RK45 error is relative to the state's size
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.1)
        cfg = SolverConfig(horizon=1.05)
        for base, s, _ in _random_plants(20, 20260):
            plant = base.with_epsilon(1e-2)
            n_x, n_z = plant.n_x, plant.n_z
            q0 = HybridState(x=s[:n_x], y=s[n_x:n_x + n_z], e=s[n_x + n_z:])
            a = integrate_arc(plant, policy, q0, cfg)
            b = integrate_arc(plant.as_plant_spec(), policy, q0, cfg)
            assert a.jump_count == b.jump_count == 10
            for ev_a, ev_b in zip(a.events, b.events):
                post_a, post_b = ev_a.post_state.as_vector(), ev_b.post_state.as_vector()
                scale = max(1.0, np.abs(post_b).max())
                assert np.abs(post_a - post_b).max() <= 1e-7 * scale

    def test_coupled_dwell_variant_reaches_the_horizon(self, certn):
        # the reference's stability limit pins its steps near eps here, so
        # only the propagator can run it; criterion 6's checks hold
        sc = _coupled_dwell_scenario()
        params = certn.dwell
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver, cert=certn.cert,
                            params=params)
        assert arc.termination is Termination.HORIZON
        assert arc.t[-1] == pytest.approx(50.0 / params.psi)
        r = arc.r
        assert np.all(np.isfinite(r)) and r[0] > 0.0
        assert np.all(r <= 1.05 * np.exp(-params.psi * arc.hybrid_total_time) * r[0])
        iets = np.diff(arc.jump_times())
        assert iets.size > 100
        assert iets.min() >= params.t_star - 2.0 * sc.solver.event_tol

    def test_cell_matrices_built_once_per_arc(self, certn, monkeypatch):
        # the cell, the half cell, the clock remainder and the horizon
        # remainder: every dwell jump is on the clock, so nothing is bisected
        built = []
        matrix = simulate._Propagator.matrix
        monkeypatch.setattr(simulate._Propagator, "matrix",
                            lambda self, h: built.append(h) or matrix(self, h))
        sc = _coupled_dwell_scenario()
        cfg = replace(sc.solver, horizon=20.0)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        assert arc.jump_count >= 20
        assert len(built) == len(set(built)) == 4

    def test_unbounded_cell_is_a_configuration_error(self):
        # a zero slow block leaves max_step_factor * epsilon (here past the
        # float range) as the only bound on the cell
        plant = LinearPlantSpec(a11=[[0.0]], a12=[[0.0]], a21=[[0.0]], a22=[[-1.0]],
                                b1=[[0.0]], b2=[[1.0]], k_gain=[[0.0]], epsilon=2.0)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.5)
        q0 = HybridState(x=[1.0], y=[0.0], e=[0.0])
        with pytest.raises(ConfigurationError, match="max_step_factor"):
            integrate_arc(plant, policy, q0, SolverConfig(horizon=1.75, max_step_factor=1e308))
        arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=1.75, max_step_factor=1e300))
        assert arc.termination is Termination.HORIZON and arc.jump_count == 3

    def test_decoupling_that_does_not_converge_is_a_configuration_error(self, certn):
        plant = demo_plant(1.0)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.5)
        cfg = SolverConfig(horizon=2.0)
        with pytest.raises(ConfigurationError, match="epsilon=1.0"):
            plant.decoupling
        with pytest.raises(ConfigurationError, match="epsilon=1.0"):
            integrate_arc(plant, policy, _q0(), cfg)
        arc = integrate_arc(plant.as_plant_spec(), policy, _q0(), cfg)
        assert arc.termination is Termination.HORIZON and arc.jump_count == 3

    def test_decoupling_stops_on_a_tolerance(self):
        # at eps 1e-2 the plain float iteration of L on this plant cycles
        # between neighbouring floats and never repeats one; the decoupling
        # still converges, solves its equations, and is cached read-only
        base, _, _ = list(_random_plants(11, 20260))[10]
        plant = base.with_epsilon(1e-2)
        n_x, n_z = plant.n_x, plant.n_z
        flow = plant.flow_matrix()
        slow, fast = np.r_[0:n_x, n_x + n_z:2 * n_x + n_z], np.r_[n_x:n_x + n_z]
        a, b = flow[np.ix_(slow, slow)], flow[np.ix_(slow, fast)]
        c, d = flow[np.ix_(fast, slow)], flow[np.ix_(fast, fast)]
        d_inv, l_mat, seen = np.linalg.inv(d), np.zeros(c.shape), set()
        while l_mat.tobytes() not in seen:
            seen.add(l_mat.tobytes())
            new = d_inv @ (c + l_mat @ a - l_mat @ b @ l_mat)
            assert not np.array_equal(new, l_mat)
            l_mat = new
        l_mat, h_mat, a_s, a_f = plant.decoupling
        assert plant.decoupling[0] is l_mat
        assert np.allclose(d @ l_mat, c + l_mat @ a - l_mat @ b @ l_mat, rtol=0, atol=1e-12)
        assert np.allclose(h_mat @ a_f, a_s @ h_mat + b, rtol=0, atol=1e-12)
        for arr in (l_mat, h_mat, a_s, a_f):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def _arc_bytes(arc):
    """Everything an arc holds, as bytes: its table (t, j, states, tau, V, R,
    margin, jump flags), its events and its termination."""
    events = [(ev.t, ev.j_pre, ev.reason, ev.pre_state.as_vector().tobytes(), ev.pre_state.tau,
               ev.post_state.as_vector().tobytes()) for ev in arc.events]
    return arc._table[: len(arc)].tobytes(), events, arc.termination


def _unit_cert(n_x, n_z):
    data = QuadraticLyapunovData(p1=np.eye(n_x), p2=np.eye(n_z), alpha1_bar=1.0,
                                 alpha2=1.0, l_bar=1.0)
    return LyapunovCertificate.derive(data)


_RUN_POLICIES = (
    TriggerPolicy(kind=PolicyKind.NAIVE, sigma=0.3),
    TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02),
    TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.3, t_star=0.11),
    TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.13),
)


class TestRuns:
    """A linear arc crosses plain cells in runs of up to _RUN_CELLS, taken on
    rows; with no run (0 cells) the arc is the scalar loop's alone."""

    @staticmethod
    def _arcs(monkeypatch, legs, pre_cells=None):
        """Each leg's arc bytes under run lengths 0, 1 and the default, and
        the writes of more than one row that the default runs made; with
        pre_cells, each with _PRE_CELLS, the floor of a run before the clock
        boundary, set to it."""
        bulk = []
        write = HybridArc._append_rows

        def counted(arc, rows):
            if len(rows) > 1:
                bulk.append(rows.copy())
            write(arc, rows)

        out = {}
        for cells in (0, 1, simulate._RUN_CELLS):
            with monkeypatch.context() as m:
                m.setattr(simulate, "_RUN_CELLS", cells)
                if pre_cells is not None:
                    m.setattr(simulate, "_PRE_CELLS", pre_cells)
                m.setattr(HybridArc, "_append_rows", counted)
                bulk.clear()
                out[cells] = [_arc_bytes(leg()) for leg in legs]
        return out, bulk

    def test_only_a_linear_plant_runs(self, certn, monkeypatch):
        calls = []
        run = simulate._ArcLoop.run

        def counted(loop, room):
            calls.append(room)
            return run(loop, room)

        monkeypatch.setattr(simulate._ArcLoop, "run", counted)
        sc = demo_scenario("deadzone")
        integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver, cert=certn.cert)
        assert calls
        calls.clear()
        integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0, sc.solver, cert=certn.cert)
        assert not calls

    def _assert_runs_are_the_scalar_loop(self, monkeypatch, legs, pre_cells=None):
        arcs, bulk = self._arcs(monkeypatch, legs, pre_cells)
        assert bulk  # the default runs crossed cells
        self._assert_same(arcs)
        return bulk

    @staticmethod
    def _assert_same(arcs):
        for cells in (1, simulate._RUN_CELLS):
            for k, (run, scalar) in enumerate(zip(arcs[cells], arcs[0])):
                assert run == scalar, f"leg {k} differs at run length {cells}"

    @pytest.mark.parametrize("policy", _RUN_POLICIES, ids=lambda p: p.kind.value)
    def test_generated_plants(self, monkeypatch, policy):
        # test_plant's generated plants, with a horizon that is no multiple
        # of the cell; some of them diverge, which a run must stop at too
        legs = []
        for k, (base, s, frac) in enumerate(_random_plants(4, 20261)):
            plant = base.with_epsilon(1e-2)
            n_x, n_z = plant.n_x, plant.n_z
            q0 = HybridState(x=s[:n_x], y=s[n_x:n_x + n_z], e=0.1 * s[n_x + n_z:],
                             tau=0.0 if policy.requires_clock else None)
            cert = _unit_cert(n_x, n_z)
            for fast_floor in (0.0, 1e-12):
                for stride in (1, 3):
                    cfg = SolverConfig(horizon=0.5 + frac, fast_floor=fast_floor,
                                       store_stride=stride)
                    legs.append(lambda plant=plant, q0=q0, cfg=cfg, cert=cert:
                                integrate_arc(plant, policy, q0, cfg, cert=cert))
        self._assert_runs_are_the_scalar_loop(monkeypatch, legs)

    def test_demo_scenarios(self, monkeypatch, certn):
        # the dwell demo snaps its fast layer (fast_floor 1e-12) and stores R
        legs = []
        for name, params, horizon in (("deadzone", None, 7.3), ("zeno", None, None),
                                      ("dwell", certn.dwell, 11.7),
                                      ("compare_periodic", certn.dwell, 6.1)):
            sc = demo_scenario(name)
            for fast_floor in (0.0, 1e-12):
                for stride in (1, 3):
                    cfg = replace(sc.solver, horizon=horizon or sc.solver.horizon,
                                  fast_floor=fast_floor, store_stride=stride)
                    legs.append(lambda sc=sc, cfg=cfg, params=params:
                                integrate_arc(sc.plant, sc.policy, sc.q0, cfg,
                                              cert=certn.cert, params=params))
        self._assert_runs_are_the_scalar_loop(monkeypatch, legs)

    def test_a_dwell_interval_runs(self, certn, monkeypatch):
        # the dwell demo jumps every 9.34 cells, on the clock boundary: from
        # each jump, a run crosses the 9 cells before it (the clamped cell
        # onto it is the loop's), and the last one the 5 before the horizon
        calls = []
        run = simulate._ArcLoop.run

        def counted(loop, room):
            cells = room / loop.step.cell
            calls.append((loop.tau, cells, run(loop, room)))
            return calls[-1][-1]

        monkeypatch.setattr(simulate._ArcLoop, "run", counted)
        sc = demo_scenario("dwell")
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, replace(sc.solver, horizon=3.0),
                            cert=certn.cert, params=certn.dwell)
        assert arc.jump_count == 3
        assert [(tau, n) for tau, cells, n in calls if cells < 10] == [(0.0, 9)] * 3 + [(0.0, 5)]

    @pytest.mark.parametrize("pre_cells", [None, 0], ids=["default", "no-floor"])
    def test_runs_before_the_boundary_at_the_demo_settings(self, monkeypatch, certn, pre_cells):
        # the dwell demo at its own settings (fast_floor 1e-12, stride 8),
        # from a jump (tau = 0), from mid-interval and from within two cells
        # and one cell of the boundary, and at stride 3, where a run keeps
        # several rows; the periodic compare leg, whose rows hold no clock,
        # at stride 1 (a run keeps every row) and 8. With no floor, a run is
        # tried wherever time is left before the boundary
        legs = []
        sc = demo_scenario("dwell")
        t_star, cell = sc.policy.t_star, 1 / 11.2
        assert simulate._Propagator(sc.plant, sc.solver.max_step_factor * sc.plant.epsilon
                                    ).cell == cell
        for tau0, stride in ((0.0, 8), (0.4 * t_star, 8), (t_star - 1.5 * cell, 8),
                             (t_star - 0.5 * cell, 8), (0.0, 3)):
            legs.append(lambda q0=replace(sc.q0, tau=tau0), stride=stride: integrate_arc(
                sc.plant, sc.policy, q0, replace(sc.solver, horizon=4.1, store_stride=stride),
                cert=certn.cert, params=certn.dwell))
        periodic = demo_scenario("compare_periodic")
        for stride in (1, 8):
            legs.append(lambda stride=stride: integrate_arc(
                periodic.plant, periodic.policy, periodic.q0,
                replace(periodic.solver, horizon=1.3, store_stride=stride),
                cert=certn.cert, params=certn.dwell))
        bulk = self._assert_runs_are_the_scalar_loop(monkeypatch, legs, pre_cells)
        tau_col = 2 + 5
        assert any((rows[:, tau_col] < t_star).all() for rows in bulk)  # a dwell run's rows
        assert any(np.isnan(rows[:, tau_col]).all() for rows in bulk)  # a periodic run's

    def test_a_cell_within_the_floor_of_the_boundary_is_clamped(self, monkeypatch):
        # a periodic leg from tau = t = 0 with period == horizon, so that the
        # boundary and the horizon are equally far from every cell start; the
        # period lies a few ulps past the accumulated end of cell k, by more
        # than the step floor at that end (so the horizon does not stop the
        # cell) but within the floor at its start, as clamp's test computes
        # it: the loop clamps that cell onto the boundary, and so must a run
        cell = 0.005
        plant = LinearPlantSpec(a11=[[0.0, 1.0], [-1.0, 0.0]], a12=np.zeros((2, 1)),
                                a21=np.zeros((1, 2)), a22=[[-1.0]], b1=np.zeros((2, 1)),
                                b2=np.zeros((1, 1)), k_gain=np.zeros((1, 2)),
                                epsilon=2.0 * cell)
        assert simulate._Propagator(plant, cell).cell == cell
        t = np.add.accumulate(np.full(300, cell))  # t[k] ends cell k + 1, as a run adds
        floor = simulate._STEP_ULPS * np.maximum(1.0, t)
        period = next(p for k in range(200, 300) for d in range(1, 64)
                      if (p := t[k] + d * np.spacing(t[k])) - t[k] > floor[k]
                      and t[k] >= p - floor[k - 1])
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=float(period))
        q0 = HybridState(x=[1.0, 0.0], y=[0.0], e=[0.0, 0.0])
        for stride in (1, 8):
            def leg(stride=stride):
                return integrate_arc(plant, policy, q0,
                                     SolverConfig(horizon=float(period), store_stride=stride),
                                     cert=_unit_cert(2, 1))

            self._assert_runs_are_the_scalar_loop(monkeypatch, [leg])
            arc = leg()
            assert (arc.jump_count, arc.termination) == (1, Termination.HORIZON)
            assert arc.jump_times() == [period]

    def test_event_seen_only_at_a_midpoint(self, monkeypatch):
        # a rotating slow state with no feedback: |e| = 2 sin(w t / 2) peaks
        # mid-cell, and rho puts the margin >= 0 only on the middle half of
        # that cell, so only its midpoint probe sees the event
        cert = _unit_cert(2, 1)
        cell = 0.005
        t_peak = 200.5 * cell
        w = math.pi / t_peak
        plant = LinearPlantSpec(a11=[[0.0, w], [-w, 0.0]], a12=np.zeros((2, 1)),
                                a21=np.zeros((1, 2)), a22=[[-1.0]], b1=np.zeros((2, 1)),
                                b2=np.zeros((1, 1)), k_gain=np.zeros((1, 2)), epsilon=2.0 * cell)
        assert simulate._Propagator(plant, cell).cell == cell
        rho = cert.gamma1(2.0 * math.sin(0.5 * w * (t_peak - 0.25 * cell)))
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=rho)
        q0 = HybridState(x=[1.0, 0.0], y=[0.0], e=[0.0, 0.0])

        def leg():
            return integrate_arc(plant, policy, q0, SolverConfig(horizon=1.5), cert=cert)

        self._assert_runs_are_the_scalar_loop(monkeypatch, [leg])
        assert leg().jump_times() == pytest.approx([t_peak - 0.25 * cell], abs=1e-9)

    @staticmethod
    def _rotating_dwell_leg(t_star, tau0, horizon):
        """A unit slow state rotating with no feedback under the dwell
        policy on cells of 0.005: after each jump |e| = 2 sin(w tau / 2)
        peaks mid-cell at tau = 200.5 cells, and sigma puts the threshold
        margin >= 0 only on the middle half of that cell, so only its
        midpoint probe sees the event; everywhere else the margin is
        negative, past t_star too. (leg, cell, clock column of a row.)"""
        cell = 0.005
        t_peak = 200.5 * cell
        w = math.pi / t_peak
        base = _unit_cert(2, 1)
        gain = GammaForm(0.1, 2.0)
        cert = LyapunovCertificate(base.data, replace(base.constants, gamma1=gain, gamma2=gain))
        plant = LinearPlantSpec(a11=[[0.0, w], [-w, 0.0]], a12=np.zeros((2, 1)),
                                a21=np.zeros((1, 2)), a22=[[-1.0]], b1=np.zeros((2, 1)),
                                b2=np.zeros((1, 1)), k_gain=np.zeros((1, 2)), epsilon=2.0 * cell)
        assert simulate._Propagator(plant, cell).cell == cell
        sigma = gain(2.0 * math.sin(0.5 * w * (t_peak - 0.25 * cell))) / cert.alpha1
        policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=sigma, t_star=t_star)
        q0 = HybridState(x=[1.0, 0.0], y=[0.0], e=[0.0, 0.0], tau=tau0)

        def leg():
            return integrate_arc(plant, policy, q0, SolverConfig(horizon=horizon), cert=cert)

        return leg, cell, 2 + 5  # t, j, then (x, y, e), then tau

    def test_runs_bracket_all_cells_past_the_clock_boundary_and_none_before(self, monkeypatch):
        # each interval: runs before t_star (unbracketed, the last one ended
        # by the clamped cell onto the boundary), a run that starts exactly
        # on the boundary, runs that start past it; the runs past it bracket
        # every cell, so they leave the midpoint-only event to the loop
        t_star = 100 * 0.005
        leg, cell, tau_col = self._rotating_dwell_leg(t_star, 0.0, 2.6)
        bulk = self._assert_runs_are_the_scalar_loop(monkeypatch, [leg])
        taus = [rows[:, tau_col] for rows in bulk]
        assert any((tau < t_star).all() for tau in taus)
        assert any(tau[0] == t_star + cell for tau in taus)
        assert any(tau[0] > t_star + cell for tau in taus)
        assert leg().jump_times() == pytest.approx([200.25 * cell, 2 * 200.25 * cell], abs=1e-8)

    def test_run_from_a_clock_that_a_cell_does_not_move(self, monkeypatch):
        # at tau = t_star = 2^47 a cell is below half an ulp of the clock,
        # so the clock stands on the boundary and no cell end's clock is
        # past it; a clock on the boundary brackets each cell all the same,
        # in the loop and in the runs, so the midpoint-only event jumps as
        # it does one ulp above t_star
        t_star = 2.0**47
        leg, cell, tau_col = self._rotating_dwell_leg(t_star, t_star, 1.3)
        bulk = self._assert_runs_are_the_scalar_loop(monkeypatch, [leg])
        assert any((rows[:, tau_col] == t_star).all() for rows in bulk)
        above, _, _ = self._rotating_dwell_leg(t_star, math.nextafter(t_star, math.inf), 1.3)
        assert leg().jump_times() == pytest.approx(above().jump_times(), abs=1e-9)
        assert leg().jump_times() == pytest.approx([200.25 * cell], abs=1e-8)

    def test_gain_that_overflows_past_an_event_is_left_to_the_loop(self, monkeypatch):
        # gamma1 = s**300 overflows from |e| ~ 10.6 on; an unstable slow
        # state makes |e| reach it a few cells after the first event at
        # |e| ~ 1, so a run's rows raise where the loop, which jumps first,
        # never goes: the run hands those cells to the loop
        base = _unit_cert(1, 1)
        steep = GammaForm(1.0, 300.0)
        cert = LyapunovCertificate(base.data, replace(base.constants, gamma1=steep,
                                                      gamma2=steep, l_link=10.0))
        plant = LinearPlantSpec(a11=[[1.0]], a12=[[0.0]], a21=[[0.0]], a22=[[-1.0]],
                                b1=[[0.0]], b2=[[0.0]], k_gain=[[0.0]], epsilon=1.0)
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=1e-100)
        q0 = HybridState(x=[1.0], y=[0.0], e=[0.0])

        def leg():
            return integrate_arc(plant, policy, q0, SolverConfig(horizon=3.0), cert=cert)

        arcs, _ = self._arcs(monkeypatch, [leg])
        self._assert_same(arcs)
        arc = leg()
        assert arc.termination is Termination.HORIZON and arc.jump_count > 10

    def test_run_stops_at_divergence_and_horizon(self, monkeypatch):
        # a frozen-input loop (period past the horizon) of rate a on cells of
        # 2^-7: unstable, it diverges inside what would be one run; stable,
        # its horizon falls inside a cell, or on a cell end exactly
        def leg(a, horizon):
            plant = LinearPlantSpec(a11=[[a]], a12=[[0.0]], a21=[[0.0]], a22=[[-1.0]],
                                    b1=[[0.0]], b2=[[0.0]], k_gain=[[0.0]], epsilon=2.0**-6)
            policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=100.0)
            q0 = HybridState(x=[1.0], y=[0.0], e=[0.0])
            return lambda: integrate_arc(plant, policy, q0, SolverConfig(horizon=horizon))

        legs = [leg(3.0, 12.0), leg(-1.0, 0.1234), leg(-1.0, 100 * 2.0**-7)]
        self._assert_runs_are_the_scalar_loop(monkeypatch, legs)
        assert [f().termination for f in legs] == [Termination.DIVERGENCE, Termination.HORIZON,
                                                   Termination.HORIZON]
        assert len(legs[2]()) == 101

    def test_held_point_margin_evaluated_once_at_stride_one(self, monkeypatch, certn):
        # at stride 1 a run before the boundary keeps its last cell's row,
        # whose margin is the held point's: it is evaluated once, as the
        # loop evaluates it cell by cell
        sc = demo_scenario("dwell")
        margin, counts = simulate._PolicyEval.margin, {}
        for cells in (0, simulate._RUN_CELLS):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(simulate, "_RUN_CELLS", cells)
                m.setattr(simulate._PolicyEval, "margin",
                          lambda ev, s, tau: calls.append(tau) or margin(ev, s, tau))
                arc = integrate_arc(sc.plant, sc.policy, sc.q0,
                                    replace(sc.solver, horizon=3.0, store_stride=1),
                                    cert=certn.cert, params=certn.dwell)
            counts[cells] = len(calls)
        assert arc.jump_count == 3
        assert counts[simulate._RUN_CELLS] == counts[0]

    @staticmethod
    def _decaying_fast_plant(cell):
        """A unit slow state rotating with no feedback and a fast state that
        decays by exp(-1/2) per cell of the given length."""
        plant = LinearPlantSpec(a11=[[0.0, 1.0], [-1.0, 0.0]], a12=np.zeros((2, 1)),
                                a21=np.zeros((1, 2)), a22=[[-1.0]], b1=np.zeros((2, 1)),
                                b2=np.zeros((1, 1)), k_gain=np.zeros((1, 2)),
                                epsilon=2.0 * cell)
        assert simulate._Propagator(plant, cell).cell == cell
        return plant

    @pytest.mark.parametrize("kind", [PolicyKind.TIME_REGULARIZED, PolicyKind.PERIODIC],
                             ids=lambda k: k.value)
    def test_a_run_before_the_boundary_stops_at_a_snapped_cell(self, monkeypatch, kind):
        # the fast state falls below fast_floor = 1e-3 in the 14th cell, well
        # before the boundary at 40 cells: the run from t = 0 scans its
        # cells' fast parts and hands the snapped cell to the loop
        cell = 0.005
        plant = self._decaying_fast_plant(cell)
        clocked = kind is PolicyKind.TIME_REGULARIZED
        policy = (TriggerPolicy(kind=kind, sigma=0.3, t_star=40 * cell) if clocked
                  else TriggerPolicy(kind=kind, period=40 * cell))
        q0 = HybridState(x=[1.0, 0.0], y=[1.0], e=[0.0, 0.0], tau=0.0 if clocked else None)
        legs = [lambda stride=stride: integrate_arc(
            plant, policy, q0, SolverConfig(horizon=0.9, fast_floor=1e-3, store_stride=stride),
            cert=_unit_cert(2, 1)) for stride in (1, 3, 8)]
        self._assert_runs_are_the_scalar_loop(monkeypatch, legs)
        scans, first_snapped = [], simulate._first_snapped

        def counted(values, fast_floor):
            scans.append((len(values), first_snapped(values, fast_floor)))
            return scans[-1][1]

        monkeypatch.setattr(simulate, "_first_snapped", counted)
        arc = legs[0]()
        # the run's scan: of 41 cells tried, the 40th reaches the boundary up to
        # rounding and is clamped; the 14th is the first that snaps
        assert scans[0] == (39, 13)
        assert arc.y[14, 0] == 0.0 and arc.y[13, 0] > 1e-3
        assert arc.t[14] == pytest.approx(14 * cell) and arc.jump_count > 0

    @pytest.mark.parametrize("kind", [PolicyKind.TIME_REGULARIZED, PolicyKind.PERIODIC],
                             ids=lambda k: k.value)
    def test_a_boundary_that_ties_the_horizon_within_the_floor(self, monkeypatch, kind):
        # the boundary lies a few ulps past the accumulated end of cell k,
        # within the step floor at its start (clamp's within-floor clause),
        # with the horizon on it, an ulp before it or an ulp past it: the
        # clause ceiling - tau > horizon - t decides that cell, on both sides
        cell = 0.005
        plant = self._decaying_fast_plant(cell)
        t = np.add.accumulate(np.full(300, cell))  # t[k] ends cell k + 1, as a run adds
        floor = simulate._STEP_ULPS * np.maximum(1.0, t)
        boundary = float(next(p for k in range(200, 300) for d in range(1, 64)
                              if (p := t[k] + d * np.spacing(t[k])) - t[k] > floor[k]
                              and t[k] >= p - floor[k - 1]))
        clocked = kind is PolicyKind.TIME_REGULARIZED
        policy = (TriggerPolicy(kind=kind, sigma=0.3, t_star=boundary) if clocked
                  else TriggerPolicy(kind=kind, period=boundary))
        q0 = HybridState(x=[1.0, 0.0], y=[0.0], e=[0.0, 0.0], tau=0.0 if clocked else None)
        legs = [lambda horizon=horizon, stride=stride: integrate_arc(
            plant, policy, q0, SolverConfig(horizon=horizon, store_stride=stride),
            cert=_unit_cert(2, 1))
            for horizon in (boundary, math.nextafter(boundary, 0.0),
                            math.nextafter(boundary, math.inf))
            for stride in (1, 8)]
        self._assert_runs_are_the_scalar_loop(monkeypatch, legs)
        ends = [(leg().jump_count, leg().termination) for leg in legs[::2]]
        assert ends == [(1, Termination.HORIZON), (0, Termination.HORIZON),
                        (1, Termination.HORIZON)]


def _mask_prefix(t0, tau0, cell, cells, horizon, ceiling):
    """How many leading cells pass the clock and horizon tests taken as
    masks on whole rows of accumulated times, as a run took them before
    they were taken on floats; the ceiling applies while the clock starts
    before it."""
    grid = np.full(cells + 1, cell)
    grid[0] = t0
    t_all = np.add.accumulate(grid)
    grid[0] = tau0
    tau_all = np.add.accumulate(grid)
    floor = simulate._STEP_ULPS * np.maximum(1.0, t_all)
    left = horizon - t_all
    plain = (left[:-1] >= cell) & (floor[:-1] < cell) & (left[1:] > floor[1:])
    if ceiling is not None and tau0 < ceiling:
        plain &= (tau_all[1:] < ceiling) & ((tau_all[1:] < ceiling - floor[:-1])
                                            | (ceiling - tau_all[:-1] > left[:-1]))
    return simulate._prefix(plain)


def _scalar_prefix(t0, tau0, cell, cells, horizon, ceiling):
    """_clock_prefix on the grid that a run accumulates from (t0, tau0)."""
    t_all = list(itertools.accumulate(itertools.repeat(cell, cells), initial=t0))
    tau_all = list(itertools.accumulate(itertools.repeat(cell, cells), initial=tau0))
    before = ceiling is not None and tau0 < ceiling
    return simulate._clock_prefix(t_all, tau_all, cell, horizon, ceiling if before else None)


class TestClockPrefix:
    """A run's clock and horizon tests on floats, walked back from its last
    cell, against the same tests as masks on rows."""

    CELL = 0.005

    def _prefix(self, t0, tau0, horizon, ceiling, cells=8):
        scalar = _scalar_prefix(t0, tau0, self.CELL, cells, horizon, ceiling)
        assert scalar == _mask_prefix(t0, tau0, self.CELL, cells, horizon, ceiling)
        return scalar

    def test_accumulated_clocks_equal_the_row_sums(self):
        for t0 in (0.0, 0.1, 1234.5678, 2.0**47):
            rows = np.add.accumulate(np.r_[t0, np.full(64, self.CELL)])
            floats = list(itertools.accumulate(itertools.repeat(self.CELL, 64), initial=t0))
            assert np.array(floats).tobytes() == rows.tobytes()

    def test_boundary_within_a_floor_of_a_cell_end(self):
        # from t = tau = 0, the boundary a few ulps past the end of cell 4,
        # within the floor (the cell is clamped onto it) or just beyond it
        cell, k = self.CELL, 4
        end = _grid_end(0.0, cell, k + 1)
        floor = simulate._step_floor(_grid_end(0.0, cell, k))
        within = math.nextafter(end, math.inf)
        beyond = end + 2.0 * floor
        assert within - end < floor < beyond - end
        assert self._prefix(0.0, 0.0, 10.0, within) == k
        assert self._prefix(0.0, 0.0, 10.0, beyond) == k + 1
        assert self._prefix(0.0, 0.0, 10.0, end) == k  # the cell reaches it

    def test_boundary_within_a_floor_on_both_sides_of_the_horizon_clause(self):
        # at t ~ 1e8 (an ulp of t is 1.5e-8 there) a cell's accumulated
        # length can fall short of the cell by more than the floor's growth,
        # so that the clause ceiling - tau > horizon - t can pass a cell that
        # ends within its start's floor of
        # the boundary and more than a floor before the horizon: the
        # horizon just short of the boundary's distance passes it, one on it
        # or past it does not
        cell, k = self.CELL, 3
        for t0 in (1e8 + 0.0123 * i for i in range(400)):
            t_s, t_e = _grid_end(t0, cell, k), _grid_end(t0, cell, k + 1)
            tau_s, tau_e = _grid_end(0.0, cell, k), _grid_end(0.0, cell, k + 1)
            floor_s, floor_e = simulate._step_floor(t_s), simulate._step_floor(t_e)
            ceiling = _nearest_below(lambda c: tau_e >= c - floor_s, tau_e + floor_s)
            horizon = _nearest_below(lambda h: ceiling - tau_s > h - t_s, t_e + 2 * floor_e)
            if ceiling > tau_e and horizon - t_e > floor_e:
                break
        else:
            raise AssertionError("no grid where the horizon clause passes a cell")
        assert tau_e < ceiling and not tau_e < ceiling - floor_s  # within the floor
        assert self._prefix(t0, 0.0, horizon, ceiling) == k + 1
        assert not ceiling - tau_s > math.nextafter(horizon, math.inf) - t_s
        assert self._prefix(t0, 0.0, math.nextafter(horizon, math.inf), ceiling) == k
        # the cell after it reaches the boundary, whatever the horizon
        assert _grid_end(0.0, cell, k + 2) >= ceiling

    def test_horizon_within_a_floor_of_a_cell_end(self):
        cell, k = self.CELL, 5
        end = _grid_end(0.0, cell, k)
        floor = simulate._step_floor(end)
        for ceiling in (None, 10.0):
            # on the end or within its floor: the cell before it lands on the horizon
            assert self._prefix(0.0, 0.0, end, ceiling) == k - 1
            assert self._prefix(0.0, 0.0, end + 0.5 * floor, ceiling) == k - 1
            # beyond the floor: that cell is plain, the next one ends past the horizon
            assert self._prefix(0.0, 0.0, end + 2.0 * floor, ceiling) == k

    def test_start_on_the_boundary(self):
        # a clock on the boundary has no clamped cell; an ulp before it, the
        # first cell is clamped
        assert self._prefix(0.0, 0.3, 10.0, 0.3) == 8
        assert self._prefix(0.0, math.nextafter(0.3, 0.0), 10.0, 0.3) == 0
        # at 2^47 a cell is below half an ulp of the clock: an ulp before
        # the boundary, no cell moves the clock onto it
        assert self._prefix(0.0, 2.0**47, 10.0, 2.0**47) == 8
        assert self._prefix(0.0, math.nextafter(2.0**47, 0.0), 10.0, 2.0**47) == 8

    def test_floor_that_reaches_the_cell(self):
        # the floor, 16 ulps of t, reaches the cell at t = cell * 2^48
        cell = self.CELL
        t0 = cell * 2.0**48 - 3.5 * cell
        k = next(k for k in range(8) if simulate._step_floor(_grid_end(t0, cell, k)) >= cell)
        assert 0 < k < 8
        assert self._prefix(t0, 0.0, 2 * t0, None) == k
        assert self._prefix(t0, 0.0, 2 * t0, 10.0) == k


def _grid_end(t0, cell, k):
    """t0 with k cells accumulated, as a run adds them."""
    return list(itertools.accumulate(itertools.repeat(cell, k), initial=t0))[-1]


def _nearest_below(holds, start):
    """The largest float at or below start at which holds(v) holds, walking
    down by ulps from a start a few ulps above the crossing."""
    v = start
    for _ in range(64):
        v = math.nextafter(v, math.inf)
    while not holds(v):
        v = math.nextafter(v, -math.inf)
    return v


class TestStepHelpers:
    def test_error_norm_and_step_floor_equal_the_old_expressions_bitwise(self):
        gen = np.random.default_rng(7)
        for _ in range(2000):
            n = int(gen.integers(1, 12))
            err, y0, y1 = (gen.standard_normal(n) * 10.0 ** gen.uniform(-12, 3, n)
                           for _ in range(3))
            rtol, atol = 10.0 ** gen.uniform(-12, -3), 10.0 ** gen.uniform(-14, -6)
            scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
            old = float(np.sqrt(np.mean((err / scale) ** 2)))
            assert simulate._error_norm(err, y0, y1, rtol, atol) == old
            t = float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-5, 8))
            assert simulate._step_floor(t) == 16.0 * np.finfo(float).eps * max(1.0, abs(t))


def _point_product_pairs(gen, n, k):
    """One (a, b) pair of each point-product shape the hot paths take, of
    sizes n and k, each entry of random sign and magnitude 1e-8 to 1e8:
    a vector by C-ordered rows (a stage row, v_x's x p1), the transposed
    stage table by a matrix, a matrix by a vector, a vector by a vector,
    a matrix by a matrix and a column slice by a matrix (_Propagator.matrix)."""
    def draw(*shape):
        return gen.choice([-1.0, 1.0], shape) * 10.0 ** gen.uniform(-8, 8, shape)

    stages = draw(k + 1, n)
    left = draw(n, 2 * n)
    return [(draw(k), stages[:k]), (draw(k, n).T, draw(k, 4)), (draw(n, k), draw(k)),
            (draw(n), draw(n)), (draw(n, k), draw(k, n)), (left[:, :n], draw(n, n))]


class TestPointProducts:
    def test_dot_equals_matmul_bitwise_on_the_hot_path_shapes(self):
        # the integrator takes its point products by ndarray.dot, which calls
        # the BLAS routine that @ calls, without the matmul ufunc's dispatch
        gen = np.random.default_rng(11)
        for n, k in itertools.product(range(1, 21), repeat=2):
            for _ in range(3):
                for a, b in _point_product_pairs(gen, n, k):
                    assert a.dot(b).tobytes() == (a @ b).tobytes()


class TestFirstStage:
    def test_no_flow_evaluation_at_a_located_event_point(self, certn, monkeypatch):
        # the eager jump leaves a located event point at once, so no first
        # stage is evaluated there; a step from an unsnapped step end takes
        # the last step's FSAL stage, so a step costs fewer than seven; every
        # stage goes through the plant's bound flow, _Flow.into
        points, steps, located = [], [], []
        flow, advance = simulate._Flow.into, simulate._StagedStep.advance

        def counted_flow(bound, x, y, e, out):
            points.append(np.concatenate((x, y, e)).tobytes())
            return flow(bound, x, y, e, out)

        def counted_advance(step, *args):
            steps.append(args)
            return advance(step, *args)

        def counted_locate(*args, **kwargs):
            located.append(locate_event(*args, **kwargs))
            return located[-1]

        monkeypatch.setattr(simulate._Flow, "into", counted_flow)
        monkeypatch.setattr(simulate._StagedStep, "advance", counted_advance)
        monkeypatch.setattr(simulate, "locate_event", counted_locate)
        sc = demo_scenario("deadzone")
        arc = integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0,
                            replace(sc.solver, horizon=8.0), cert=certn.cert)
        assert arc.jump_count == sum(t is not None for t in located) >= 1
        assert points
        evaluated = set(points)
        for ev in arc.events:
            assert ev.pre_state.as_vector().tobytes() not in evaluated
        assert len(points) < 7 * len(steps)


class TestFastFloor:
    def _landed_fast_components(self, arc):
        # every stored flow row after the initial one is a landed point
        return np.abs(arc.y[1:][arc.is_jump[1:] == 0])

    def test_dwell_run_snaps_below_floor(self, certn):
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=2.0, store_stride=1)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert,
                            params=certn.dwell)
        assert arc.jump_count >= 2
        y = self._landed_fast_components(arc)
        assert np.any(y == 0.0)
        assert np.all((y == 0.0) | (y >= cfg.fast_floor))

    def test_event_points_snapped_as_step_ends(self):
        # with a period below the step cap many landed points are event
        # points, and at some of them |y| has decayed below this floor
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.005)
        cfg = SolverConfig(horizon=1.0, fast_floor=5e-3)
        arc = integrate_arc(demo_plant(0.02), policy, _q0(), cfg)
        assert arc.jump_count == 199
        y = self._landed_fast_components(arc)
        assert np.any(y == 0.0)
        assert np.all((y == 0.0) | (y >= cfg.fast_floor))

    def test_snap_test_on_floats_is_the_array_test(self):
        # the loop's snap test on floats, 0 < |v| < fast_floor, against the
        # array test (|y| < fast_floor) & (y != 0) it replaced
        for fast_floor in (1e-12, 1e-3, 5e-324, 1.0):
            below, above = (math.nextafter(fast_floor, 0.0),
                            math.nextafter(fast_floor, math.inf))
            values = [0.0, -0.0, 5e-324, -5e-324, fast_floor, -fast_floor, below, -below,
                      above, -above, math.nan, -math.nan, math.inf, -math.inf, 1e300]
            y = np.array(values)
            snapped = ((np.abs(y) < fast_floor) & (y != 0.0)).tolist()
            for v, moved in zip(values, snapped):
                assert (simulate._first_snapped([v], fast_floor) == 0) is moved, v
            first = snapped.index(True) if True in snapped else len(values)
            assert simulate._first_snapped(values, fast_floor) == first
            unmoved = [v for v, moved in zip(values, snapped) if not moved]
            assert simulate._first_snapped(unmoved, fast_floor) == len(unmoved)


class TestHybridSystemInterface:
    def test_interface_consistency(self, certn):
        sc = demo_scenario("deadzone")
        spec = sc.plant.as_plant_spec()
        hsi = build_hybrid_system(spec, sc.policy, certn.cert)
        q = _q0()
        assert hsi.in_flow_set(q)
        assert not hsi.in_jump_set(q)
        assert hsi.event_function(q) < 0.0
        # exact equality is measure-zero in floating point; probe a point
        # just past the surface
        on_surface = HybridState(
            x=np.zeros(2), y=np.zeros(1),
            e=np.array([math.sqrt(sc.policy.rho / certn.cert.gamma1.coeff)
                        * (1.0 + 1e-9), 0.0]),
        )
        assert hsi.in_jump_set(on_surface)
        assert hsi.event_function(on_surface) >= 0.0
        q_post = hsi.jump_map(on_surface)
        assert np.array_equal(q_post.e, np.zeros(2))
        d = hsi.flow_map(q)
        assert d.shape == (5,)

    def test_periodic_rejected(self, certn):
        spec = demo_plant(0.05).as_plant_spec()
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=1.0)
        with pytest.raises(ConfigurationError):
            build_hybrid_system(spec, policy, certn.cert)
