import math
from dataclasses import replace

import numpy as np
import pytest

from etcsim.certificates import DwellComparison
from etcsim.demo import demo_certification, demo_plant, demo_scenario
from etcsim.errors import ConfigurationError, OrderingError
from etcsim.hybrid import HybridArc, HybridState, Termination
from etcsim.plant import apply_jump
from etcsim.simulate import (
    DIVERGENCE_NORM,
    SolverConfig,
    build_hybrid_system,
    integrate_arc,
    locate_event,
    monitor_r,
    monitor_v,
)
from etcsim.triggers import PolicyKind, TriggerPolicy


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
        # six periodic jumps span 0.05
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.01)
        cfg = SolverConfig(horizon=0.2, zeno_max_jumps=5, zeno_window=window)
        arc = integrate_arc(demo_plant(0.05), policy, _q0(), cfg)
        if tripped:
            assert arc.termination is Termination.ZENO_GUARD
            assert arc.jump_count == 6
        else:
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

    def test_python_and_kernel_agree(self, certn):
        sc = demo_scenario("deadzone")
        cfg = replace(sc.solver, horizon=5.0)
        a = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        b = integrate_arc(sc.plant.as_plant_spec(), sc.policy, sc.q0, cfg,
                          cert=certn.cert)
        assert a.jump_count == b.jump_count
        assert a.jump_times() == pytest.approx(b.jump_times(), abs=1e-7)
        assert a.final_state().x == pytest.approx(b.final_state().x, abs=1e-7)

    def test_python_and_kernel_agree_on_dwell_policy(self, certn):
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
        # flow rows skip the public append checks; integrate_arc checks the
        # arc's (t, j) ordering once before it returns
        write = HybridArc._append_row

        def misplaced(arc, t, *args, **kwargs):
            write(arc, 0.0 if len(arc) == 5 else t, *args, **kwargs)

        monkeypatch.setattr(HybridArc, "_append_row", misplaced)
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


class TestMonitors:
    def test_zero_state(self, certn):
        q = HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(2), tau=0.0)
        assert monitor_v(q, certn.cert, 0.01) == 0.0
        assert monitor_r(q, certn.cert, certn.dwell) == 0.0

    def test_negative_comparison_value_drops_error_term(self, certn):
        params = replace(
            certn.dwell,
            dwell_ode=DwellComparison(
                transit_time=1.0,
                tau_grid=np.array([0.0, 1.0]),
                values=np.array([-0.5, -1.0]),
            ),
        )
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

    def test_stored_monitors_equal_public_functions(self, certn):
        # The integrator writes flow rows from raw slices of its state
        # vector; the stored V and R must still equal the public monitors on
        # the row's state bitwise (NaN where R is undefined).
        def same(a, b):
            return a == b or (math.isnan(a) and math.isnan(b))

        legs = [
            ("deadzone", 5.0, None),
            ("dwell", 4.0, None),
            ("dwell", 4.0, certn.dwell),
            ("compare_periodic", None, certn.dwell),
        ]
        for name, horizon, params in legs:
            sc = demo_scenario(name)
            if horizon is None:
                horizon = 5.0 * sc.policy.period
            cfg = replace(sc.solver, horizon=horizon)
            arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg,
                                cert=certn.cert, params=params)
            assert arc.jump_count >= 1 and len(arc) > 10
            eps = sc.plant.epsilon
            v, r = arc.v.tolist(), arc.r.tolist()
            for i in range(len(arc)):
                q = arc.state_at(i)
                assert v[i] == monitor_v(q, certn.cert, eps), (name, i)
                expected_r = (monitor_r(q, certn.cert, params)
                              if params is not None else math.nan)
                assert same(r[i], expected_r), (name, i)
            if params is not None and sc.policy.requires_clock:
                assert np.all(np.isfinite(arc.r)), name


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
