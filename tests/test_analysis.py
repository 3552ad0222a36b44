import json
import math
from dataclasses import replace

import numpy as np
import pytest

from etcsim.analysis import (
    certified_ball_radius,
    fit_envelope,
    inter_event_times,
    practical_ball,
    summarize_arc,
    sweep,
    transmission_comparison,
)
from etcsim.demo import demo_certification, demo_plant, demo_scenario
from etcsim.errors import ConfigurationError, EtcsimError, InsufficientDataError
from etcsim.hybrid import HybridArc, HybridState, Termination
from etcsim.scenario import Scenario
from etcsim.simulate import SolverConfig, integrate_arc
from etcsim.triggers import PolicyKind, TriggerPolicy


@pytest.fixture(scope="module")
def certn():
    return demo_certification()


def _q0(x=(1.0, -0.5), y=(0.4,), tau=None):
    return HybridState(x=np.array(x, dtype=float), y=np.array(y, dtype=float),
                       e=np.zeros(2), tau=tau)


def synthetic_arc(rate=0.7, amplitude=3.0, horizon=10.0, n=200, floor=0.0):
    """Arc whose state norm follows amplitude * exp(-rate * t) + floor."""
    arc = HybridArc(2, 1)
    for t in np.linspace(0.0, horizon, n):
        mag = amplitude * math.exp(-rate * t) + floor
        q = HybridState(x=np.array([mag, 0.0]), y=np.zeros(1), e=np.zeros(2))
        arc.append_flow_sample(float(t), q)
    arc.set_termination(Termination.HORIZON)
    return arc


class TestInterEventTimes:
    def test_periodic_durations(self, certn):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.75)
        arc = integrate_arc(plant, policy, _q0(), SolverConfig(horizon=6.0))
        durations = inter_event_times(arc, policy)
        assert durations == pytest.approx(0.75, abs=1e-9)

    def test_zero_jump_arc_empty(self, certn):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=100.0)
        arc = integrate_arc(plant, policy, _q0(), SolverConfig(horizon=2.0))
        assert inter_event_times(arc, policy).size == 0

    def test_dwell_floor_enforced(self, certn):
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=5.0)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert)
        durations = inter_event_times(arc, sc.policy, cfg.event_tol)
        assert np.all(durations >= sc.policy.t_star - 2 * cfg.event_tol)

    def test_dwell_violation_raises(self):
        arc = HybridArc(2, 1, has_clock=True)
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.zeros(2), tau=0.0)
        arc.append_flow_sample(0.0, q)
        arc.append_jump(q, q, reason="threshold")
        arc.append_flow_sample(0.1, q)
        arc.append_jump(q, q, reason="threshold")
        policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.5,
                               t_star=1.0)
        with pytest.raises(EtcsimError):
            inter_event_times(arc, policy)


class TestPracticalBall:
    def test_monotone_in_trailing_fraction(self, certn):
        sc = demo_scenario("deadzone")
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver,
                            cert=certn.cert)
        radii = [practical_ball(arc, f) for f in (0.1, 0.3, 0.6, 1.0)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_equilibrium_radius_zero(self):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.5)
        q0 = HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(2))
        arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=3.0))
        assert practical_ball(arc) <= 1e-12

    def test_requires_horizon_termination(self, certn):
        sc = demo_scenario("zeno")
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver,
                            cert=certn.cert)
        with pytest.raises(InsufficientDataError):
            practical_ball(arc)

    def test_invalid_fraction(self):
        arc = synthetic_arc()
        with pytest.raises(ConfigurationError):
            practical_ball(arc, 0.0)


class TestEnvelopeFit:
    def test_pure_exponential_recovered(self):
        arc = synthetic_arc(rate=0.7, amplitude=3.0)
        fit = fit_envelope(arc, mode="gas")
        assert fit.beta_hat == pytest.approx(3.0, rel=0.01)
        assert fit.psi_hat == pytest.approx(0.7, rel=0.01)
        assert not fit.degenerate

    def test_constant_arc_degenerate(self):
        arc = synthetic_arc(rate=0.0, amplitude=1.0)
        # every sample equals the trailing radius: nothing above kappa
        fit = fit_envelope(arc, mode="practical")
        assert fit.degenerate
        assert fit.n_used == 0

    def test_practical_mode_uses_trailing_radius(self):
        arc = synthetic_arc(rate=0.7, amplitude=3.0, floor=0.05)
        fit = fit_envelope(arc, mode="practical")
        assert fit.kappa_hat == pytest.approx(practical_ball(arc))
        # kappa sits slightly above the true floor, which biases the tail
        # of the log fit; the rate is recovered loosely
        assert fit.psi_hat == pytest.approx(0.7, rel=0.35)

    def test_needs_ten_samples(self):
        arc = synthetic_arc(n=5)
        with pytest.raises(InsufficientDataError):
            fit_envelope(arc, mode="gas")

    def test_violation_fraction_reported(self):
        arc = synthetic_arc(rate=0.7, amplitude=3.0)
        fit = fit_envelope(arc, mode="gas")
        assert 0.0 <= fit.violation_fraction <= 1.0

    def test_certified_dwell_run_beats_certified_rate(self, certn):
        # the fitted decay rate dominates the (conservative) certified one
        sc = demo_scenario("dwell")
        cfg = replace(sc.solver, horizon=30.0)
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, cfg, cert=certn.cert,
                            params=certn.dwell)
        fit = fit_envelope(arc, mode="gas")
        assert fit.psi_hat >= certn.dwell.psi * (1.0 - 0.25)


class TestSummaryJson:
    def test_non_finite_kept_as_null_and_absent_envelope_left_out(self):
        plant = demo_plant(0.02)
        policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=1.5)
        arc = integrate_arc(plant, policy, _q0(), SolverConfig(horizon=2.0))
        assert arc.jump_count == 1
        summary = summarize_arc(arc, policy, with_envelope=False)
        assert summary.min_iet == math.inf and summary.envelope is None
        out = summary.to_dict()
        assert out["min_iet"] is None and out["mean_iet"] is None
        assert "envelope" not in out
        text = json.dumps(out)
        assert "Infinity" not in text and "NaN" not in text
        json.dumps(out, allow_nan=False)


class TestCertifiedRadius:
    def test_positive_and_monotone_in_rho(self, certn):
        r1 = certified_ball_radius(certn.cert, certn.practical, 0.02, 0.03)
        r2 = certified_ball_radius(certn.cert, certn.practical, 0.04, 0.03)
        assert 0.0 < r1 < r2

    def test_needs_theta(self, certn):
        with pytest.raises(ConfigurationError):
            certified_ball_radius(certn.cert, certn.dwell, 0.02, 0.03)

    @pytest.mark.parametrize("name, rho, epsilon", [
        ("rho", -0.02, 0.03),
        ("epsilon", 0.02, 0),
        ("epsilon", 0.02, -1.0),
        ("rho", math.nan, 0.03),
    ])
    def test_rho_and_epsilon_must_be_positive_numbers(self, certn, name, rho, epsilon):
        with pytest.raises(ConfigurationError, match=f"certified_ball_radius field '{name}'"):
            certified_ball_radius(certn.cert, certn.practical, rho, epsilon)


class TestTransmissionComparison:
    def test_same_periodic_policies_equal_counts(self, certn):
        plant = demo_plant(0.02)
        p = TriggerPolicy(kind=PolicyKind.PERIODIC, period=0.5)
        result, arc_a, arc_b = transmission_comparison(
            plant, (1.0, -0.5), (0.4,), 6.0, p, p, SolverConfig(horizon=6.0))
        assert result.jumps_a == result.jumps_b
        assert np.array_equal(arc_a.jump_times(), arc_b.jump_times())

    def test_horizon_below_both_periods_zero_counts(self, certn):
        plant = demo_plant(0.02)
        tr = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.15,
                           t_star=5.0)
        per = TriggerPolicy(kind=PolicyKind.PERIODIC, period=5.0)
        result, _, _ = transmission_comparison(
            plant, (1.0, -0.5), (0.4,), 2.0, tr, per,
            SolverConfig(horizon=2.0), cert=certn.cert)
        assert result.jumps_a == 0 and result.jumps_b == 0


def _sweep_scenario(certn) -> Scenario:
    sc = demo_scenario("deadzone")
    return Scenario(
        plant=sc.plant,
        policy=sc.policy,
        solver=replace(sc.solver, horizon=8.0),
        initial={"x": [1.0, -0.5], "y": [0.4]},
        cert=certn.cert,
    )


class TestSweep:
    def test_single_cell_matches_direct_run(self, certn):
        scenario = _sweep_scenario(certn)
        result = sweep(scenario, {"epsilon": [0.02]})
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is None
        arc = integrate_arc(scenario.plant.with_epsilon(0.02), scenario.policy,
                            scenario.initial_state(),
                            replace(scenario.solver, seed=scenario.solver.seed),
                            cert=certn.cert)
        direct = summarize_arc(arc, scenario.policy,
                               scenario.solver.event_tol)
        assert cell.summary.jump_count == direct.jump_count
        assert cell.summary.final_xy_norm == direct.final_xy_norm

    def test_grid_product_and_cell_isolation(self, certn):
        scenario = _sweep_scenario(certn)
        result = sweep(scenario, {"epsilon": [0.02, 0.01],
                                  "rho": [0.02, -1.0]})
        assert len(result.cells) == 4
        errors = [c for c in result.cells if c.error is not None]
        good = [c for c in result.cells if c.error is None]
        assert len(errors) == 2  # rho = -1 cells fail in isolation
        assert all("ConfigurationError" in c.error for c in errors)
        assert all(c.summary.termination == "horizon-reached" for c in good)

    def test_determinism(self, certn):
        scenario = _sweep_scenario(certn)
        grid = {"epsilon": [0.02, 0.015], "seed": [3, 4]}
        a = sweep(scenario, grid)
        b = sweep(scenario, grid)
        assert a.to_dict() == b.to_dict()

    def test_certified_epsilon_halvings_all_stable(self, certn):
        # epsilon at, half, and quarter of the certified bound: every cell
        # reaches the horizon with a bounded residual ball
        scenario = _sweep_scenario(certn)
        eps_star = certn.practical.epsilon_star
        result = sweep(scenario,
                       {"epsilon": [eps_star, eps_star / 2, eps_star / 4]})
        for cell in result.cells:
            assert cell.error is None
            assert cell.summary.termination == "horizon-reached"
            assert cell.summary.ball_radius_estimate < 1.0

    def test_axis_the_policy_does_not_take_recorded_as_error(self, certn):
        # a rho sweep on a time-regularized scenario, a t_star sweep on a
        # dead-zone one: each cell names the parameter, none runs
        deadzone = _sweep_scenario(certn)
        dwell = replace(deadzone, policy=TriggerPolicy(
            kind=PolicyKind.TIME_REGULARIZED, sigma=0.3, t_star=0.1))
        for scenario, axis in ((dwell, "rho"), (deadzone, "t_star")):
            result = sweep(scenario, {axis: [0.02, 0.05]})
            assert len(result.cells) == 2
            for cell in result.cells:
                assert cell.summary is None
                assert cell.error.startswith("ConfigurationError: ")
                assert f"does not take {axis}" in cell.error

    def test_unknown_axis_rejected(self, certn):
        with pytest.raises(ConfigurationError):
            sweep(_sweep_scenario(certn), {"bogus": [1]})

    def test_diverging_cell_recorded_as_summary(self, certn):
        # an unstable plant diverges; the cell carries the termination
        # instead of failing the sweep
        sc = _sweep_scenario(certn)
        unstable = replace(sc.plant, a11=np.array([[3.0, 0.0], [0.0, 3.0]]))
        scenario = Scenario(plant=unstable, policy=sc.policy,
                            solver=replace(sc.solver, rel_tol=1e-6,
                                           abs_tol=1e-9, horizon=60.0),
                            initial=sc.initial, cert=sc.cert)
        result = sweep(scenario, {"epsilon": [0.02]})
        cell = result.cells[0]
        assert cell.error is None
        assert cell.summary.termination == "divergence"

    def test_csv_output(self, certn, tmp_path):
        scenario = _sweep_scenario(certn)
        result = sweep(scenario, {"epsilon": [0.02, 0.01]})
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("epsilon,jump_count,")
        assert len(lines) == 3
