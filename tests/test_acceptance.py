"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned at its contractual value; nothing is
calibrated at run time.
"""

import filecmp
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from etcsim.analysis import (
    certified_ball_radius,
    inter_event_times,
    practical_ball,
)
from etcsim.certificates import (
    QuadraticLyapunovData,
    derive_constants,
    max_dwell_time,
    trigger_slope_bound,
    validate_assumptions,
)
from etcsim.cli import main as cli_main
from etcsim.demo import (
    DEADZONE_RHO,
    demo_certification,
    demo_lyapunov_data,
    demo_plant,
    demo_scenario,
)
from etcsim.hybrid import HybridState, Termination
from etcsim.plant import apply_jump
from etcsim.scenario import sample_in_ball
from etcsim.simulate import integrate_arc

DELTA = 1.0  # initial-condition ball radius for the dead-zone criteria


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


@pytest.fixture(scope="module")
def certn():
    return demo_certification()


@pytest.fixture(scope="module")
def xi_hat(certn):
    """Sampled trigger-slope supremum over the reachable set for Delta = 1."""
    return trigger_slope_bound(
        demo_plant(0.03).as_plant_spec(), certn.cert.data,
        certn.cert.constants, theta=certn.practical.theta, rho=DEADZONE_RHO,
        delta=DELTA, n_samples=100_000, seed=11,
    )


@pytest.fixture(scope="module")
def deadzone_runs(certn):
    """20 certified dead-zone runs from random initial conditions in the
    Delta-ball (e = 0 at the first transmission instant)."""
    sc = demo_scenario("deadzone")
    assert sc.plant.epsilon <= certn.practical.epsilon_star
    rng = np.random.default_rng(2024)
    arcs = []
    for _ in range(20):
        xy = sample_in_ball(rng, 3, DELTA)
        q0 = HybridState(x=xy[:2], y=xy[2:], e=np.zeros(2))
        arcs.append(integrate_arc(sc.plant, sc.policy, q0, sc.solver,
                                  cert=certn.cert))
    return sc, arcs


@pytest.fixture(scope="module")
def rho_sweep_runs(certn, deadzone_runs):
    """Dead-zone runs at rho, rho/2, rho/4 over the same fixed set of
    initial conditions (the seed matches the 20-run fixture). The rho runs
    are the 20-run fixture's arcs: same policy, solver, certificate and
    initial conditions, and integrate_arc is bitwise deterministic."""
    sc, deadzone_arcs = deadzone_runs
    rng = np.random.default_rng(2024)
    ics = [sample_in_ball(rng, 3, DELTA) for _ in range(20)]
    fresh = demo_scenario("deadzone")
    assert (sc.policy, sc.solver) == (replace(fresh.policy, rho=DEADZONE_RHO), fresh.solver)
    assert all(np.array_equal(arc.states[0], np.concatenate([xy, np.zeros(2)]))
               for arc, xy in zip(deadzone_arcs, ics, strict=True))
    arcs = {DEADZONE_RHO: deadzone_arcs}
    for rho in (DEADZONE_RHO / 2, DEADZONE_RHO / 4):
        policy = replace(sc.policy, rho=rho)
        arcs[rho] = [
            integrate_arc(sc.plant, policy,
                          HybridState(x=xy[:2], y=xy[2:], e=np.zeros(2)),
                          sc.solver, cert=certn.cert)
            for xy in ics
        ]
    return sc, arcs


@pytest.fixture(scope="module")
def gas_run(certn):
    sc = demo_scenario("dwell")
    arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver,
                        cert=certn.cert, params=certn.dwell)
    return sc, arc


def test_criterion_1_zeno_defect(certn):
    with criterion(1, "naive trigger from the origin trips the Zeno guard"):
        sc = demo_scenario("zeno")
        arc = integrate_arc(sc.plant, sc.policy, sc.q0, sc.solver,
                            cert=certn.cert)
        assert arc.termination is Termination.ZENO_GUARD
        assert arc.jump_count >= 1000
        assert arc.elapsed_time() == 0.0


def test_criterion_2_deadzone_dwell(certn, xi_hat, deadzone_runs):
    with criterion(2, "dead-zone inter-event times beat rho/xi(Delta) on 20 runs"):
        sc, arcs = deadzone_runs
        floor = DEADZONE_RHO / xi_hat
        assert floor > 0.0
        for arc in arcs:
            assert arc.termination is Termination.HORIZON
            durations = inter_event_times(arc, sc.policy, sc.solver.event_tol)
            min_iet = float(durations.min()) if durations.size else math.inf
            assert min_iet >= floor


def test_criterion_3_practical_ball_monotonicity(certn, rho_sweep_runs):
    with criterion(3, "residual ball shrinks with rho and stays below the "
                      "certified bound"):
        # The certified residual bound covers the whole ball of initial
        # conditions, so the ball estimate per rho is the worst trailing
        # radius over the fixed initial-condition set (a single
        # trajectory's radius depends on where its last transmission
        # happened to park the loop).
        sc, arcs = rho_sweep_runs
        rhos = sorted(arcs, reverse=True)
        worst_radii = []
        for rho in rhos:
            radii = [practical_ball(arc) for arc in arcs[rho]]
            bound = certified_ball_radius(certn.cert, certn.practical, rho,
                                          sc.plant.epsilon)
            assert all(r <= bound for r in radii)
            worst_radii.append(max(radii))
        assert all(a >= b for a, b in zip(worst_radii, worst_radii[1:]))


def _flow_pairs(arc):
    t = arc.t
    j = arc.j
    for k in range(len(arc) - 1):
        if j[k + 1] == j[k] and t[k + 1] > t[k]:
            yield k, k + 1


def test_criterion_4_v_flow_decrease(certn, deadzone_runs, rho_sweep_runs):
    with criterion(4, "composite V decays at the certified rate above the "
                      "dead-zone floor"):
        sc, arcs = deadzone_runs
        consts = certn.cert.constants
        mu = certn.practical.mu
        eps = sc.plant.epsilon
        checked = 0
        extra = [(rho, arc) for rho, sweep_arcs in rho_sweep_runs[1].items()
                 for arc in sweep_arcs]
        for policy_rho, arc in [(sc.policy.rho, a) for a in arcs] + extra:
            threshold = (2.0 * (1.0 + math.sqrt(eps) * consts.l_link)
                         * policy_rho / mu)
            v = arc.v
            t = arc.t
            for k, k1 in _flow_pairs(arc):
                if v[k] < threshold:
                    continue
                rate = (v[k1] - v[k]) / (t[k1] - t[k])
                assert rate <= -(mu / 2.0) * v[k] * (1.0 - 0.05)
                checked += 1
        assert checked > 100  # the gate must actually bite


def test_criterion_5_dwell_formula_vs_ode_oracle(comparison_ode_oracle):
    with criterion(5, "closed-form dwell bound matches the comparison-ODE "
                      "oracle on all three branches"):
        triples = [
            (1.0, 1.0, 2.0, 1.0),   # arctan branch (pi/4)
            (2.0, 1.0, 2.0, 0.5),   # boundary branch (1/M)
            (2.0, 1.0, 2.0, 1.0),   # artanh branch
        ]
        for m_err, n_err, g1, a1 in triples:
            closed_form = max_dwell_time(m_err, n_err, g1, a1)
            transit, _ = comparison_ode_oracle(1e-4, 1e-4, m_err, n_err, g1, a1)
            assert abs(transit - closed_form) <= 1e-3


def test_criterion_6_gas_decay(certn, gas_run):
    with criterion(6, "dwell-clock run decays within the certified hybrid "
                      "envelope over the 50/psi horizon"):
        sc, arc = gas_run
        params = certn.dwell
        assert sc.plant.epsilon == params.epsilon_star
        assert sc.solver.horizon == pytest.approx(50.0 / params.psi)
        assert arc.termination is Termination.HORIZON
        # R-envelope at every sample
        r = arc.r
        tj = arc.hybrid_total_time
        assert np.all(np.isfinite(r))
        r0 = r[0]
        assert r0 > 0.0
        envelope = 1.05 * np.exp(-params.psi * tj) * r0
        assert np.all(r <= envelope)
        # enforced dwell time
        durations = inter_event_times(arc, sc.policy, sc.solver.event_tol)
        assert durations.size > 100
        assert float(durations.min()) >= params.t_star - 2 * sc.solver.event_tol
        # contraction to the origin
        final = arc.final_state().xy_norm()
        assert final <= 1e-6 * sc.q0.xy_norm()


def test_criterion_7_constant_derivation_soundness():
    with criterion(7, "derived constants satisfy every assumption family "
                      "and match the hand-derived unit case"):
        data = demo_lyapunov_data()
        consts = derive_constants(data)
        report = validate_assumptions(demo_plant(0.03).as_plant_spec(), data,
                                      consts, n_samples=10_000, box=10.0,
                                      seed=0)
        for family in report.families:
            assert family.worst_slack >= -1e-9, family.name
        unit = derive_constants(QuadraticLyapunovData(
            p1=np.eye(2), p2=np.eye(1), alpha1_bar=1.0, alpha2=1.0, l_bar=1.0))
        expected = {
            "alpha1": 0.5, "gamma1_bar": 2.0, "alpha2": 1.0, "beta1": 2.0,
            "beta2": 2.0, "beta3": 4.0, "gamma2_bar": 2.0, "l_link": 1.0,
            "lambda1": 0.5, "lambda2": 1.0, "m_err": 1.0, "n_err": 1.0,
        }
        actual = unit.to_dict()
        for name, value in expected.items():
            assert abs(actual[name] - value) <= 1e-12, name


def test_criterion_8_transmission_economy(certn):
    with criterion(8, "dwell-clock trigger transmits no more than the "
                      "periodic baseline at the same interval"):
        sc_tr = demo_scenario("compare")
        sc_per = demo_scenario("compare_periodic")
        assert sc_tr.policy.t_star == sc_per.policy.period
        arc_tr = integrate_arc(sc_tr.plant, sc_tr.policy, sc_tr.q0,
                               sc_tr.solver, cert=certn.cert)
        arc_per = integrate_arc(sc_per.plant, sc_per.policy, sc_per.q0,
                                sc_per.solver, cert=certn.cert)
        assert sc_tr.solver.horizon == pytest.approx(100.0 * sc_tr.policy.t_star)
        assert arc_tr.jump_count <= arc_per.jump_count
        initial = sc_tr.q0.xy_norm()
        assert arc_tr.final_state().xy_norm() <= 1e-3 * initial
        assert arc_per.final_state().xy_norm() <= 1e-3 * initial


def _closed_form_jump_y(jump_gain, pre):
    """The closed-form linear jump's arithmetic, reproduced operation for
    operation (accumulation in state order)."""
    y = pre.y.copy()
    for i in range(jump_gain.shape[0]):
        acc = 0.0
        for m in range(jump_gain.shape[1]):
            acc += jump_gain[i, m] * pre.e[m]
        y[i] = pre.y[i] + acc
    return y


def test_criterion_9_jump_map_exactness(certn, gas_run, deadzone_runs):
    with criterion(9, "every recorded jump equals the jump map exactly and "
                      "keeps the physical state continuous"):
        sc_dz, dz_arcs = deadzone_runs
        sc_gas, gas_arc = gas_run
        # reference-path arc: bitwise against the generic jump map
        cfg = replace(sc_dz.solver, horizon=8.0)
        spec = sc_dz.plant.as_plant_spec()
        py_arc = integrate_arc(spec, sc_dz.policy, sc_dz.q0, cfg,
                               cert=certn.cert)
        assert py_arc.jump_count >= 1
        for ev in py_arc.events:
            expected = apply_jump(ev.pre_state, spec)
            assert np.array_equal(ev.post_state.x, expected.x)
            assert np.array_equal(ev.post_state.y, expected.y)
            assert np.array_equal(ev.post_state.e, expected.e)
        # linear arcs (exact propagator): bitwise against the closed-form
        # jump y + (Hu K) e, recomputed operation for operation
        for plant, arc in ((sc_dz.plant, dz_arcs[0]), (sc_gas.plant, gas_arc)):
            gain = plant.jump_gain()
            assert arc.jump_count >= 1
            for ev in arc.events:
                assert np.array_equal(ev.post_state.x, ev.pre_state.x)
                assert np.array_equal(ev.post_state.e,
                                      np.zeros_like(ev.pre_state.e))
                assert np.array_equal(ev.post_state.y,
                                      _closed_form_jump_y(gain, ev.pre_state))
                if ev.post_state.tau is not None:
                    assert ev.post_state.tau == 0.0
        # physical-state continuity across every jump
        for arc, plant in ((py_arc, sc_dz.plant), (dz_arcs[0], sc_dz.plant),
                           (gas_arc, sc_gas.plant)):
            spec = plant.as_plant_spec()
            for ev in arc.events:
                pre, post = ev.pre_state, ev.post_state
                z_pre = pre.y + np.asarray(spec.h(pre.x, spec.k(pre.x + pre.e)))
                z_post = post.y + np.asarray(spec.h(post.x, spec.k(post.x)))
                assert np.allclose(z_pre, z_post, rtol=0, atol=1e-9)


def test_criterion_10_demo_determinism(tmp_path):
    with criterion(10, "repeated demo runs produce byte-identical CSV output"):
        for name in ("zeno", "deadzone", "dwell", "compare"):
            dirs = []
            for run in range(2):
                out = tmp_path / f"{name}_{run}"
                assert cli_main(["demo", name, "--out", str(out)]) == 0
                dirs.append(out)
            csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
            assert csvs
            for fname in csvs:
                assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname,
                                   shallow=False), f"{name}/{fname}"
