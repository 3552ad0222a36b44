"""End-to-end run of the generic (callable-based) plant path on a
nonlinear plant: a cubic-damped slow state driven through a first-order
actuator. The quadratic certificate used for the trigger thresholds is
local, which is all the margins need."""

import numpy as np
import pytest

from etcsim.certificates import LyapunovCertificate, QuadraticLyapunovData
from etcsim.hybrid import HybridState, Termination
from etcsim.plant import apply_jump, check_root_consistency
from etcsim.simulate import SolverConfig, integrate_arc
from etcsim.triggers import PolicyKind, TriggerPolicy


@pytest.fixture(scope="module")
def plant(nonlinear_plant):
    return nonlinear_plant


@pytest.fixture(scope="module")
def cert():
    data = QuadraticLyapunovData(p1=np.eye(1), p2=np.eye(1),
                                 alpha1_bar=1.0, alpha2=1.9, l_bar=1.5)
    return LyapunovCertificate.derive(data)


def test_root_is_consistent(plant):
    assert check_root_consistency(plant, box=3.0, n_samples=2000) <= 1e-12


def test_deadzone_run_converges(plant, cert):
    policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5]), e=np.zeros(1))
    arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=20.0),
                        cert=cert)
    arc.check_ordering()
    assert arc.termination is Termination.HORIZON
    assert arc.jump_count >= 2
    assert arc.final_state().xy_norm() < 0.3
    # jump exactness and physical-state continuity on the generic path
    for ev in arc.events:
        expected = apply_jump(ev.pre_state, plant)
        assert np.array_equal(ev.post_state.y, expected.y)
        assert np.array_equal(ev.post_state.e, expected.e)
        z_pre = ev.pre_state.y + plant.h(ev.pre_state.x,
                                         plant.k(ev.pre_state.x + ev.pre_state.e))
        z_post = ev.post_state.y + plant.h(ev.post_state.x,
                                           plant.k(ev.post_state.x))
        assert np.allclose(z_pre, z_post, rtol=0, atol=1e-9)


def test_dwell_clock_run(plant, cert):
    policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.4,
                           t_star=0.3)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5]), e=np.zeros(1),
                     tau=0.0)
    arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=6.0),
                        cert=cert)
    assert arc.termination is Termination.HORIZON
    iets = np.diff(arc.jump_times())
    if iets.size:
        assert np.all(iets >= 0.3 - 2e-9)
