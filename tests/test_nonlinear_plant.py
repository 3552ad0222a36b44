"""End-to-end run of the generic (callable-based) plant path on a
nonlinear plant: a cubic-damped slow state driven through a first-order
actuator. The quadratic certificate used for the trigger thresholds is
local, which is all the margins need."""

import numpy as np
import pytest

from etcsim.certificates import (
    LyapunovCertificate,
    QuadraticLyapunovData,
    validate_assumptions,
)
from etcsim.errors import DimensionError
from etcsim.hybrid import HybridState, Termination
from etcsim.plant import PlantSpec, apply_jump, check_root_consistency
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


@pytest.fixture(scope="module")
def short_root():
    """Two fast states whose root h returns one value, so y + h would
    broadcast, and a certificate of the plant's sizes."""
    plant = PlantSpec(
        n_x=1, n_z=2, n_u=1,
        f=lambda x, z, u: np.array([-x[0] + 0.1 * z[0]]),
        g=lambda x, z, u: u[0] - z,
        h=lambda x, u: np.array([u[0]]),
        dh_dx=lambda x, u: np.zeros((2, 1)),
        k=lambda xs: np.array([-0.5 * xs[0]]),
        epsilon=0.02,
    )
    data = QuadraticLyapunovData(p1=np.eye(1), p2=np.eye(2),
                                 alpha1_bar=1.0, alpha2=1.9, l_bar=1.5)
    return plant, LyapunovCertificate.derive(data)


def test_flow_of_a_map_of_wrong_size_is_a_dimension_error(short_root):
    plant, cert = short_root
    policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5, 0.0]), e=np.zeros(1))
    with pytest.raises(DimensionError, match="map h has size 1, expected 2"):
        integrate_arc(plant, policy, q0, SolverConfig(horizon=5.0), cert=cert)


def test_sampled_check_of_a_map_of_wrong_size_is_a_dimension_error(short_root):
    plant, cert = short_root
    with pytest.raises(DimensionError, match="map h has size 1, expected 2"):
        validate_assumptions(plant, cert.data, cert.constants, n_samples=100)
