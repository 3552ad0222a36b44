import numpy as np
import pytest
from scipy.integrate import solve_ivp

from etcsim.demo import demo_certification, demo_plant
from etcsim.plant import PlantSpec


@pytest.fixture(scope="session")
def certification():
    return demo_certification()


def _solve_comparison_ode(mu, vartheta, m_err, n_err, gamma1_bar, alpha1):
    """Numerical solution of the dwell comparison ODE, independent of the
    closed form in etcsim.certificates: integrates
    w' = -1 - 2*M*w - mu - (mu*w + gamma1_bar/(alpha1-mu)*(N*w)^2) from
    w(0) = 1/vartheta until w = vartheta (at most 1/vartheta - vartheta
    later, since w' <= -1). Returns the transit time and w(tau) on it."""
    quad = gamma1_bar / (alpha1 - mu) * n_err**2

    def rhs(_t, w):
        return -1.0 - 2.0 * m_err * w - mu - (mu * w + quad * w * w)

    def hit_floor(_t, w):
        return w[0] - vartheta

    hit_floor.terminal = True
    hit_floor.direction = -1
    cap = (1.0 / vartheta - vartheta) + 1.0
    sol = solve_ivp(rhs, (0.0, cap), [1.0 / vartheta], events=hit_floor,
                    dense_output=True, rtol=1e-12, atol=1e-14)
    assert sol.t_events[0].size, "comparison ODE did not reach its floor"
    return float(sol.t_events[0][0]), lambda tau: float(sol.sol(tau)[0])


@pytest.fixture(scope="session")
def comparison_ode_oracle():
    """(transit time, w(tau)) of the comparison ODE by solve_ivp at rtol
    1e-12, atol 1e-14; takes dwell_time_ode's arguments."""
    return _solve_comparison_ode


@pytest.fixture(scope="session")
def demo_cert(certification):
    return certification.cert


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def plant_eps03():
    return demo_plant(0.03)


@pytest.fixture(scope="session")
def nonlinear_plant():
    """A generic (callable-based, unbatched) plant: a cubic-damped slow
    state driven through a first-order actuator."""
    return PlantSpec(
        n_x=1, n_z=1, n_u=1,
        f=lambda x, z, u: np.array([-x[0] ** 3 - x[0] + z[0]]),
        g=lambda x, z, u: u - z,
        h=lambda x, u: np.array([u[0]]),
        dh_dx=lambda x, u: np.zeros((1, 1)),
        k=lambda xs: np.array([-0.5 * xs[0]]),
        epsilon=0.02,
    )
