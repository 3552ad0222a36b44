import warnings

import numpy as np
import pytest

from etcsim.demo import demo_certification, demo_plant
from etcsim.plant import PlantSpec

# The eigenvalue cross-check of the 3x3 flow form is informational; keep
# the suite output readable.
warnings.filterwarnings("ignore", message=".*principal-minor and eigenvalue.*")


@pytest.fixture(scope="session")
def certification():
    return demo_certification()


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
