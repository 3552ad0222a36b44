"""The built-in linear two-time-scale demo and its canned scenarios.

A fourth-order sampled-data loop: two slow states, one fast actuator-like
state (n_x = 2, n_z = 1) with Hurwitz A22, and a static gain that closes
the reduced slow model to a double pole at -1. P1 = I and a scalar P2
solve the slow/fast Lyapunov inequalities with a small decay margin; the
common Lipschitz constant of the four plant maps is exactly one. All
acceptance scenarios run on these frozen matrices.

Scenario notes:

* The fast block carries no direct x-coupling (A21 = 0), so between
  transmissions the shifted fast state decays autonomously and the root
  Jacobian term vanishes; transmissions re-excite it through the jump map.
* The dwell-clock scenario runs at the certified singular-perturbation
  bound, which is extremely small. The linear plant flows by its exact
  propagator, so the hard step cap is lifted and the cell is set by the
  slow block; as_plant_spec() runs it by RK45 instead, where the fast layer
  after each transmission is resolved adaptively under embedded error
  control and fast-state values below the absolute tolerance are snapped
  to zero once the layer has decayed (see SolverConfig.fast_floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificates import (
    AnalysisParameters,
    LyapunovCertificate,
    QuadraticLyapunovData,
    epsilon_star_search,
    max_dwell_time,
    select_analysis_parameters,
)
from .hybrid import HybridState
from .plant import LinearPlantSpec
from .simulate import SolverConfig
from .triggers import PolicyKind, TriggerPolicy

__all__ = [
    "demo_plant",
    "demo_lyapunov_data",
    "demo_certificate",
    "DemoCertification",
    "demo_certification",
    "DEMO_SCENARIOS",
    "demo_scenario",
]

# Frozen at build time; validated by the acceptance suite.
_A11 = [[-1.0, 0.0], [0.0, -0.6]]
_A12 = [[0.0], [0.6]]
_A21 = [[0.0, 0.0]]
_A22 = [[-0.6]]
_B1 = [[0.0], [0.0]]
_B2 = [[0.6]]
_K = [[0.0, -2.0 / 3.0]]

# Lyapunov data: P1 = I certifies the closed slow model x' = -x at rate
# 2, P2 certifies the fast model at rate 2|A22|; both carry a 0.1% margin
# so the sampled inequality checks stay clear of roundoff. The common
# Lipschitz constant of f, g, k, h is exactly 1 (the f-block dominates).
_P1 = [[1.0, 0.0], [0.0, 1.0]]
_P2 = [[0.8]]
_ALPHA1_BAR = 2.0 * 0.999
_ALPHA2 = 2.0 * 0.6 * 0.999
_L_BAR = 1.0

DEFAULT_EPSILON = 0.01


def demo_plant(epsilon: float = DEFAULT_EPSILON) -> LinearPlantSpec:
    """The frozen linear demo plant at the requested epsilon."""
    return LinearPlantSpec(
        a11=np.array(_A11), a12=np.array(_A12), a21=np.array(_A21),
        a22=np.array(_A22), b1=np.array(_B1), b2=np.array(_B2),
        k_gain=np.array(_K), epsilon=epsilon,
    )


def demo_lyapunov_data() -> QuadraticLyapunovData:
    return QuadraticLyapunovData(
        p1=np.array(_P1), p2=np.array(_P2),
        alpha1_bar=_ALPHA1_BAR, alpha2=_ALPHA2, l_bar=_L_BAR,
    )


@lru_cache(maxsize=1)
def demo_certificate() -> LyapunovCertificate:
    return LyapunovCertificate.derive(demo_lyapunov_data())


@dataclass(frozen=True)
class DemoCertification:
    """Certified parameters for both analyses on the demo plant."""

    cert: LyapunovCertificate
    practical: AnalysisParameters   # dead-zone analysis, sigma below
    dwell: AnalysisParameters       # dwell-clock analysis


SIGMA_PRACTICAL = 0.3
SIGMA_DWELL = 0.15
T_STAR_FRACTION = 0.9


@lru_cache(maxsize=1)
def demo_certification() -> DemoCertification:
    """Run the full certification chain on the demo (cached, deterministic)."""
    cert = demo_certificate()
    consts = cert.constants
    practical = select_analysis_parameters(consts, SIGMA_PRACTICAL, mode="practical")
    eps1 = epsilon_star_search(consts, SIGMA_PRACTICAL, practical.mu, "practical")
    practical = practical.with_epsilon_star(eps1)
    dwell_bound = max_dwell_time(consts.m_err, consts.n_err,
                                 consts.gamma1_bar, consts.alpha1)
    t_star = T_STAR_FRACTION * dwell_bound
    dwell = select_analysis_parameters(consts, SIGMA_DWELL, t_star=t_star,
                                       mode="dwell")
    eps2 = epsilon_star_search(consts, SIGMA_DWELL, dwell.mu, "dwell",
                               d=dwell.d_weight, dwell_ode=dwell.dwell_ode)
    dwell = dwell.with_epsilon_star(eps2)
    return DemoCertification(cert=cert, practical=practical, dwell=dwell)


# Canned scenario parameters.
DEADZONE_RHO = 0.02
DEADZONE_HORIZON = 40.0
DEADZONE_X0 = (1.0, -0.5)
DEADZONE_Y0 = (0.4,)
ZENO_EPSILON = 0.01
COMPARE_EPSILON = 0.02
COMPARE_T_STAR_FRACTION = 0.25


@dataclass(frozen=True)
class DemoScenario:
    plant: LinearPlantSpec
    policy: TriggerPolicy
    solver: SolverConfig
    q0: HybridState


def _deadzone_epsilon(certification: DemoCertification) -> float:
    # Largest round value at or below the certified bound.
    eps_star = certification.practical.epsilon_star
    return min(0.03, eps_star)


def demo_scenario(name: str) -> DemoScenario:
    """Build a canned scenario: zeno, deadzone, dwell, or one compare leg."""
    certification = demo_certification()
    cert = certification.cert
    if name == "zeno":
        plant = demo_plant(ZENO_EPSILON)
        policy = TriggerPolicy(kind=PolicyKind.NAIVE, sigma=SIGMA_PRACTICAL)
        solver = SolverConfig(horizon=1.0, zeno_max_jumps=1000,
                              zeno_window=1e-6)
        q0 = HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(2))
        return DemoScenario(plant, policy, solver, q0)
    if name == "deadzone":
        eps = _deadzone_epsilon(certification)
        plant = demo_plant(eps)
        policy = TriggerPolicy(kind=PolicyKind.DEADZONE,
                               sigma=SIGMA_PRACTICAL, rho=DEADZONE_RHO)
        solver = SolverConfig(horizon=DEADZONE_HORIZON)
        q0 = HybridState(x=np.array(DEADZONE_X0), y=np.array(DEADZONE_Y0),
                         e=np.zeros(2))
        return DemoScenario(plant, policy, solver, q0)
    if name == "dwell":
        params = certification.dwell
        eps = params.epsilon_star
        plant = demo_plant(eps)
        policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED,
                               sigma=SIGMA_DWELL, t_star=params.t_star)
        horizon = 50.0 / params.psi
        solver = SolverConfig(
            horizon=horizon,
            rel_tol=1e-8,
            abs_tol=1e-12,
            # The certified epsilon is far below the desk scale the default
            # cap was written for: the slow block sets the propagator's cell,
            # and the generic path relies on embedded error control.
            max_step_factor=1e15,
            fast_floor=1e-12,
            store_stride=8,
        )
        q0 = HybridState(x=np.array(DEADZONE_X0), y=np.array(DEADZONE_Y0),
                         e=np.zeros(2), tau=0.0)
        return DemoScenario(plant, policy, solver, q0)
    if name in ("compare", "compare_periodic"):
        # At a dwell time close to the admissible bound the state decays so
        # much per interval that the threshold is always met at the
        # boundary and the trigger degenerates to periodic sampling; a
        # shorter shared interval lets the event mechanism stretch the
        # inter-transmission times and show the saving.
        t_shared = COMPARE_T_STAR_FRACTION * certification.dwell.dwell_bound
        plant = demo_plant(COMPARE_EPSILON)
        horizon = 100.0 * t_shared
        solver = SolverConfig(horizon=horizon)
        if name == "compare":
            policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED,
                                   sigma=SIGMA_PRACTICAL, t_star=t_shared)
            q0 = HybridState(x=np.array(DEADZONE_X0), y=np.array(DEADZONE_Y0),
                             e=np.zeros(2), tau=0.0)
        else:
            policy = TriggerPolicy(kind=PolicyKind.PERIODIC, period=t_shared)
            q0 = HybridState(x=np.array(DEADZONE_X0), y=np.array(DEADZONE_Y0),
                             e=np.zeros(2))
        return DemoScenario(plant, policy, solver, q0)
    raise KeyError(f"unknown demo scenario {name!r}")


DEMO_SCENARIOS = ("zeno", "deadzone", "dwell", "compare")
