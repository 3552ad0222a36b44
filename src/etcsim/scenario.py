"""Scenario files: JSON descriptions of a plant, policy, solver, and run.

A scenario JSON carries:

    {
      "plant":   {"a11": [[...]], "a12": ..., "a21": ..., "a22": ...,
                  "b1": ..., "b2": ..., "k_gain": ..., "epsilon": ...},
      "policy":  {"policy": "deadzone", "sigma": 0.3, "rho": 0.02},
      "solver":  {"horizon": 40.0, ...},            # SolverConfig fields
      "initial": {"x": [...], "y": [...]}           # explicit state, or
                 {"ball_radius": 1.0, "seed": 7},   # sampled |(x,y)| <= radius
      "lyapunov": {"p1": ..., "p2": ..., "alpha1_bar": ...,
                   "alpha2": ..., "l_bar": ...},    # optional: enables monitors
      "analysis": {"mode": "dwell", "t_star": ...}   # optional: dwell monitors
    }

Matrix entries are row-major nested lists. The sampled initial condition
draws (x, y) uniformly from the ball of the given radius with e = 0 and,
under the time-regularized policy, a zero clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import (
    AnalysisParameters,
    LyapunovCertificate,
    QuadraticLyapunovData,
    epsilon_star_search,
    sample_in_ball,
    select_analysis_parameters,
)
from .errors import ConfigurationError
from .hybrid import HybridState
from .plant import LinearPlantSpec
from .simulate import SolverConfig
from .triggers import TriggerPolicy

__all__ = ["Scenario", "load_scenario", "load_scenario_file",
           "build_initial_state", "sample_in_ball"]


@dataclass(frozen=True)
class Scenario:
    plant: LinearPlantSpec
    policy: TriggerPolicy
    solver: SolverConfig
    initial: dict
    cert: Optional[LyapunovCertificate] = None
    params: Optional[AnalysisParameters] = None

    def initial_state(self, seed: Optional[int] = None) -> HybridState:
        return build_initial_state(
            self.initial, self.plant, self.policy,
            self.solver.seed if seed is None else seed,
        )


def build_initial_state(initial: dict, plant: LinearPlantSpec,
                        policy: TriggerPolicy, seed: int) -> HybridState:
    tau = 0.0 if policy.requires_clock else None
    if "ball_radius" in initial:
        radius = float(initial["ball_radius"])
        if radius < 0.0:
            raise ConfigurationError("ball_radius must be >= 0")
        rng = np.random.default_rng(int(initial.get("seed", seed)))
        xy = sample_in_ball(rng, plant.n_x + plant.n_z, radius)
        return HybridState(x=xy[: plant.n_x], y=xy[plant.n_x:],
                           e=np.zeros(plant.n_x), tau=tau)
    if "x" not in initial or "y" not in initial:
        raise ConfigurationError(
            "initial condition needs either x and y or a ball_radius"
        )
    x = np.asarray(initial["x"], dtype=float)
    y = np.asarray(initial["y"], dtype=float)
    e = np.asarray(initial.get("e", np.zeros(plant.n_x)), dtype=float)
    if "tau" in initial and policy.requires_clock:
        tau = float(initial["tau"])
    return HybridState(x=x, y=y, e=e, tau=tau)


def load_scenario(cfg: dict) -> Scenario:
    for key in ("plant", "policy", "solver", "initial"):
        if key not in cfg:
            raise ConfigurationError(f"scenario is missing the {key!r} section")
    plant = LinearPlantSpec.from_dict(cfg["plant"])
    policy = TriggerPolicy.from_dict(cfg["policy"])
    solver = SolverConfig.from_dict(cfg["solver"])
    cert = None
    params = None
    if "lyapunov" in cfg:
        data = QuadraticLyapunovData.from_dict(cfg["lyapunov"])
        cert = LyapunovCertificate.derive(data)
    if "analysis" in cfg:
        if cert is None:
            raise ConfigurationError("analysis section needs a lyapunov section")
        ana = cfg["analysis"]
        mode = ana.get("mode", "dwell")
        sigma = float(ana.get("sigma", policy.sigma or 0.5))
        t_star = ana.get("t_star", policy.t_star)
        params = select_analysis_parameters(
            cert.constants, sigma,
            t_star=float(t_star) if t_star is not None else None,
            mode=mode,
        )
        if ana.get("epsilon_star", True):
            params = params.with_epsilon_star(epsilon_star_search(
                cert.constants, sigma, params.mu, mode, d=params.d_weight,
                dwell_ode=params.dwell_ode))
    return Scenario(plant=plant, policy=policy, solver=solver,
                    initial=dict(cfg["initial"]), cert=cert, params=params)


def load_scenario_file(path) -> Scenario:
    with open(path) as fh:
        return load_scenario(json.load(fh))
