"""Scenario files: JSON descriptions of a plant, policy, solver, and run.

A scenario holds the sections plant, policy, solver and initial, and may
add lyapunov (monitors and state-dependent policies) and analysis (the
R monitor's dwell parameters). hybrid.read_section reads each against its
declared keys: a dataclass's fields, or the few keys declared below and in
load_scenario. The initial section is either x, y and optional e and tau,
or ball_radius and an optional integer seed, which draws (x, y) uniformly
from that ball with e = 0. The README tables every key.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass
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
from .hybrid import HybridState, check_numbers, read_section
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


# An initial section is an explicit state or a sampled one, never both.
_STATE_KEYS = {"x": (np.ndarray, MISSING), "y": (np.ndarray, MISSING),
               "e": (np.ndarray, None)}
_BALL_KEYS = {"ball_radius": (float, MISSING), "seed": (int, None)}
_SECTIONS = {**dict.fromkeys(("plant", "policy", "solver", "initial"), (dict, MISSING)),
             "lyapunov": (dict, None), "analysis": (dict, None)}


def build_initial_state(initial: dict, plant: LinearPlantSpec,
                        policy: TriggerPolicy, seed: int) -> HybridState:
    ball = isinstance(initial, dict) and "ball_radius" in initial
    keys = _BALL_KEYS if ball else _STATE_KEYS
    if policy.requires_clock and not ball:  # only a clocked policy takes tau
        keys = {**keys, "tau": (float, 0.0)}
    values = read_section("initial", initial, keys)
    tau = float(values.get("tau", 0.0)) if policy.requires_clock else None
    if not ball:
        x = np.asarray(values["x"], dtype=float)
        e = np.zeros_like(x) if values["e"] is None else np.asarray(values["e"], dtype=float)
        return HybridState(x=x, y=np.asarray(values["y"], dtype=float), e=e, tau=tau)
    values["seed"] = seed if values["seed"] is None else values["seed"]
    check_numbers("initial", values, {"ball_radius": "[0, inf)", "seed": "[0, inf)"})
    xy = sample_in_ball(np.random.default_rng(int(values["seed"])), plant.n_x + plant.n_z,
                        float(values["ball_radius"]))
    return HybridState(x=xy[: plant.n_x], y=xy[plant.n_x:], e=np.zeros(plant.n_x), tau=tau)


def load_scenario(cfg: dict) -> Scenario:
    cfg = read_section("scenario", cfg, _SECTIONS)
    plant = LinearPlantSpec.from_dict(cfg["plant"])
    policy = TriggerPolicy.from_dict(cfg["policy"])
    solver = SolverConfig.from_dict(cfg["solver"])
    cert = params = None
    if cfg["lyapunov"] is not None:
        cert = LyapunovCertificate.derive(QuadraticLyapunovData.from_dict(cfg["lyapunov"]))
    if cfg["analysis"] is not None:
        if cert is None:
            raise ConfigurationError("analysis section needs a lyapunov section")
        ana = read_section("analysis", cfg["analysis"], {
            "mode": (str, "dwell"), "t_star": (float, policy.t_star),
            "sigma": (float, MISSING if policy.sigma is None else policy.sigma)})
        sigma, mode, t_star = float(ana["sigma"]), ana["mode"], ana["t_star"]
        if mode == "practical":
            if "t_star" in cfg["analysis"]:  # not the policy's default
                raise ConfigurationError(f"practical analysis does not take t_star, got {t_star}")
            t_star = None
        params = select_analysis_parameters(
            cert.constants, sigma,
            t_star=float(t_star) if t_star is not None else None, mode=mode)
        params = params.with_epsilon_star(epsilon_star_search(
            cert.constants, sigma, params.mu, mode, d=params.d_weight,
            dwell_ode=params.dwell_ode))
    return Scenario(plant=plant, policy=policy, solver=solver,
                    initial=dict(cfg["initial"]), cert=cert, params=params)


def load_scenario_file(path) -> Scenario:
    with open(path) as fh:
        return load_scenario(json.load(fh))
