"""Arc post-processing: inter-event times, decay envelopes, ball radii, sweeps.

These operations turn solution arcs into the quantities the stability
claims speak about: the minimum time between transmissions, the fitted
exponential decay envelope over hybrid time t + j, and the radius of the
residual ball reached under a dead-zone trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .certificates import AnalysisParameters, LyapunovCertificate
from .errors import ConfigurationError, EtcsimError, InsufficientDataError
from .hybrid import HybridArc, HybridState, Termination, check_numbers, read_section, record_dict
from .simulate import SolverConfig, integrate_arc
from .triggers import TriggerPolicy

__all__ = [
    "ArcSummary",
    "EnvelopeFit",
    "ComparisonResult",
    "SweepResult",
    "inter_event_times",
    "practical_ball",
    "fit_envelope",
    "certified_ball_radius",
    "transmission_comparison",
    "summarize_arc",
    "sweep",
]


def inter_event_times(arc: HybridArc, policy: Optional[TriggerPolicy] = None,
                      event_tol: float = 1e-9) -> np.ndarray:
    """Durations between consecutive transmissions.

    For a time-regularized arc the dwell bound is enforced: every duration
    must be at least t_star - 2 * event_tol, else the arc is inconsistent
    and an error is raised. Arcs with fewer than two jumps yield an empty
    array.
    """
    times = arc.jump_times()
    durations = np.diff(times) if times.size >= 2 else np.empty(0)
    if policy is not None and policy.requires_clock and durations.size:
        floor = policy.t_star - 2.0 * event_tol
        worst = float(durations.min())
        if worst < floor:
            raise EtcsimError(
                f"dwell violation: inter-event time {worst!r} below "
                f"t_star - 2*event_tol = {floor!r}"
            )
    return durations


def practical_ball(arc: HybridArc, trailing_fraction: float = 0.2) -> float:
    """Largest |(x, y, e)| over the trailing fraction of continuous time."""
    if not 0.0 < trailing_fraction <= 1.0:
        raise ConfigurationError("trailing_fraction must lie in (0, 1]")
    if arc.termination is not Termination.HORIZON:
        raise InsufficientDataError(
            f"practical ball needs a horizon-terminated arc, got {arc.termination}"
        )
    t = arc.t
    if t.size < 2:
        raise InsufficientDataError("arc too short for a trailing window")
    cutoff = t[-1] - trailing_fraction * (t[-1] - t[0])
    window = t >= cutoff
    if not np.any(window):
        raise InsufficientDataError("trailing window contains no samples")
    norms = np.linalg.norm(arc.states[window], axis=1)
    return float(norms.max())


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares exponential envelope |phi| <= beta * exp(-psi*(t+j)) + kappa."""

    beta_hat: float
    psi_hat: float
    kappa_hat: float
    violation_fraction: float
    n_used: int
    degenerate: bool = False


def fit_envelope(arc: HybridArc, mode: str = "practical") -> EnvelopeFit:
    """Fit ln(|phi| - kappa) against hybrid time t + j.

    mode "practical" anchors kappa at the trailing-window radius; mode
    "gas" fits a pure exponential (kappa = 0). Samples at or below kappa
    are excluded from the fit; if none remain the fit is degenerate (the
    arc lives inside the ball) and flagged as such. The fraction of all
    samples exceeding the fitted envelope is reported alongside.
    """
    if len(arc) < 10:
        raise InsufficientDataError("envelope fit needs at least 10 samples")
    if mode == "practical":
        kappa = practical_ball(arc)
    elif mode == "gas":
        kappa = 0.0
    else:
        raise ConfigurationError(f"unknown envelope mode {mode!r}")
    norms = np.linalg.norm(arc.states, axis=1)
    tj = arc.hybrid_total_time
    mask = norms > kappa
    if int(mask.sum()) < 2 or np.ptp(tj[mask]) == 0.0:
        return EnvelopeFit(beta_hat=math.nan, psi_hat=math.nan,
                           kappa_hat=kappa, violation_fraction=0.0,
                           n_used=int(mask.sum()), degenerate=True)
    logs = np.log(norms[mask] - kappa)
    slope, intercept = np.polyfit(tj[mask], logs, 1)
    beta_hat = float(math.exp(intercept))
    psi_hat = float(-slope)
    envelope = beta_hat * np.exp(-psi_hat * tj) + kappa
    violations = float(np.mean(norms > envelope * (1.0 + 1e-12)))
    return EnvelopeFit(beta_hat=beta_hat, psi_hat=psi_hat, kappa_hat=kappa,
                       violation_fraction=violations, n_used=int(mask.sum()))


def certified_ball_radius(cert: LyapunovCertificate,
                          params: AnalysisParameters, rho: float,
                          epsilon: float) -> float:
    """State-norm radius of the certified residual set for the dead-zone rule.

    Converts the composite-Lyapunov level theta * rho into a bound on
    |(x, y, e)|: the x and y extents come from the quadratic sandwich
    bounds (the fast part is weighted by sqrt(eps)), and the error extent
    from the trigger threshold holding on the flow set. rho and epsilon
    are positive numbers, else a ConfigurationError naming the argument.
    """
    check_numbers("certified_ball_radius", {"rho": rho, "epsilon": epsilon},
                  dict.fromkeys(("rho", "epsilon"), "(0, inf)"))
    if params.theta is None:
        raise ConfigurationError("certified radius needs dead-zone parameters")
    level = params.theta * rho
    lmin1 = float(np.min(np.linalg.eigvalsh(cert.data.p1)))
    lmin2 = float(np.min(np.linalg.eigvalsh(cert.data.p2)))
    r_x_sq = level / lmin1
    r_y_sq = level / (math.sqrt(epsilon) * lmin2)
    e_level = max(params.sigma * cert.alpha1 * level, rho)
    r_e = cert.gamma1.inverse(e_level)
    return math.sqrt(r_x_sq + r_y_sq + r_e**2)


@dataclass(frozen=True)
class ComparisonResult:
    policy_a: str
    policy_b: str
    jumps_a: int
    jumps_b: int
    final_norm_a: float
    final_norm_b: float


def transmission_comparison(plant, x0, y0, horizon: float,
                            policy_a: TriggerPolicy, policy_b: TriggerPolicy,
                            cfg: SolverConfig,
                            cert: Optional[LyapunovCertificate] = None,
                            ) -> tuple[ComparisonResult, HybridArc, HybridArc]:
    """Run two policies from the same initial plant state, side by side."""
    cfg = replace(cfg, horizon=horizon)
    arcs = []
    for policy in (policy_a, policy_b):
        q0 = HybridState(
            x=np.asarray(x0, dtype=float),
            y=np.asarray(y0, dtype=float),
            e=np.zeros(np.asarray(x0).size),
            tau=0.0 if policy.requires_clock else None,
        )
        arcs.append(integrate_arc(plant, policy, q0, cfg, cert=cert))
    result = ComparisonResult(
        policy_a=policy_a.kind.value, policy_b=policy_b.kind.value,
        jumps_a=arcs[0].jump_count, jumps_b=arcs[1].jump_count,
        final_norm_a=arcs[0].final_state().xy_norm(),
        final_norm_b=arcs[1].final_state().xy_norm(),
    )
    return result, arcs[0], arcs[1]


@dataclass(frozen=True)
class ArcSummary:
    """Scalar summary of one arc."""

    jump_count: int
    min_iet: float
    mean_iet: float
    final_xy_norm: float
    ball_radius_estimate: float
    termination: str
    envelope: Optional[EnvelopeFit] = None

    def to_dict(self) -> dict:
        return record_dict(self)


def summarize_arc(arc: HybridArc, policy: Optional[TriggerPolicy] = None,
                  event_tol: float = 1e-9,
                  with_envelope: bool = True) -> ArcSummary:
    durations = inter_event_times(arc, policy, event_tol)
    min_iet = float(durations.min()) if durations.size else math.inf
    mean_iet = float(durations.mean()) if durations.size else math.inf
    try:
        radius = practical_ball(arc)
    except InsufficientDataError:
        radius = math.nan
    envelope = None
    if with_envelope and len(arc) >= 10:
        try:
            envelope = fit_envelope(arc, "practical" if math.isfinite(radius)
                                    else "gas")
        except InsufficientDataError:
            envelope = None
    return ArcSummary(
        jump_count=arc.jump_count,
        min_iet=min_iet,
        mean_iet=mean_iet,
        final_xy_norm=arc.final_state().xy_norm(),
        ball_radius_estimate=radius,
        termination=(arc.termination.value if arc.termination else "unset"),
        envelope=envelope,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

_POLICY_AXES = tuple(f.name for f in fields(TriggerPolicy) if f.name != "kind")
_SWEEP_AXES = {**{name: (list[float], None) for name in ("epsilon", *_POLICY_AXES)},
               "seed": (list[int], None)}


@dataclass(frozen=True)
class SweepCell:
    point: dict
    summary: Optional[ArcSummary] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    axes: dict
    cells: tuple[SweepCell, ...]

    def to_dict(self) -> dict:
        return record_dict(self)

    def to_csv(self, path) -> None:
        axis_names = list(self.axes)
        columns = ["jump_count", "min_iet", "mean_iet", "final_xy_norm",
                   "ball_radius_estimate", "termination"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(axis_names + columns + ["error"]) + "\n")
            for cell in self.cells:
                row = [repr(cell.point[a]) for a in axis_names]
                if cell.summary is not None:
                    s = cell.summary
                    row += [str(s.jump_count), f"{s.min_iet:.17g}",
                            f"{s.mean_iet:.17g}", f"{s.final_xy_norm:.17g}",
                            f"{s.ball_radius_estimate:.17g}", s.termination]
                else:
                    row += [""] * len(columns)
                row.append(cell.error or "")
                fh.write(",".join(row) + "\n")


def sweep(scenario, grid: dict) -> SweepResult:
    """Run one arc per grid cell; per-cell failures are recorded, not fatal.

    grid maps axis names (epsilon, rho, sigma, t_star, period, seed) to
    value lists; the cells are the cartesian product in the given axis
    order. Cell seeds are deterministic: the scenario seed plus the cell
    index unless a seed axis is given explicitly.
    """
    from itertools import product

    from .scenario import Scenario

    if not isinstance(scenario, Scenario):
        raise ConfigurationError("sweep needs a loaded Scenario")
    grid = read_section("sweep grid", grid, _SWEEP_AXES)
    axes = {name: list(values) for name, values in grid.items() if values}
    if not axes:
        raise ConfigurationError("sweep grid is empty")
    names = list(axes)
    cells = []
    for index, combo in enumerate(product(*(axes[n] for n in names))):
        point = dict(zip(names, combo))
        try:
            cells.append(_run_cell(scenario, point, index))
        except EtcsimError as exc:
            cells.append(SweepCell(point=point, error=f"{type(exc).__name__}: {exc}"))
    return SweepResult(axes=axes, cells=tuple(cells))


def _run_cell(scenario, point: dict, index: int) -> SweepCell:
    from .scenario import build_initial_state

    plant = scenario.plant
    if "epsilon" in point:
        plant = plant.with_epsilon(float(point["epsilon"]))
    policy = replace(scenario.policy, **{name: float(point[name])
                                         for name in _POLICY_AXES if name in point})
    seed = int(point.get("seed", scenario.solver.seed + index))
    solver = replace(scenario.solver, seed=seed)
    q0 = build_initial_state(scenario.initial, plant, policy, seed)
    arc = integrate_arc(plant, policy, q0, solver, cert=scenario.cert,
                        params=scenario.params)
    summary = summarize_arc(arc, policy, solver.event_tol)
    return SweepCell(point=point, summary=summary)
