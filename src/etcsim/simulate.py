"""Hybrid closed-loop integration: adaptive flow, event localization, jumps.

The integrator is an explicit embedded Runge-Kutta 5(4) pair with dense
output. Flow proceeds while the policy's flow condition holds; the signed
event margin is bracketed on each accepted step (endpoints plus midpoint)
and bisected on the dense output to the configured time tolerance. Jumps
are eager: whenever the state sits in the jump set, the transmission fires
immediately (post-jump states are strictly interior for the implementable
policies, so this never masks a real event; for the naive policy it turns
true Zeno into guard detection).

The dwell clock is not integrated: its rate is one and it resets at jumps,
so it is carried exactly as time since the last transmission.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .certificates import AnalysisParameters, LyapunovCertificate
from .errors import ConfigurationError, DivergenceError
from .hybrid import (
    HybridArc,
    HybridState,
    HybridSystemInterface,
    MonitorValues,
    Termination,
)
from .plant import (
    LinearPlantSpec,
    PlantSpec,
    apply_jump,
    closed_loop_flow,
    closed_loop_flow_vector,
)
from .triggers import (
    PolicyKind,
    TriggerPolicy,
    policy_margin,
)

__all__ = [
    "SolverConfig",
    "integrate_arc",
    "locate_event",
    "monitor_v",
    "monitor_r",
    "build_hybrid_system",
    "DIVERGENCE_NORM",
]

DIVERGENCE_NORM = 1e12

# Dormand-Prince 5(4) tableau with its quartic dense-output matrix.
RK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
])
RK_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Fifth-minus-fourth error weights over all seven stages (last is FSAL).
RK_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
RK_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
RK_A.flags.writeable = False
RK_B.flags.writeable = False
RK_E.flags.writeable = False
RK_P.flags.writeable = False

_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """Integrator and run configuration.

    The same fields drive the one reference integrator for every plant.
    max_step_factor caps the step at factor * epsilon so the fast layer is
    resolved; scenarios with extremely small certified epsilon may relax it
    and rely on the embedded error control instead. fast_floor, when
    positive, snaps nonzero fast-state components below it to zero at
    every landed point (event point or step end): used when the boundary
    layer decays below the absolute tolerance, where the error controller
    would otherwise keep the step size pinned to the fast scale forever
    (the committed error is below abs_tol by construction). store_stride
    thins stored flow samples; both sides of every jump and the final
    state are always stored. The first step is min(max_step, epsilon,
    horizon).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step_factor: float = 0.5
    event_tol: float = 1e-9
    horizon: float = 10.0
    zeno_max_jumps: int = 1000
    zeno_window: float = 1e-6
    seed: int = 0
    store_stride: int = 1
    fast_floor: float = 0.0

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.event_tol) <= 0.0:
            raise ConfigurationError("rel_tol, abs_tol and event_tol must be > 0")
        if self.horizon <= 0.0:
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon}")
        if self.zeno_max_jumps < 2:
            raise ConfigurationError("zeno_max_jumps must be >= 2")
        if self.zeno_window <= 0.0:
            raise ConfigurationError("zeno_window must be > 0")
        if self.store_stride < 1:
            raise ConfigurationError("store_stride must be >= 1")
        if self.max_step_factor <= 0.0:
            raise ConfigurationError("max_step_factor must be > 0")

    @classmethod
    def from_dict(cls, cfg: dict) -> "SolverConfig":
        unknown = set(cfg) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown solver fields: {sorted(unknown)}")
        return cls(**cfg)


def monitor_v(q: HybridState, cert: LyapunovCertificate, epsilon: float) -> float:
    """Practical-stability composite: Vx(x) + sqrt(eps) * Vy(y)."""
    return _monitor_v(q.x, q.y, cert, epsilon)


def _monitor_v(x, y, cert: LyapunovCertificate, epsilon: float) -> float:
    return cert.v_x(x) + math.sqrt(epsilon) * cert.v_y(y)


def monitor_r(q: HybridState, cert: LyapunovCertificate,
              params: AnalysisParameters) -> float:
    """Dwell-clock composite: Vx + d*Vy + max(0, g1 * w(tau) * |e|^2).

    Values only: the piecewise max needs no derivative bookkeeping. The
    comparison value w(tau) comes from the stored trajectory, frozen at
    its floor beyond the stored range.
    """
    return _monitor_r(q.x, q.y, q.e, q.tau, cert, params)


def _monitor_r(x, y, e, tau, cert: LyapunovCertificate, params) -> float:
    if tau is None or params.dwell_ode is None or params.d_weight is None:
        return math.nan
    w = params.dwell_ode.evaluate(tau)
    e_sq = float(np.dot(e, e))
    return (cert.v_x(x) + params.d_weight * cert.v_y(y)
            + max(0.0, cert.gamma1.coeff * w * e_sq))


# ---------------------------------------------------------------------------
# Policy margins on raw state vectors (arithmetic lives in triggers.py)
# ---------------------------------------------------------------------------


class _PolicyEval:
    """One (policy, certificate, dimensions) binding of the trigger margin."""

    def __init__(self, policy: TriggerPolicy, cert: Optional[LyapunovCertificate],
                 n_x: int, n_y: int):
        self.policy = policy
        self.cert = cert
        self.n_x = n_x
        self.n_y = n_y
        if policy.kind is not PolicyKind.PERIODIC and cert is None:
            raise ConfigurationError(
                f"{policy.kind.value} policy needs a Lyapunov certificate"
            )
        if (policy.kind is PolicyKind.TIME_REGULARIZED
                and not cert.gamma1.is_quadratic):
            raise ConfigurationError("time_regularized needs a quadratic gamma1")

    def margin(self, s: np.ndarray, tau: float) -> float:
        """Signed event function; >= 0 on the jump set."""
        return policy_margin(self.policy, self.cert, s[: self.n_x],
                             s[self.n_x + self.n_y:], tau)

    def jump_reason(self, m: float, tau: float) -> str:
        """Reason for a jump at margin m >= 0 (then tau >= t_star if dwell)."""
        kind = self.policy.kind
        if kind is PolicyKind.PERIODIC:
            return "periodic"
        if (kind is PolicyKind.TIME_REGULARIZED and m > 0.0
                and tau <= self.policy.t_star):
            return "dwell-clock"
        return "threshold"

    def clock_ceiling(self) -> Optional[float]:
        """Clock value the flow must not step across without a check."""
        if self.policy.kind is PolicyKind.TIME_REGULARIZED:
            return self.policy.t_star
        if self.policy.kind is PolicyKind.PERIODIC:
            return self.policy.period
        return None


def locate_event(margin_at: Callable[[float], float], t_lo: float, t_hi: float,
                 event_tol: float) -> Optional[float]:
    """Bisect a sign change of the margin to within event_tol in time.

    Requires margin_at(t_lo) < 0 <= margin_at(t_hi); returns the accepted
    crossing time (the nonnegative side), or None when the bracket carries
    no sign change.
    """
    m_lo = margin_at(t_lo)
    m_hi = margin_at(t_hi)
    if not (m_lo < 0.0 <= m_hi):
        return None
    while t_hi - t_lo > event_tol:
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            break
        if margin_at(mid) >= 0.0:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def build_hybrid_system(spec: PlantSpec, policy: TriggerPolicy,
                        cert: Optional[LyapunovCertificate] = None,
                        ) -> HybridSystemInterface:
    """Assemble the flow/jump interface for a state-dependent policy."""
    if policy.kind is PolicyKind.PERIODIC:
        raise ConfigurationError(
            "the periodic baseline is clock-driven, not state-dependent; "
            "run it through integrate_arc directly"
        )
    ev = _PolicyEval(policy, cert, spec.n_x, spec.n_z)

    def event_function(q: HybridState) -> float:
        tau = q.tau if q.tau is not None else 0.0
        return ev.margin(q.as_vector(), tau)

    return HybridSystemInterface(
        flow_map=lambda q: closed_loop_flow(q, spec),
        jump_map=lambda q: apply_jump(q, spec),
        in_flow_set=lambda q: not (event_function(q) > 0.0),
        in_jump_set=lambda q: event_function(q) >= 0.0,
        event_function=event_function,
    )


# ---------------------------------------------------------------------------
# Reference integrator (every plant, pure python)
# ---------------------------------------------------------------------------


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


class _DenseSegment:
    """Quartic dense output of one accepted step."""

    def __init__(self, t0: float, h: float, y0: np.ndarray, k_stages: np.ndarray):
        self.t0 = t0
        self.h = h
        self.y0 = y0
        self.q = k_stages.T @ RK_P

    def __call__(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y0 + self.h * (self.q @ p)


def _integrate_python(plant, policy: TriggerPolicy, q0: HybridState,
                      cfg: SolverConfig, cert: Optional[LyapunovCertificate],
                      params: Optional[AnalysisParameters]) -> HybridArc:
    """Reference integration of plant; a LinearPlantSpec flows through
    as_plant_spec(), and every jump is apply_jump(q_pre, plant).

    Each accepted step lands on one point: the localized event, or else the
    step end. Both go through the same block: fast_floor snaps the point,
    k1 is recomputed unless it is the unsnapped step end (FSAL), and the
    margin m is evaluated once. m decides the eager jump, starts the next
    event bracket and is stored. A landed point is stored if it is an
    event, the stride is reached, it is on the horizon or a clock boundary,
    m >= 0, or the step end diverged. Flow rows go straight to
    arc._append_row (no HybridState); the arc's (t, j) ordering is checked
    once, at the end.
    """
    spec = plant.as_plant_spec() if isinstance(plant, LinearPlantSpec) else plant
    n_x, n_y = spec.n_x, spec.n_z
    has_clock = policy.requires_clock
    ev = _PolicyEval(policy, cert, n_x, n_y)
    arc = HybridArc(n_x, n_y, has_clock)
    eps = spec.epsilon
    max_step = cfg.max_step_factor * eps

    def rhs(s: np.ndarray) -> np.ndarray:
        return closed_loop_flow_vector(s[:n_x], s[n_x:n_x + n_y],
                                       s[n_x + n_y:], spec)

    def monitors(s_now: np.ndarray, tau_now: Optional[float], m: float) -> tuple:
        x, y, e = s_now[:n_x], s_now[n_x:n_x + n_y], s_now[n_x + n_y:]
        v = _monitor_v(x, y, cert, eps) if cert is not None else math.nan
        r = (_monitor_r(x, y, e, tau_now, cert, params)
             if (cert is not None and params is not None) else math.nan)
        return v, r, m

    def store(t_now: float, s_now: np.ndarray, tau_now: float, m: float) -> None:
        tau_row = tau_now if has_clock else None
        arc._append_row(t_now, arc.jump_count, s_now, tau_row,
                        monitors(s_now, tau_row, m), is_jump=False)

    def record_jump(s_pre: np.ndarray, tau_pre: float, m_pre: float) -> tuple:
        q_pre = HybridState.from_vector(s_pre, n_x, n_y,
                                        tau=tau_pre if has_clock else None)
        q_post = apply_jump(q_pre, plant)
        s_post = q_post.as_vector()
        m_post = ev.margin(s_post, 0.0)
        arc.append_jump(q_pre, q_post, ev.jump_reason(m_pre, tau_pre),
                        MonitorValues(*monitors(s_post, q_post.tau, m_post)))
        return s_post, m_post

    def diverged(s_now: np.ndarray) -> bool:
        sq_norm = float(np.dot(s_now, s_now))
        return not math.isfinite(sq_norm) or sq_norm > DIVERGENCE_NORM**2

    s = q0.as_vector()
    tau = q0.tau if q0.tau is not None else 0.0
    t = 0.0
    m = ev.margin(s, tau)
    steps_since_store = 0
    jump_ring: deque[float] = deque(maxlen=cfg.zeno_max_jumps + 1)
    store(t, s, tau, m)

    termination: Optional[Termination] = None
    h = min(max_step, eps, cfg.horizon)
    k1 = rhs(s)
    ceiling = ev.clock_ceiling()

    while termination is None:
        # Eager jumps: fire while the state sits in the jump set; the Zeno
        # guard stops after zeno_max_jumps + 1 jumps within zeno_window.
        jumped = False
        while m >= 0.0:
            jump_ring.append(t)
            s, m = record_jump(s, tau, m)
            tau = 0.0
            jumped = True
            if (len(jump_ring) == jump_ring.maxlen
                    and t - jump_ring[0] <= cfg.zeno_window):
                termination = Termination.ZENO_GUARD
                break
        if termination is not None:
            break
        if jumped:
            h = min(h, eps)  # the jump re-excites the fast layer
            k1 = rhs(s)
        if t >= cfg.horizon:
            termination = Termination.HORIZON
            break
        if diverged(s):
            termination = Termination.DIVERGENCE
            break

        # One accepted step, clamped to the horizon and clock boundaries.
        while True:
            h = min(h, max_step, cfg.horizon - t)
            clamped_clock = False
            if ceiling is not None and tau < ceiling and tau + h >= ceiling:
                h = ceiling - tau
                clamped_clock = True
            if h <= 16.0 * np.finfo(float).eps * max(1.0, abs(t)):
                raise DivergenceError(f"step size underflow at t={t!r}")
            stages = np.empty((7, s.size))
            stages[0] = k1
            failed = False
            for i in range(1, 6):
                si = s + h * (RK_A[i, :i] @ stages[:i])
                if not np.all(np.isfinite(si)):
                    failed = True
                    break
                stages[i] = rhs(si)
            if not failed:
                s1 = s + h * (RK_B @ stages[:6])
                failed = not np.all(np.isfinite(s1))
            if failed:
                h *= _MIN_FACTOR
                continue
            stages[6] = rhs(s1)
            err = h * (RK_E @ stages)
            norm = _error_norm(err, s, s1, cfg.rel_tol, cfg.abs_tol)
            if norm <= 1.0:
                factor = _MAX_FACTOR if norm == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
                break
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)

        t1 = min(t + h, cfg.horizon)
        dense = _DenseSegment(t, h, s, stages)

        # Event bracketing on the accepted step: endpoints plus midpoint.
        def margin_at(tq: float) -> float:
            return ev.margin(dense(tq), tau + (tq - t))

        t_event = None
        if m < 0.0:
            for t_probe in (t + 0.5 * h, t1):
                if margin_at(t_probe) >= 0.0:
                    t_event = locate_event(margin_at, t, t_probe, cfg.event_tol)
                    break

        # Land on the event point or the step end. A localized event at the
        # end of a clock-clamped step IS the boundary; its clock is assigned
        # exactly so the jump test cannot miss it by one rounding.
        if t_event is None:
            tau = ceiling if clamped_clock else tau + h
            s, t, k1 = s1, t1, stages[6]
            h *= factor
        else:
            at_ceiling = clamped_clock and t_event == t1
            tau = ceiling if at_ceiling else tau + (t_event - t)
            s, t, k1 = dense(t_event), t_event, None
        if cfg.fast_floor > 0.0:  # s is a fresh array: snap it in place
            y_part = s[n_x:n_x + n_y]
            small = np.abs(y_part) < cfg.fast_floor
            if np.any(small & (y_part != 0.0)):
                y_part[small] = 0.0
                k1 = None
        if k1 is None:
            k1 = rhs(s)
        m = ev.margin(s, tau)
        blown_up = t_event is None and diverged(s)
        steps_since_store += 1
        if (t_event is not None or steps_since_store >= cfg.store_stride
                or blown_up or t >= cfg.horizon or clamped_clock or m >= 0.0):
            store(t, s, tau, m)
            steps_since_store = 0
        if blown_up:
            termination = Termination.DIVERGENCE

    arc.check_ordering()
    arc.set_termination(termination)
    return arc


def integrate_arc(plant, policy: TriggerPolicy, q0: HybridState,
                  cfg: SolverConfig,
                  cert: Optional[LyapunovCertificate] = None,
                  params: Optional[AnalysisParameters] = None) -> HybridArc:
    """Integrate the hybrid closed loop from q0 under the given policy.

    Every plant runs the reference integrator below, and every jump goes
    through apply_jump: a LinearPlantSpec jumps with its closed-form map
    y+ = y + (Hu K) e, a PlantSpec with the generic map, so passing
    plant.as_plant_spec() runs a linear plant with the generic jump. Each
    path is bitwise reproducible. If q0 lies in the jump set, the first
    action is a jump.
    """
    if policy.requires_clock != q0.has_clock:
        raise ConfigurationError(
            "time_regularized needs the clock in the initial state; "
            "other policies forbid it"
        )
    if not isinstance(plant, (LinearPlantSpec, PlantSpec)):
        raise ConfigurationError(f"unsupported plant type {type(plant)!r}")
    return _integrate_python(plant, policy, q0, cfg, cert, params)
