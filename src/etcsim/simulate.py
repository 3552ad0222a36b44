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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .certificates import AnalysisParameters, LyapunovCertificate
from .errors import ConfigurationError, DimensionError, DivergenceError
from .hybrid import (
    HybridArc,
    HybridState,
    HybridSystemInterface,
    MonitorValues,
    Termination,
    check_numbers,
    field_keys,
    read_section,
)
from .plant import (
    LinearPlantSpec,
    PlantSpec,
    apply_jump,
    closed_loop_flow,
    closed_loop_flow_vector,
)
from .triggers import PolicyKind, TriggerPolicy

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
_RK_A_ROWS = tuple((i, RK_A[i, :i]) for i in range(1, 6))

_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """Integrator and run configuration.

    The same fields drive the one reference integrator for every plant.
    max_step_factor caps the step at factor * epsilon so the fast layer is
    resolved; scenarios with extremely small certified epsilon may relax it
    and rely on the embedded error control instead. fast_floor >= 0 snaps
    nonzero fast-state components below it to zero at every landed point
    (event point or step end), and 0, the default, turns the snap off: used
    when the boundary layer decays below the absolute tolerance, where the
    error controller would otherwise keep the step size pinned to the fast
    scale forever (the committed error is below abs_tol by construction).
    store_stride thins stored flow samples; both sides of every jump and
    the final state are always stored. The first step is min(max_step,
    epsilon, horizon). _BOUNDS declares each numeric field's range.
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

    _BOUNDS = {**dict.fromkeys(("rel_tol", "abs_tol", "max_step_factor", "event_tol", "horizon",
                                "zeno_window"), "(0, inf)"), "zeno_max_jumps": "[2, inf)",
               "seed": "[0, inf)", "store_stride": "[1, inf)", "fast_floor": "[0, inf)"}

    def __post_init__(self):
        check_numbers("SolverConfig", self, self._BOUNDS)

    @classmethod
    def from_dict(cls, cfg: dict) -> "SolverConfig":
        return cls(**read_section("solver", cfg, field_keys(cls)))


def monitor_v(q: HybridState, cert: LyapunovCertificate, epsilon: float) -> float:
    """Practical-stability composite: Vx(x) + sqrt(eps) * Vy(y)."""
    return _monitor_v(q.x, q.y, cert, epsilon)


def _monitor_v(x, y, cert: LyapunovCertificate, epsilon: float) -> float:
    return cert.v_x(x) + math.sqrt(epsilon) * cert.v_y(y)


def monitor_r(q: HybridState, cert: LyapunovCertificate,
              params: AnalysisParameters) -> float:
    """Dwell-clock composite: Vx + d*Vy + max(0, g1 * w(tau) * |e|^2).

    Values only: the piecewise max needs no derivative bookkeeping. The
    comparison value w(tau) is the closed-form solution params.dwell_ode,
    held at its floor vartheta from its transit time on.
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
    """The integrator's binding of TriggerPolicy.margin to one certificate
    and to the (x, y, e) slices of its stacked state vectors."""

    def __init__(self, policy: TriggerPolicy, cert: Optional[LyapunovCertificate],
                 n_x: int, n_y: int):
        policy.check_certificate(cert)
        self.policy = policy
        self.cert = cert
        self.n_x = n_x
        self.n_y = n_y

    def margin(self, s: np.ndarray, tau: float) -> float:
        """Signed event function; >= 0 on the jump set."""
        return self.policy.margin(self.cert, s[: self.n_x],
                                  s[self.n_x + self.n_y:], tau)


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
    policy.check_certificate(cert)

    def event_function(q: HybridState) -> float:
        return policy.margin(cert, q.x, q.e, q.tau if q.tau is not None else 0.0)

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
    """RMS of err scaled by atol + rtol * max(|y0|, |y1|)."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    r = err / scale
    return math.sqrt(float(np.add.reduce(r * r)) / r.size)


class _DenseSegment:
    """Quartic dense output of one accepted step: y0 + h * (q @ theta powers)."""

    def __init__(self, t0: float, h: float, y0: np.ndarray, q: np.ndarray):
        self.t0 = t0
        self.h = h
        self.y0 = y0
        self.q = q

    def __call__(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y0 + self.h * (self.q @ p)


_STEP_ULPS = 16.0 * np.finfo(float).eps


def _step_floor(t: float) -> float:
    """Smallest step the integrator takes at time t: 16 ulps of max(1, |t|)."""
    return _STEP_ULPS * max(1.0, abs(t))


def _rk_stages(rhs: Callable[[np.ndarray], np.ndarray], s: np.ndarray,
               k1: np.ndarray, h: float) -> Optional[tuple]:
    """The Dormand-Prince stage loop of one trial step from s: (s1, stages),
    stages holding all seven (the last is FSAL), or None when a stage point
    or s1 is not finite. s is any flat vector: a state, or the coefficients
    over the powers of a linear flow from which _LINEAR_TABLE is built."""
    stages = np.empty((7, s.size))
    stages[0] = k1
    for i, a_row in _RK_A_ROWS:
        si = s + h * (a_row @ stages[:i])
        if not np.isfinite(si).all():
            return None
        stages[i] = rhs(si)
    s1 = s + h * (RK_B @ stages[:6])
    if not np.isfinite(s1).all():
        return None
    stages[6] = rhs(s1)
    return s1, stages


def _linear_table() -> np.ndarray:
    """The Dormand-Prince step of s' = F s as a fixed polynomial in hF:
    column m holds the coefficient of h^m F^m s in the step end s1 (row 0)
    and the error estimate (row 1), and of h^m F^(m+1) s in the dense
    column q[:, c] (row 2 + c). It is _rk_stages at h = 1 on coefficients
    over the powers of F, on which F acts as the shift; each stage is F
    times a vector, so rolling its coefficients down by one gives that
    vector. The FSAL stage F s1 makes the degree 7."""
    def shift(c: np.ndarray) -> np.ndarray:  # F v for v = sum_m c[m] F^m s
        return np.concatenate(((0.0,), c[:-1]))

    one = np.eye(8)[0]
    s1, stages = _rk_stages(shift, one, shift(one), 1.0)
    return np.vstack([s1, RK_E @ stages, RK_P.T @ np.roll(stages, -1, axis=1)])


_LINEAR_TABLE = _linear_table()
_LINEAR_TABLE.flags.writeable = False


class _StagedStep:
    """Trial steps of a PlantSpec: the stage loop on s every step, with
    every stage through closed_loop_flow_vector."""

    def __init__(self, plant: PlantSpec):
        self.plant = plant
        self.n_x = plant.n_x
        self.n_y = plant.n_z

    def first_stage(self, s: np.ndarray) -> np.ndarray:
        n_x, n_y = self.n_x, self.n_y
        return closed_loop_flow_vector(s[:n_x], s[n_x:n_x + n_y], s[n_x + n_y:],
                                       self.plant)

    def __call__(self, s: np.ndarray, k1: np.ndarray, h: float) -> Optional[tuple]:
        """(s1, error estimate, dense coefficients q, FSAL stage), or None
        when the step is not finite."""
        staged = _rk_stages(self.first_stage, s, k1, h)
        if staged is None:
            return None
        s1, stages = staged
        return s1, h * (RK_E @ stages), stages.T @ RK_P, stages[6]


class _LinearStep:
    """Trial steps of a LinearPlantSpec: the polynomial _LINEAR_TABLE in hF.

    F = flow_matrix() is scaled exactly by the power of two 2^-k that
    brings its infinity norm to at most one, so no power of G = 2^-k F
    overflows at any epsilon. With u = h 2^k, h^m F^m = u^m G^m and
    h^m F^(m+1) = u^m F G^m: blocks stacks the (6n x n) block of u^m,
    m = 0..7, and a step is one product blocks @ s and one weighted sum
    over the powers of u, at the same cost for every h. No first stage.
    """

    def __init__(self, flow: np.ndarray):
        k = max(0, math.frexp(float(np.abs(flow).sum(axis=1).max()))[1])
        g = np.ldexp(flow, -k)
        powers = [np.eye(flow.shape[0])]
        for _ in range(7):
            powers.append(g @ powers[-1])
        self.blocks = np.vstack([np.vstack([np.kron(_LINEAR_TABLE[:2, m, None], p),
                                            np.kron(_LINEAR_TABLE[2:, m, None], flow @ p)])
                                 for m, p in enumerate(powers)])
        self.unscale = math.ldexp(1.0, k)

    def first_stage(self, s: np.ndarray) -> None:
        return None

    def __call__(self, s: np.ndarray, k1: None, h: float) -> Optional[tuple]:
        """As _StagedStep.__call__, with no FSAL stage. None also when a
        power of u overflows, which rejects the step without a warning."""
        u = h * self.unscale
        u2 = u * u
        u4 = u2 * u2
        weights = (1.0, u, u2, u2 * u, u4, u4 * u, u4 * u2, u4 * u2 * u)
        if not math.isfinite(weights[7]):  # the largest power once u >= 1
            return None
        v = np.array(weights) @ (self.blocks @ s).reshape(8, -1)
        if not np.isfinite(v).all():
            return None
        n = s.size
        return v[:n], v[n:2 * n], v[2 * n:].reshape(4, n).T, None


def _integrate_python(plant, policy: TriggerPolicy, q0: HybridState,
                      cfg: SolverConfig, cert: Optional[LyapunovCertificate],
                      params: Optional[AnalysisParameters]) -> HybridArc:
    """Reference integration of plant. A LinearPlantSpec takes each trial
    step as the fixed polynomial _LINEAR_TABLE in hF (_LinearStep); a
    PlantSpec runs the stage loop through closed_loop_flow_vector
    (_StagedStep). Every jump is apply_jump(q_pre, plant).

    Each accepted step lands on one point: the localized event, or else the
    step end; a clock-clamped step, whose clocked margin is negative before
    the boundary, is not bracketed. Both go through the same block:
    fast_floor snaps the point, k1 is recomputed unless it is the unsnapped
    step end (FSAL), and the margin m is evaluated once: at an unsnapped
    step end it is the bracket's end probe. m decides the eager jump, starts the next event
    bracket and is stored. A landed point is stored if it is an event, the
    stride is reached, it is on the horizon or a clock boundary,
    m >= 0, or the step end diverged. The horizon counts as reached once
    it is closer than the step floor. Flow rows go straight to
    arc._append_row (no HybridState); the arc's (t, j) ordering is checked
    once, at the end.
    """
    n_x, n_y = plant.n_x, plant.n_z
    has_clock = policy.requires_clock
    ev = _PolicyEval(policy, cert, n_x, n_y)
    arc = HybridArc(n_x, n_y, has_clock)
    eps = plant.epsilon
    max_step = cfg.max_step_factor * eps

    step = (_LinearStep(plant.flow_matrix()) if isinstance(plant, LinearPlantSpec)
            else _StagedStep(plant))

    def at_horizon(t_now: float) -> bool:
        return cfg.horizon - t_now <= _step_floor(t_now)

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
        arc.append_jump(q_pre, q_post, policy.jump_reason(m_pre, tau_pre),
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
    k1 = step.first_stage(s)
    ceiling = policy.clock_ceiling

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
            k1 = step.first_stage(s)
        if at_horizon(t):
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
            if h <= _step_floor(t):
                raise DivergenceError(f"step size underflow at t={t!r}")
            trial = step(s, k1, h)
            if trial is None:
                h *= _MIN_FACTOR
                continue
            s1, err, q, k_end = trial
            norm = _error_norm(err, s, s1, cfg.rel_tol, cfg.abs_tol)
            if norm <= 1.0:
                factor = _MAX_FACTOR if norm == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
                break
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)

        t1 = min(t + h, cfg.horizon)
        tau1 = ceiling if clamped_clock else tau + h
        dense = _DenseSegment(t, h, s, q)

        # Event bracketing on the accepted step: start, midpoint and end.
        # The end probe is the step end s1 with its landed clock tau1.
        def margin_at(tq: float) -> float:
            return ev.margin(dense(tq), tau + (tq - t))

        t_event = m_end = None
        if clamped_clock:
            m_end = ev.margin(s1, tau1)
        elif m < 0.0:
            t_mid = t + 0.5 * h
            if margin_at(t_mid) >= 0.0:
                t_event = locate_event(margin_at, t, t_mid, cfg.event_tol)
            else:
                m_end = ev.margin(s1, tau1)
                if m_end >= 0.0:
                    t_event = locate_event(margin_at, t, t1, cfg.event_tol)

        # Land on the event point or the step end. The step end of a
        # clock-clamped step takes the boundary's clock exactly, so the jump
        # test cannot miss it by one rounding.
        if t_event is None:
            tau = tau1
            s, t, k1 = s1, t1, k_end
            h *= factor
        else:
            tau += t_event - t
            s, t, k1, m_end = dense(t_event), t_event, None, None
        if cfg.fast_floor > 0.0:  # s is a fresh array: snap it in place
            y_part = s[n_x:n_x + n_y]
            small = np.abs(y_part) < cfg.fast_floor
            if np.any(small & (y_part != 0.0)):
                y_part[small] = 0.0
                k1 = m_end = None
        if k1 is None:
            k1 = step.first_stage(s)
        m = ev.margin(s, tau) if m_end is None else m_end
        blown_up = t_event is None and diverged(s)
        steps_since_store += 1
        if (t_event is not None or steps_since_store >= cfg.store_stride
                or blown_up or at_horizon(t) or clamped_clock or m >= 0.0):
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

    Every plant runs the reference integrator below. A LinearPlantSpec
    takes each RK step as one fixed polynomial in hF applied to s, the same
    for every step size h, and jumps with its closed-form map
    y+ = y + (Hu K) e through apply_jump; a PlantSpec flows through
    closed_loop_flow_vector and jumps with the generic map, so passing
    plant.as_plant_spec() runs a linear plant with the generic flow and
    jump. Each path is bitwise reproducible. If q0 lies in the jump set,
    the first action is a jump.
    """
    if policy.requires_clock != q0.has_clock:
        raise ConfigurationError(
            "time_regularized needs the clock in the initial state; "
            "other policies forbid it"
        )
    if not isinstance(plant, (LinearPlantSpec, PlantSpec)):
        raise ConfigurationError(f"unsupported plant type {type(plant)!r}")
    sizes = {"x": (q0.x.size, plant.n_x), "y": (q0.y.size, plant.n_z),
             "e": (q0.e.size, plant.n_x)}
    if cert is not None:
        sizes.update(P1=(len(cert.data.p1), plant.n_x), P2=(len(cert.data.p2), plant.n_z))
    for name, (size, expected) in sizes.items():
        if size != expected:
            raise DimensionError(f"{name} has size {size}, expected {expected} for this plant")
    return _integrate_python(plant, policy, q0, cfg, cert, params)
