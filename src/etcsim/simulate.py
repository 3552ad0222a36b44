"""Hybrid closed-loop integration: flow, event localization, jumps.

A generic plant flows by an embedded Runge-Kutta 5(4) pair with dense
output, a linear plant by its exact propagator on fixed cells. Flow goes on
while the policy's flow condition holds; the signed event margin is
bracketed on each step (ends plus midpoint, a midpoint that a dead-zone
floor provably keeps negative left unprobed) and a sign change is refined
to the configured time tolerance by the ITP method, a bracketing secant
that never takes more than one margin evaluation beyond bisection's count.
Point products are taken by ndarray.dot, products on stacked rows by @. Jumps
are eager: whenever the state sits in the jump set, the transmission fires
immediately (post-jump states are strictly interior for the implementable
policies, so this never masks a real event; for the naive policy it turns
true Zeno into guard detection).

The dwell clock is not integrated: its rate is one and it resets at jumps,
so it is carried exactly as time since the last transmission.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from typing import Callable, Optional

import numpy as np

from .certificates import AnalysisParameters, LyapunovCertificate
from .errors import ConfigurationError, DimensionError, DivergenceError
from .hybrid import (
    HybridArc,
    HybridState,
    HybridSystemInterface,
    Termination,
    _all_finite,
    _dot_rows,
    _quad_rows,
    _state_view,
    check_numbers,
    field_keys,
    read_section,
)
from .plant import (  # closed_loop_flow_vector: perfbench's plant.flow span wraps this name
    LinearPlantSpec,
    PlantSpec,
    _Flow,
    _jump_vector,
    _views,
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

    max_step_factor caps the step at factor * epsilon so the fast layer is
    resolved; with a tiny certified epsilon a PlantSpec may relax it and rely
    on its error control (rel_tol, abs_tol), while a LinearPlantSpec's cells
    are min(max_step, 1/(8 |A_s|_inf)). fast_floor >= 0 snaps nonzero
    fast-state components below it to zero at every landed point (event
    point or step end), and 0, the default, turns the snap off: used when
    the boundary layer decays below the absolute tolerance, where the error
    controller would otherwise keep the step size pinned to the fast scale
    forever (the committed error is below abs_tol by construction).
    store_stride thins stored flow samples, counting steps or cells; both
    sides of every jump and the final state are always stored. A PlantSpec's
    first step is min(max_step, epsilon, horizon). _BOUNDS declares each
    numeric field's range.
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
    return _monitor_v(cert.v_x(q.x), cert.v_y(q.y), epsilon)


def _monitor_v(v_x, v_y, epsilon: float):
    """monitor_v of Vx and Vy: of one point, or of rows of them."""
    return v_x + math.sqrt(epsilon) * v_y


def monitor_r(q: HybridState, cert: LyapunovCertificate,
              params: AnalysisParameters) -> float:
    """Dwell-clock composite: Vx + d*Vy + max(0, g1 * w(tau) * |e|^2).

    Values only: the piecewise max needs no derivative bookkeeping. The
    comparison value w(tau) is the closed-form solution params.dwell_ode,
    held at its floor vartheta from its transit time on.
    """
    v_x = cert.v_x(q.x)
    if q.tau is None or params.dwell_ode is None or params.d_weight is None:
        return math.nan
    w, e_sq, v_y = params.dwell_ode.evaluate(q.tau), float(np.dot(q.e, q.e)), cert.v_y(q.y)
    with np.errstate(over="ignore", invalid="ignore"):  # as python floats' sums, silent
        return float(_monitor_r(v_x, v_y, e_sq, w, cert, params))


def _monitor_r(v_x, v_y, e_sq, w, cert: LyapunovCertificate, params):
    """monitor_r of Vx, Vy, |e|^2 and w(tau), on one point or on rows. The
    where is max(0.0, gain), NaN and -0.0 included (np.fmax's loop is not)."""
    gain = (cert.gamma1.coeff * w) * e_sq
    return (v_x + params.d_weight * v_y) + np.where(gain > 0.0, gain, 0.0)


# ---------------------------------------------------------------------------
# Policy margins on raw state vectors (arithmetic lives in triggers.py)
# ---------------------------------------------------------------------------


class _PolicyEval:
    """The integrator's binding of TriggerPolicy.margin to one certificate
    and to the (x, y, e) slices of its stacked state vectors, on one point
    or on rows of points."""

    def __init__(self, policy: TriggerPolicy, cert: Optional[LyapunovCertificate],
                 n_x: int, n_y: int):
        policy.check_certificate(cert)
        self.policy = policy
        self.cert = cert
        self.n_x = n_x
        self.n_y = n_y
        self._v_x = None if cert is None else cert.data.v_x

    def margin(self, s: np.ndarray, tau: float) -> float:
        """Signed event function; >= 0 on the jump set."""
        v_x = None if self._v_x is None else self._v_x(s[: self.n_x])
        return self.policy._margin(self.cert, v_x, s[self.n_x + self.n_y:], tau)

    def rows(self, states: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Margins of (N, n) state rows at clocks tau, each entry bitwise
        margin's on that row."""
        v_x = None if self.cert is None else _quad_rows(states[:, : self.n_x], self.cert.data.p1)
        e = states[:, self.n_x + self.n_y:]
        return self.policy._margin(self.cert, v_x, e, tau, rows=True)


# ITP (Oliveira & Takahashi 2020): the truncation kappa1 (b - a)^2 with
# kappa1 = _ITP_K1 / (initial width), the paper's choice; _ITP_N0 steps of
# slack over bisection's count; and a projection schedule that ends a
# fraction _ITP_ROOM short of event_tol, room for the rounding of the
# bracket's ends.
_ITP_K1 = 0.2
_ITP_N0 = 1
_ITP_ROOM = 2.0**-10


def locate_event(margin_at: Callable[[float], float], t_lo: float, t_hi: float,
                 event_tol: float, *, m_lo: Optional[float] = None,
                 m_hi: Optional[float] = None) -> Optional[float]:
    """Refine a sign change of the margin to within event_tol in time by
    the ITP method: a regula falsi point, truncated toward the midpoint so
    that both ends move, then projected onto the points that keep the
    bracket within a width that halves each step, as bisection's does
    after _ITP_N0 spare steps. So the margin is evaluated at most
    ceil(log2((t_hi - t_lo) / event_tol)) + _ITP_N0 times inside the
    bracket whatever its shape (a kink, a flat end, a jump), and a few
    times where it is smooth. The bound holds while event_tol is at least
    4 / _ITP_ROOM ulps of the bracket's ends; nearer the ulp scale, rounding
    may add an evaluation.

    Requires margin_at(t_lo) < 0 <= margin_at(t_hi); returns the accepted
    crossing time, the nonnegative end of a bracket no wider than
    event_tol, or None when the bracket carries no sign change. m_lo and
    m_hi are the bracket ends' margins when the caller holds them; each one
    not given is evaluated.
    """
    m_lo = margin_at(t_lo) if m_lo is None else m_lo
    m_hi = margin_at(t_hi) if m_hi is None else m_hi
    if not (m_lo < 0.0 <= m_hi):
        return None
    m_lo, m_hi = float(m_lo), float(m_hi)  # python floats: no numpy warnings
    width = t_hi - t_lo
    if width <= event_tol:
        return t_hi
    kappa = _ITP_K1 / width
    n = math.ceil(math.log2(width) - math.log2(event_tol))  # bisection's count
    reach = math.ldexp(event_tol * (1.0 - _ITP_ROOM), n + _ITP_N0 - 1)
    while width > event_tol:
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            break
        frac = m_lo / (m_lo - m_hi)  # nan if both are infinite
        t_q = mid if math.isnan(frac) else t_lo + frac * width
        toward = mid - t_q
        delta = kappa * width * width
        t_q = t_q + math.copysign(delta, toward) if delta <= abs(toward) else mid
        lowest, highest = t_hi - reach, t_lo + reach  # either end within reach
        t_q = min(max(t_q, lowest), highest) if lowest <= highest else mid
        reach *= 0.5
        if not t_lo < t_q < t_hi:
            t_q = mid
        m_q = float(margin_at(t_q))
        if m_q >= 0.0:
            t_hi, m_hi = t_q, m_q
        else:
            t_lo, m_lo = t_q, m_q
        width = t_hi - t_lo
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
    """Quartic dense output of one accepted step: y0 + h * q.dot(theta
    powers). _mid_below_floor bounds it over the whole step from y0, h and q."""

    def __init__(self, t0: float, h: float, y0: np.ndarray, q: np.ndarray):
        self.t0 = t0
        self.h = h
        self.y0 = y0
        self.q = q

    def __call__(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.y0 + self.h * self.q.dot(p)

    def mid(self) -> np.ndarray:
        return self(self.t0 + 0.5 * self.h)


_STEP_ULPS = 16.0 * sys.float_info.epsilon
# The most plain cells a linear arc crosses in one run (see _ArcLoop.run).
_RUN_CELLS = 64
# A run before the clock boundary evaluates no margin mask and no midpoints:
# on the dwell demo it costs about as much as two scalar cells (2.0 at 3
# cells, 2.5 at 6), and about four where the stride keeps a row (a margin and
# the row write), so it runs from more than _PRE_CELLS cells.
_PRE_CELLS = 4
# The numpy error states the loop writes rows in: the caller's, the start's (a start
# too large to square diverges silently) and a run's (cells past its end may overflow).
# _ArcLoop.quiet holds (first row, end, index) of the rows not written in the caller's.
_ERRSTATES = ({}, {"over": "ignore"}, {"over": "ignore", "invalid": "ignore"})
_START, _RUN = 1, 2


def _step_floor(t: float) -> float:
    """Smallest step the integrator takes at time t: 16 ulps of max(1, |t|)."""
    return _STEP_ULPS * max(1.0, abs(t))


class _StagedStep:
    """Flow of a PlantSpec: Dormand-Prince trial steps under error control.
    Every stage goes through the plant's one flow (plant._Flow), bound once
    per arc, which closed_loop_flow_vector also evaluates: it checks each
    map value by one test and writes the stage into its row of one (7, n)
    stage table, kept for the whole arc. Each stage point is summed in
    place, v = a_row.dot(stages[:i]); v *= h; v += s, bitwise s + h *
    (a_row @ stages[:i]) since IEEE multiply and add commute and dot calls
    the BLAS routine that @ calls, and is a fresh array, as is the step
    end: the maps may keep their inputs. The step end, the error estimate
    and the dense output's coefficients are dot products too. The last accepted
    step's end is kept, and its FSAL stage stays in row 6, so a step from
    that same array copies it to row 0, where no trial writes, and takes
    its first stage for free."""

    def __init__(self, plant: PlantSpec, cfg: SolverConfig):
        n_x, n_y = plant.n_x, plant.n_z
        self.flow = _Flow(plant).into
        self.parts = slice(0, n_x), slice(n_x, n_x + n_y), slice(n_x + n_y, None)
        self.cfg = cfg
        self.stages = np.empty((7, 2 * n_x + n_y))
        self.rows = tuple(_views(row, n_x, n_y) for row in self.stages)
        self.heads = tuple((a_row, self.stages[:i], self.rows[i]) for i, a_row in _RK_A_ROWS)
        self.end = None

    def stage(self, s: np.ndarray, out: tuple) -> None:
        """The flow at s into out, a row's _views."""
        x, y, e = self.parts
        self.flow(s[x], s[y], s[e], out)

    def _trial(self, s: np.ndarray, h: float) -> Optional[np.ndarray]:
        """The end s1 of a trial step from s whose first stage is in row 0,
        its seven stages in the table (the last FSAL); None if not finite."""
        for a_row, head, out in self.heads:
            si = a_row.dot(head)
            si *= h
            si += s
            if not _all_finite(si):
                return None
            self.stage(si, out)
        s1 = RK_B.dot(self.stages[:6])
        s1 *= h
        s1 += s
        if not _all_finite(s1):
            return None
        self.stage(s1, self.rows[6])
        return s1

    def advance(self, s: np.ndarray, h: float, t: float, clamp: Callable) -> tuple:
        """One accepted step from (t, s), trying h first: (h, clamped, s1,
        dense output, next h). clamp(h) caps each trial h and tells whether
        it was clamped onto a clock boundary. The first stage is the kept
        FSAL stage if s is the last step's s1 itself, else evaluated."""
        stages = self.stages
        if s is self.end:
            stages[0] = stages[6]
        else:
            self.stage(s, self.rows[0])
        while True:
            h, clamped = clamp(h)
            s1 = self._trial(s, h)
            if s1 is None:
                h *= _MIN_FACTOR
                continue
            norm = _error_norm(h * RK_E.dot(stages), s, s1, self.cfg.rel_tol, self.cfg.abs_tol)
            if norm <= 1.0:
                factor = _MAX_FACTOR if norm == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
                self.end = s1
                return h, clamped, s1, _DenseSegment(t, h, s, stages.T.dot(RK_P)), h * factor
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)


# Higham (2005): the Pade-13 coefficients, and the 1-norm up to which the
# approximant needs no scaling.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005)."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.frexp(norm / _THETA13)[1]) if norm > _THETA13 else 0
    a = np.ldexp(a, -squarings)
    b, ident = _PADE13, np.eye(a.shape[0])
    a2 = a.dot(a)
    a4 = a2.dot(a2)
    a6 = a4.dot(a2)
    u = a.dot(a6.dot(b[13] * a6 + b[11] * a4 + b[9] * a2)
              + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6.dot(b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r.dot(r)
    return r


class _Propagator:
    """Flow of a LinearPlantSpec by its exact propagator expm(F h) =
    T^-1 diag(expm(A_s h), expm(A_f h)) T from its decoupling, T in the
    (x, y, e) order. The cell is min(max_step, 1/(8 |A_s|_inf)), clamped by
    the loop, each one product, with no error control: m_cell and m_half,
    the matrices of the cell and the half cell, are built once per arc, and
    the last other length (a clock remainder repeats every interval) is
    kept. advance takes one cell; the loop's runs read cell, m_cell and
    m_half and cross many cells at once."""

    def __init__(self, plant: LinearPlantSpec, max_step: float):
        l_mat, h_mat, self.a_s, self.a_f = plant.decoupling
        n_x, n_z = plant.n_x, plant.n_z
        self.n_s = n_s = 2 * n_x
        eye_s, eye_f = np.eye(n_s), np.eye(n_z)
        order = np.r_[0:n_x, n_s:n_s + n_z, n_x:n_s]  # (x, y, e) from (x, e, y)
        self.left = np.block([[eye_s, h_mat], [-l_mat, eye_f - l_mat @ h_mat]])[order]
        self.right = np.block([[eye_s - h_mat @ l_mat, -h_mat], [l_mat, eye_f]])[:, order]
        slow_norm = float(np.abs(self.a_s).sum(axis=1).max())
        if slow_norm == 0.0 and max_step == math.inf:
            raise ConfigurationError(
                "max_step_factor * epsilon overflows, and a linear plant whose slow "
                "block is zero has no other bound on its cell")
        self.cell = (max_step if 8.0 * slow_norm * max_step <= 1.0
                     else min(max_step, 0.125 / slow_norm))
        self.m_cell, self.m_half = self.matrix(self.cell), self.matrix(0.5 * self.cell)
        self.other = (None, None)

    def matrix(self, h: float) -> np.ndarray:
        """expm(F h); a DivergenceError if it overflows."""
        n_s = self.n_s
        with np.errstate(over="ignore", invalid="ignore"):
            m = (self.left[:, :n_s].dot(_expm(h * self.a_s)).dot(self.right[:n_s])
                 + self.left[:, n_s:].dot(_expm(h * self.a_f)).dot(self.right[n_s:]))
        if not np.isfinite(m).all():
            raise DivergenceError(f"the linear flow over a step of {h!r} overflows")
        return m

    def at(self, h: float) -> np.ndarray:
        """expm(F h), not built again for the cell, half cell or last length."""
        if h == self.cell:
            return self.m_cell
        if h == 0.5 * self.cell:
            return self.m_half
        if self.other[0] != h:
            self.other = (h, self.matrix(h))
        return self.other[1]

    def advance(self, s: np.ndarray, h: float, t: float, clamp: Callable) -> tuple:
        """As _StagedStep.advance, over one cell; h is not read."""
        h, clamped = clamp(self.cell)
        return h, clamped, self.at(h).dot(s), _PropagatedSegment(t, h, s, self), self.cell


class _PropagatedSegment(_DenseSegment):
    """One cell's flow from (t0, y0) by the _Propagator q: expm(F (t - t0)) y0."""

    def __call__(self, t: float) -> np.ndarray:
        return self.q.matrix(t - self.t0).dot(self.y0)

    def mid(self) -> np.ndarray:
        return self.q.at(0.5 * self.h).dot(self.y0)


# The relative slack of the midpoint certificate: far above the rounding of
# the interpolant, its norm and gamma1 (a few ulps each).
_MID_SLACK = 1e-9


def _mid_below_floor(dense: _DenseSegment, e: slice, gamma1, level: float) -> bool:
    """Whether a dead-zone margin is provably negative all along a generic
    step's interpolant, so its midpoint probe is skipped: gamma1(B (1 +
    _MID_SLACK)) < level = rho (1 - _MID_SLACK), where B = sum |e0_i| + h
    sum |q_e,ik| bounds |e(theta)|_1 >= |e(theta)|_2 for every theta in
    [0, 1], since theta^k <= 1. The margin gamma1(|e|) - max(threshold, rho)
    is then below gamma1(|e|) - rho < 0 wherever the interpolant is
    evaluated, rounding included. A NaN or inf in B, or a B too large for
    gamma1 to raise to its power (OverflowError), fails the test."""
    bound = (sum(map(abs, dense.y0[e].tolist()))
             + dense.h * sum(map(abs, dense.q[e].ravel().tolist())))
    try:
        return gamma1(bound * (1.0 + _MID_SLACK)) < level
    except OverflowError:
        return False


def _prefix(mask: np.ndarray) -> int:
    """How many leading entries of a boolean row are True."""
    flags = mask.tolist()
    return flags.index(False) if False in flags else len(flags)


def _first_snapped(values: list, fast_floor: float) -> int:
    """Index of the first float that the fast_floor snap moves (nonzero,
    magnitude below the floor), or len(values): the array test
    (|y| < fast_floor) & (y != 0) on each value, NaN included."""
    return next((i for i, v in enumerate(values) if 0.0 < abs(v) < fast_floor), len(values))


def _clock_prefix(t_all: list, tau_all: list, cell: float, horizon: float,
                  ceiling: Optional[float]) -> int:
    """How many leading cells of a run pass clamp's tests: cell k runs from
    t_all[k] to t_all[k + 1] (clock tau_all[k] to tau_all[k + 1]), is whole
    before the horizon, above the step floor, does not end on the horizon
    and, with a ceiling (the clock starts before it), is not clamped onto
    the clock boundary. Each test is the loop's comparison on the same
    floats; the walk goes back from the last cell to the first that passes,
    since the cells that pass are a prefix (see _ArcLoop.run)."""
    for k in range(len(t_all) - 1, 0, -1):
        t0, t1 = t_all[k - 1], t_all[k]
        floor0, left0 = _step_floor(t0), horizon - t0
        if not (left0 >= cell and floor0 < cell and horizon - t1 > _step_floor(t1)):
            continue
        tau1 = tau_all[k]
        if ceiling is None or (tau1 < ceiling and (tau1 < ceiling - floor0
                                                   or ceiling - tau_all[k - 1] > left0)):
            return k
    return 0


class _ArcLoop:
    """The integrator loop of one arc, for both flow backends. A
    LinearPlantSpec advances on the fixed cells of its exact propagator
    (_Propagator); a PlantSpec takes Dormand-Prince steps under error
    control (_StagedStep), whose stages go through one flow bound per arc,
    which closed_loop_flow_vector also uses. Every jump is
    apply_jump's map, taken on the stacked vector (jump below).

    The loop holds one landed point: s at t with clock tau, its margin m,
    the next step size h, the steps since the last stored row, the ring of
    recent jump times, reached (the horizon is closer than the step floor)
    and tested (the point is a step end already tested for divergence). Its
    methods move that point in place.

    Each step lands on one point: the localized event, or else the step
    end. A step is bracketed (start, midpoint and end) unless a clocked
    margin is negative all along it: when it is clamped onto the clock
    boundary, or starts and ends before it. A generic step under a
    dead-zone policy (floor: the e slice, gamma1 and the level rho (1 -
    _MID_SLACK)) skips its midpoint where _mid_below_floor proves the
    margin negative on the whole interpolant, and brackets on its start
    and end alone. The bracket's sign change is located (locate_event) on
    the backend's dense output, and the event lands on the state the
    locator evaluated there. Both landings go
    through the same block: fast_floor snaps a copy of the point (the loop
    never writes into an array a backend returned, so only the unsnapped
    step end keeps its FSAL stage), and the margin m is evaluated once: at
    an unsnapped step end it is the bracket's end probe. m decides the
    eager jump, starts the next event bracket and is stored. A landed point
    is stored if it is an event, the stride is reached, it is on the
    horizon or a clock boundary, m >= 0, or the step end diverged. Flow
    rows go straight to the arc's row writer (no HybridState). When the
    loop ends, fill takes V and R on the rows of the whole table and the
    arc's (t, j) ordering is checked. A jump is recorded by the arc's own
    jump writer, which append_jump also calls, from the two stacked
    vectors. A LinearPlantSpec also crosses cells in runs (run below),
    bitwise as the loop would cross them one at a time.
    """

    def __init__(self, plant, policy: TriggerPolicy, q0: HybridState, cfg: SolverConfig,
                 cert: Optional[LyapunovCertificate], params: Optional[AnalysisParameters]):
        self.plant, self.policy, self.cfg, self.cert, self.params = plant, policy, cfg, cert, params
        self.n_x, self.n_y = plant.n_x, plant.n_z
        self.has_clock = policy.requires_clock
        self.ev = _PolicyEval(policy, cert, self.n_x, self.n_y)
        self.arc = HybridArc(self.n_x, self.n_y, self.has_clock)
        self.eps = plant.epsilon
        self.max_step = cfg.max_step_factor * self.eps
        self.step = (_Propagator(plant, self.max_step) if isinstance(plant, LinearPlantSpec)
                     else _StagedStep(plant, cfg))
        # only a linear plant crosses cells in runs: the least room for one,
        # and for one before the clock boundary
        linear = isinstance(self.step, _Propagator)
        self.run_room = (_RUN_CELLS // 4 + 1) * self.step.cell if linear else math.inf
        self.pre_room = _PRE_CELLS * self.step.cell if linear else math.inf
        # a generic step under a dead-zone policy skips a midpoint that its
        # interpolant's e provably keeps below the floor (_mid_below_floor)
        self.floor = (None if linear or policy.kind is not PolicyKind.DEADZONE
                      else (self.step.parts[2], cert.gamma1, policy.rho * (1.0 - _MID_SLACK)))
        self.ceiling = policy.clock_ceiling
        self.s, self.t = q0.as_vector(), 0.0
        self.tau = q0.tau if q0.tau is not None else 0.0
        self.h = min(self.max_step, self.eps, cfg.horizon)
        self.since_store = 0
        # the ring holds the last zeno_max_jumps + 1 jump times, or as many as
        # a deque can (no arc holds more)
        self.jumps: deque[float] = deque(maxlen=min(cfg.zeno_max_jumps + 1, sys.maxsize))
        self.reached, self.tested = cfg.horizon - self.t <= _step_floor(self.t), False

    def store(self) -> None:
        """Append the held point as a flow row."""
        self.arc._append_row(self.t, self.arc.jump_count, self.s,
                             self.tau if self.has_clock else None,
                             (math.nan, math.nan, self.m), is_jump=False)

    def jump(self) -> None:
        """Jump from the held point, the arc's last row, and hold the
        post-jump state. The arc records the jump from the two vectors
        (HybridArc._record_jump), its JumpRecord's states views of one
        read-only copy of each."""
        n_x, n_y, clock = self.n_x, self.n_y, 0.0 if self.has_clock else None
        pre = self.s.copy()
        pre.flags.writeable = False
        q_pre = _state_view(pre, n_x, n_y, self.tau if self.has_clock else None)
        s = _jump_vector(self.plant, pre)
        s.flags.writeable = False
        q_post = _state_view(s, n_x, n_y, clock)
        reason = self.policy.jump_reason(self.m, self.tau)
        self.s, self.tau = s, 0.0
        self.m = self.ev.margin(s, 0.0)
        self.arc._record_jump(q_pre, q_post, pre, s, reason, (math.nan, math.nan, self.m))

    def diverged(self) -> bool:
        sq_norm = float(np.dot(self.s, self.s))
        return not math.isfinite(sq_norm) or sq_norm > DIVERGENCE_NORM**2

    def clamp(self, h_try: float) -> tuple:
        """(h, clamped): h_try capped at max_step and the horizon, clamped onto
        a clock boundary it reaches or, not past the horizon, misses by < floor."""
        cfg, t, tau, ceiling = self.cfg, self.t, self.tau, self.ceiling
        h_try, floor = min(h_try, self.max_step, cfg.horizon - t), _step_floor(t)
        clamped = ceiling is not None and tau < ceiling and (
            tau + h_try >= ceiling
            or (tau + h_try >= ceiling - floor and ceiling - tau <= cfg.horizon - t))
        if clamped:
            h_try = ceiling - tau
        if h_try <= floor:
            raise DivergenceError(f"step size underflow at t={t!r}")
        return h_try, clamped

    def settle(self) -> Optional[Termination]:
        """Eager jumps from the held point, then the loop's stopping tests."""
        # Fire while the state sits in the jump set; the Zeno guard stops
        # after zeno_max_jumps + 1 jumps within zeno_window.
        jumped = False
        while self.m >= 0.0:
            self.jumps.append(self.t)
            self.jump()
            jumped = True
            if (len(self.jumps) > self.cfg.zeno_max_jumps
                    and self.t - self.jumps[0] <= self.cfg.zeno_window):
                return Termination.ZENO_GUARD
        if jumped:
            self.h = min(self.h, self.eps)  # the jump re-excites the fast layer
        if self.reached:
            return Termination.HORIZON
        if (jumped or not self.tested) and self.diverged():  # a tested step end is not tested again
            return Termination.DIVERGENCE
        return None

    @np.errstate(**_ERRSTATES[_RUN])
    def run(self, room: float) -> int:
        """Cross the plain cells ahead of the held point, whose margin is
        negative, at most _RUN_CELLS of them and not past room, the time
        left before the horizon and the clock boundary; return how many.
        A plain cell is one the loop takes whole and lands on its end by no
        other rule: the full cell, no clock or horizon clamp, no step
        underflow, its end not on the horizon, not diverged and not snapped,
        and a negative margin at its end and, if the run is bracketed, at
        its midpoint. A run brackets all of its cells or none: no plain cell
        crosses the clock boundary (the cell that reaches it is clamped), so
        the loop's rule, a cell's start clock on or past the boundary or its
        end clock past it, comes down to where the run starts. The cells'
        ends are the loop's own products M.dot(s); their squared norms, and
        the midpoints and margins of a bracketed run, are taken on rows, each
        row bitwise as the loop takes it on its point. A run that starts
        before the boundary stays before it, where every margin is
        negative, so it has no margin mask: it evaluates margins only on the
        rows the stride keeps and on its last cell, whose margin it holds,
        each by the loop's own margin. A bracketed run has every cell's
        margin on rows for its mask. The kept rows go to the arc in one
        write, and fill takes their V and R under the run's error state.
        The first cell that is not plain is left to the loop.

        The clock and horizon tests are the loop's comparisons on the
        accumulated t and tau as floats (_clock_prefix), taken from the last
        cell tried back to the first that passes: the cells that pass them
        are a prefix. Sums, products and differences round monotonically,
        so t and tau grow with the cell and the step floor with t, and each
        of horizon - t_start >= cell, floor_start < cell, horizon - t_end >
        floor_end, tau_end < ceiling and tau_end < ceiling - floor_start
        holds on a prefix of the cells. The clause ceiling - tau_start >
        horizon - t_start is not monotone, but it only decides a cell whose
        end lies within its start's floor of the boundary: as cell > floor,
        the next cell's tau_end rounds to ceiling or past it, so every later
        cell fails tau_end < ceiling. The squared-norm and snap tests are
        scanned up to their first failure on the cells that pass."""
        cfg, step, ceiling = self.cfg, self.step, self.ceiling
        n_x, n_y, cell, m_cell = self.n_x, self.n_y, step.cell, step.m_cell
        n = int(min(room / cell + 1.0, _RUN_CELLS))  # the last cells tried may be clamped
        t_all = list(accumulate(repeat(cell, n), initial=self.t))
        tau_all = list(accumulate(repeat(cell, n), initial=self.tau))
        # clamp's test applies while the clock is before the boundary: a run
        # from on or past it has no clamped cell
        before = ceiling is not None and self.tau < ceiling
        n = _clock_prefix(t_all, tau_all, cell, cfg.horizon, ceiling if before else None)
        if n == 0:
            return 0
        states = [self.s]
        for _ in range(n):
            states.append(m_cell.dot(states[-1]))
        block = np.array(states)
        ends = block[1:]
        n = _prefix(_dot_rows(ends, ends) <= DIVERGENCE_NORM**2)
        if cfg.fast_floor > 0.0:
            n = _first_snapped(ends[:n, n_x:n_x + n_y].ravel().tolist(), cfg.fast_floor) // n_y
        if n == 0:
            return 0
        first, stride = cfg.store_stride - 1 - self.since_store, cfg.store_stride
        try:
            if before:
                # no plain cell reaches the boundary, so every margin is negative: only the
                # rows the stride keeps and the held point are landed, as the loop lands them,
                # the held point's margin once, also where the stride keeps its row
                m_kept = [self.ev.margin(ends[i], tau_all[i + 1]) for i in range(first, n, stride)]
                m = (m_kept[-1] if first < n and (n - 1 - first) % stride == 0
                     else self.ev.margin(states[n], tau_all[n]))
            else:
                t_start, taus = np.array(t_all[:n]), np.array(tau_all[:n + 1])
                m_end = self.ev.rows(ends[:n], taus[1:])
                plain = m_end < 0.0
                mids = (step.m_half @ block[:n, :, None])[:, :, 0]
                plain &= self.ev.rows(mids, taus[:-1] + ((t_start + 0.5 * cell) - t_start)) < 0.0
                n = _prefix(plain)
                if n == 0:
                    return 0
                m_kept, m = m_end[first:n:stride], float(m_end[n - 1])
        except OverflowError:  # a gain past the float range: the loop raises it in turn
            return 0
        if first < n:  # the stride keeps a row
            rows = np.empty((len(m_kept), self.arc._table.shape[1]))
            kept, clocks = slice(first, n, stride), slice(first + 1, n + 1, stride)
            rows[:, 0], rows[:, 1], rows[:, 2:-5] = t_all[clocks], self.arc.jump_count, ends[kept]
            rows[:, -5] = tau_all[clocks] if self.has_clock else math.nan
            rows[:, -4:-2], rows[:, -2], rows[:, -1] = math.nan, m_kept, 0.0  # V, R: see fill
            self.quiet.append((len(self.arc), len(self.arc) + len(rows), _RUN))
            self.arc._append_rows(rows)
        self.s, self.t, self.tau, self.m = states[n], t_all[n], tau_all[n], m
        self.since_store = (self.since_store + n) % cfg.store_stride
        return n

    def probe(self, dense, probed: dict, tq: float) -> float:
        """The margin on the dense output at tq, keeping the state in probed."""
        s_q = probed[tq] = dense(tq)
        return self.ev.margin(s_q, self.tau + (tq - self.t))

    def take_step(self) -> Optional[Termination]:
        """One step, clamped to the horizon and clock boundaries, landed and
        stored by the rules above: DIVERGENCE if its end diverged. A
        midpoint that _mid_below_floor certifies is not probed, so its
        margin counts as negative and the end is probed next, as when the
        probe reads a negative margin."""
        cfg, ev, ceiling = self.cfg, self.ev, self.ceiling
        t, tau, m = self.t, self.tau, self.m
        h, clamped_clock, s1, dense, h_next = self.step.advance(self.s, self.h, t, self.clamp)
        t1 = min(t + h, cfg.horizon)
        tau1 = ceiling if clamped_clock else tau + h

        # Event bracketing: start (the held m), midpoint and end, whose
        # probe is the step end s1 with its landed clock tau1. With a clock,
        # a step is bracketed if it starts on or past the boundary (a step
        # below half an ulp of tau leaves tau1 == tau) or ends past it.
        t_event = end = None
        if m < 0.0 and (ceiling is None or tau >= ceiling or tau1 > ceiling):
            t_hi, m_hi = t + 0.5 * h, -math.inf
            if self.floor is None or not _mid_below_floor(dense, *self.floor):
                m_hi = ev.margin(dense.mid(), tau + (t_hi - t))
            if m_hi < 0.0:
                t_hi, m_hi = t1, ev.margin(s1, tau1)
                end = m_hi
            if m_hi >= 0.0:
                probed = {}  # the locator's states by time: the event lands on one
                t_event = locate_event(partial(self.probe, dense, probed), t, t_hi, cfg.event_tol,
                                       m_lo=m, m_hi=m_hi)

        # Land on the event point or the step end. The step end of a
        # clock-clamped step takes the boundary's clock exactly, so the jump
        # test cannot miss it by one rounding.
        if t_event is None:
            s, t, tau, self.h = s1, t1, tau1, h_next
        else:
            s = probed[t_event] if t_event in probed else dense(t_event)
            t, tau, end = t_event, tau + (t_event - t), None
        if cfg.fast_floor > 0.0:  # snap a copy: the backend may hold s
            y_part = s[self.n_x:self.n_x + self.n_y]
            if _first_snapped(y_part.tolist(), cfg.fast_floor) < self.n_y:
                s = s.copy()
                s[self.n_x:self.n_x + self.n_y][np.abs(y_part) < cfg.fast_floor] = 0.0
                end = None
        self.s, self.t, self.tau = s, t, tau
        self.m = ev.margin(s, tau) if end is None else end
        self.tested = t_event is None
        blown_up = self.tested and self.diverged()
        self.reached = cfg.horizon - t <= _step_floor(t)
        self.since_store += 1
        if (t_event is not None or self.since_store >= cfg.store_stride
                or blown_up or self.reached or clamped_clock or self.m >= 0.0):
            self.store()
            self.since_store = 0
        return Termination.DIVERGENCE if blown_up else None

    def fill(self) -> None:
        """Fill V and R on the rows of the whole table, bitwise monitor_v's
        and monitor_r's (NaN without a certificate; R also without a clock
        or dwell parameters). |e|^2 and Vy warn as at the row's writer, in
        its numpy error state; Vx (its margin's) and the sums are silent."""
        cert, params, n_x, n_y = self.cert, self.params, self.n_x, self.n_y
        if cert is None:
            return
        table = self.arc._table[: len(self.arc)]
        with_r = (self.has_clock and params is not None and params.dwell_ode is not None
                  and params.d_weight is not None)
        state = np.zeros(len(table), np.int8)
        for first, end, k in self.quiet:
            state[first:end] = k
        e_sq, v_y = np.empty(len(table)), np.empty(len(table))
        for k in set(state.tolist()):
            rows = state == k
            with np.errstate(**_ERRSTATES[k]):
                if with_r:
                    e = table[rows, 2 + n_x + n_y:-5]
                    e_sq[rows] = _dot_rows(e, e)
                v_y[rows] = _quad_rows(table[rows, 2 + n_x:2 + n_x + n_y], cert.data.p2)
        with np.errstate(**_ERRSTATES[_RUN]):
            v_x = _quad_rows(table[:, 2:2 + n_x], cert.data.p1)
            table[:, -4] = _monitor_v(v_x, v_y, self.eps)
            if with_r:
                w = np.array([params.dwell_ode.evaluate(tau) for tau in table[:, -5].tolist()])
                table[:, -3] = _monitor_r(v_x, v_y, e_sq, w, cert, params)

    def integrate(self) -> HybridArc:
        """Store the start, settle, run and step until a stopping test holds,
        then fill V and R. Overflow is silenced on the start alone: a start
        too large to square diverges at t = 0 unless a jump there brings it back."""
        with np.errstate(**_ERRSTATES[_START]):
            self.m = self.ev.margin(self.s, self.tau)
            self.store()
            termination = self.settle()
        self.quiet = [(0, len(self.arc), _START)]
        while termination is None:
            # A run needs more than a quarter of its cells to repay its fixed
            # cost before the horizon or the clock boundary, and a run before
            # the boundary more than _PRE_CELLS.
            room, floor = self.cfg.horizon - self.t, self.run_room
            if self.ceiling is not None and self.tau < self.ceiling:
                room, floor = min(room, self.ceiling - self.tau), self.pre_room
            # A whole run settles at once: the next cells may make another.
            if not (room > floor and 0 < self.run(room) == _RUN_CELLS):
                termination = self.take_step()
            termination = termination or self.settle()
        self.fill()
        self.arc.check_ordering()
        self.arc.set_termination(termination)
        return self.arc


def _integrate_python(plant, policy, q0, cfg, cert, params) -> HybridArc:
    """The arc of _ArcLoop(plant, policy, q0, cfg, cert, params)."""
    return _ArcLoop(plant, policy, q0, cfg, cert, params).integrate()


def integrate_arc(plant, policy: TriggerPolicy, q0: HybridState,
                  cfg: SolverConfig,
                  cert: Optional[LyapunovCertificate] = None,
                  params: Optional[AnalysisParameters] = None) -> HybridArc:
    """Integrate the hybrid closed loop from q0 under the given policy.

    Every plant runs the one integrator loop, _ArcLoop. A LinearPlantSpec flows
    by its exact propagator expm(F h) on cells, built from its decoupling (a
    ConfigurationError naming epsilon where that does not converge), and
    jumps with its closed-form map y+ = y + (Hu K) e through apply_jump; a
    PlantSpec takes RK45 steps, whose stages go through one flow bound per
    arc, which closed_loop_flow_vector also uses, each map value checked by
    one test, and jumps with the generic map, so plant.as_plant_spec() runs
    a linear plant with the generic flow and jump. Each path is bitwise
    reproducible. If q0 lies in the jump set, the first action is a jump. A
    q0 too large to square in floats raises no numpy warning: the arc ends
    in divergence at t = 0 unless a jump there brings it back. The V and R
    monitors are filled on rows of the arc's table when the loop ends.
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
