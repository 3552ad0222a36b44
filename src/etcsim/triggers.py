"""Transmission-triggering policies: flow/jump membership and event margins.

Three state-dependent policies plus a periodic baseline:

* naive      -- trigger when gamma1(|e|) reaches sigma * alpha1 * Vx(x).
                Not implementable from the origin: the jump image of the
                trigger surface meets the surface again at x = e = 0, so a
                solution started there can jump forever in zero time.
* deadzone   -- same threshold floored at rho > 0, which buys a strictly
                positive minimum inter-event time at the price of practical
                (not asymptotic) stability.
* time_regularized -- transmissions are forbidden until a dwell clock tau
                reaches t_star; requires quadratic gamma1.
* periodic   -- fixed-period baseline for transmission-count comparisons.

All policy evaluations are pure functions of (state, parameters).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from enum import Enum
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .hybrid import HybridState, _dot_rows, check_numbers, field_keys, read_section

__all__ = [
    "GammaForm",
    "PolicyKind",
    "TriggerPolicy",
    "naive_event",
    "deadzone_event",
    "time_regularized_event",
    "time_regularized_margin",
    "periodic_event",
]


@dataclass(frozen=True)
class GammaForm:
    """Power-law class-K-infinity gain: gamma(s) = coeff * s**power, with a
    finite coeff >= 0 and power >= 1."""

    coeff: float
    power: float = 2.0

    def __post_init__(self):
        check_numbers("GammaForm", self, {"coeff": "[0, inf)", "power": "[1, inf)"})

    def __call__(self, s: float) -> float:
        return self.coeff * float(s) ** self.power

    def inverse(self, v: float) -> float:
        if self.coeff == 0.0:
            raise ConfigurationError("zero gain is not invertible")
        return (float(v) / self.coeff) ** (1.0 / self.power)

    def slope(self, s: float) -> float:
        """Derivative gamma'(s)."""
        return self.coeff * self.power * float(s) ** (self.power - 1.0)

    def rows(self, s: np.ndarray) -> np.ndarray:
        """gamma on each entry of a 1-D array, bitwise as __call__ and, as
        it, silent where the product overflows to inf."""
        with np.errstate(over="ignore"):
            return self.coeff * _pow_rows(s, self.power)

    def slope_rows(self, s: np.ndarray) -> np.ndarray:
        """gamma' on each entry of a 1-D array, bitwise and silent as rows."""
        with np.errstate(over="ignore"):
            return (self.coeff * self.power) * _pow_rows(s, self.power - 1.0)


def _pow_rows(s: np.ndarray, p: float) -> np.ndarray:
    """s ** p per entry by libm's pow, as float ** float is: numpy's power may
    round otherwise. A new array, never s itself.

    At p == 1 the result is a copy of s, with no pow call: the exact result
    x ** 1 is x, so a pow within 1 ulp (glibc's is within 0.52) returns x,
    and float.__pow__ keeps the sign of ±0 and ±inf and the NaN (payload
    included) at an odd integer exponent. The y-ball radii (1 / dim with
    dim 1) and gamma'(s) at power 2 are such calls.

    At p == 1/2 and p == 2, arrays of _POW_VECTOR_ROWS entries or more (320,
    the measured crossover) take sqrt(s) or s * s, correctly rounded,
    wherever the exact result lies within _POW_BAND = 0.4 ulp of it, which
    Dekker's split decides exactly with no FMA: any pow within 0.6 ulp
    then returns the same float (glibc's is documented within 0.54).
    About 20% of uniform draws lie farther from it and go through pow, as
    do results that are powers of two (the float below is half an ulp
    away), ±0 (pow(-0.0, 0.5) is +0.0), negative entries at 1/2 (pow's
    complex result raises the same TypeError), non-finite ones, and
    results outside [2**-450, 2**450) at 1/2 or [2**-900, 2**900) at 2,
    where the split could overflow or round and pow may raise
    OverflowError. Without that fallback, sqrt(u) and u * u differ from pow
    for about 8 in 10,000 uniform draws (2492 and 2531 of 3M with glibc
    2.36). Shorter arrays, the integrator's runs of at most 64 rows among
    them, and other exponents go through pow whole."""
    if p == 1.0:
        return np.array(s, float)
    limits = _POW_LIMITS.get(p)
    if limits is None or s.size < _POW_VECTOR_ROWS or s.ndim != 1 or s.dtype != float:
        return _pow_loop(s, p)
    with np.errstate(all="ignore"):  # a row that would warn goes through pow
        if p == 0.5:
            r = np.sqrt(s)
            # the residual s - r * r, with r * r split exactly: rh * rh and
            # the differences are exact, only the last one rounds
            rh = _split_high(r)
            rl = r - rh
            err = ((s - rh * rh) - (rh + rh) * rl) - rl * rl
            # sqrt(s) - r = err / (sqrt(s) + r): the band in err is 2 r wider
            tol = (2.0 * _POW_BAND * 2.0**-52) * r
        else:
            r = s * s
            sh = _split_high(s)
            sl = s - sh
            err = ((sh * sh - r) + (sh + sh) * sl) + sl * sl  # s * s - r, exactly
            tol = _POW_BAND * 2.0**-52
        exp_bits = r.view(np.uint64) & _EXP_BITS
        ulp = exp_bits.view(float)  # 2 ** floor(log2 r) = 2 ** 52 ulp(r), r normal
        low, span = limits
        keep = (exp_bits - low < span) & (r != ulp) & (np.abs(err) < tol * ulp)
    redo = np.flatnonzero(~keep)
    if redo.size:
        r[redo] = _pow_loop(s[redo], p)
    return r


def _pow_loop(s: np.ndarray, p: float) -> np.ndarray:
    return np.fromiter(map(pow, s.tolist(), repeat(p)), float, s.size)


def _split_high(a: np.ndarray) -> np.ndarray:
    """The high 26 bits of each entry by Dekker's split: a - high is exact
    and both halves square and multiply without rounding."""
    c = a * _SPLITTER
    return c - (c - a)


# From this many entries on, _pow_rows takes sqrt or s * s at exponents
# 1/2 and 2 and pow only near a rounding tie; below it the vector path's
# fixed cost (about 15 us) exceeds the loop's. Measured on uniform draws on
# a 2-core x86-64 host with glibc 2.36 and numpy 2.4: 19.4 against 17.4 us
# at 256 entries, 20.3 against 21.9 at 320, 62 against 135 at 2048.
_POW_VECTOR_ROWS = 320
_POW_BAND = 0.4
_SPLITTER = 2.0**27 + 1.0
_EXP_BITS = np.uint64(0x7FF0000000000000)


# Per exponent, the results r with 2**-b <= r < 2**b that the vector path
# takes: there Dekker's split neither overflows nor loses a bit below the
# smallest normal float. They are those whose exponent bits e satisfy
# e - low < span in unsigned arithmetic, for (low, span) below.
_POW_LIMITS = {p: (np.uint64(1023 - b) << np.uint64(52), np.uint64(2 * b) << np.uint64(52))
               for p, b in ((0.5, 450), (2.0, 900))}


class PolicyKind(str, Enum):
    NAIVE = "naive"
    DEADZONE = "deadzone"
    TIME_REGULARIZED = "time_regularized"
    PERIODIC = "periodic"


# The parameters each policy kind takes, each a number in its interval; a
# parameter of another kind is an error.
_KIND_PARAMETERS = {
    PolicyKind.NAIVE: ("sigma",),
    PolicyKind.DEADZONE: ("sigma", "rho"),
    PolicyKind.TIME_REGULARIZED: ("sigma", "t_star"),
    PolicyKind.PERIODIC: ("period",),
}
_BOUNDS = {"sigma": "(0, 1)", "rho": "(0, inf)", "t_star": "(0, inf)", "period": "(0, inf)"}


@dataclass(frozen=True)
class TriggerPolicy:
    """A triggering rule and its parameters.

    naive takes sigma; deadzone sigma and rho; time_regularized sigma and
    t_star; periodic period. sigma in (0, 1) scales the Lyapunov threshold,
    rho > 0 is the dead-zone floor, t_star > 0 the enforced dwell time and
    period > 0 the baseline period; a parameter the kind does not take is
    an error. The time-regularized policy requires the clock component in
    the hybrid state; the others forbid it.
    """

    kind: PolicyKind
    sigma: Optional[float] = None
    rho: Optional[float] = None
    t_star: Optional[float] = None
    period: Optional[float] = None

    def __post_init__(self):
        try:
            kind = PolicyKind(self.kind)
        except ValueError:
            raise ConfigurationError(f"unknown policy kind {self.kind!r}, not one of "
                                     f"{[k.value for k in PolicyKind]}") from None
        object.__setattr__(self, "kind", kind)
        takes = _KIND_PARAMETERS[kind]
        for name in _BOUNDS:
            if name not in takes and getattr(self, name) is not None:
                raise ConfigurationError(f"{kind.value} policy does not take "
                                         f"{name}, got {getattr(self, name)}")
        check_numbers(f"{kind.value} policy", self, {name: _BOUNDS[name] for name in takes})

    @property
    def requires_clock(self) -> bool:
        return self.kind is PolicyKind.TIME_REGULARIZED

    @property
    def clock_ceiling(self) -> Optional[float]:
        """Clock value a flow step must land on: t_star, the period, or None."""
        return self.t_star if self.t_star is not None else self.period

    def jump_reason(self, m: float, tau: float) -> str:
        """Reason for a jump at margin m >= 0 (then tau >= t_star if dwell)."""
        if self.kind is PolicyKind.PERIODIC:
            return "periodic"
        if self.t_star is not None and m > 0.0 and tau <= self.t_star:
            return "dwell-clock"
        return "threshold"

    def check_certificate(self, cert) -> None:
        """Raise unless cert can evaluate this policy's margin."""
        if cert is None and self.kind is not PolicyKind.PERIODIC:
            raise ConfigurationError(
                f"{self.kind.value} policy needs a Lyapunov certificate"
            )
        if self.requires_clock and cert.gamma1.power != 2.0:
            raise ConfigurationError("time_regularized needs a quadratic gamma1")

    def margin(self, cert, x: np.ndarray, e: np.ndarray, tau: float) -> float:
        """The one signed event margin, on raw vectors; >= 0 on the jump set.
        tau is the time since the last transmission. tau - period, else
        gamma1(|e|) - max{sigma * alpha1 * Vx(x), rho} (no floor when rho is
        None); with t_star, that margin once tau >= t_star, and before it
        tau - t_star (< 0) where that margin is >= 0 and -inf where it is
        not. So it is >= 0 exactly on the jump set, and continuous in time
        past t_star, where the event locator takes secant steps."""
        return self._margin(cert, None if self.kind is PolicyKind.PERIODIC else cert.v_x(x),
                            e, tau)

    def _margin(self, cert, v_x, e: np.ndarray, tau, rows: bool = False):
        """margin on v_x = cert.v_x(x) (not read if periodic). With rows, on
        N points at once: v_x and tau of shape (N,) and e rows (N, n_x), each
        entry bitwise the point's, apart from the sign of a zero."""
        if self.kind is PolicyKind.PERIODIC:
            return tau - float(self.period) if rows else float(tau) - float(self.period)
        if rows:
            gain, maximum, pick = cert.gamma1.rows(np.sqrt(_dot_rows(e, e))), np.maximum, np.where
        else:  # math.sqrt of np.dot is np.linalg.norm(e), bitwise
            gain, maximum, pick = cert.gamma1(math.sqrt(np.dot(e, e))), max, _pick
        thresh = self.sigma * cert.alpha1 * v_x
        if self.rho is not None:
            thresh = maximum(thresh, self.rho)
        margin = gain - thresh
        if self.t_star is None:
            return margin
        return pick(tau >= self.t_star, margin, pick(margin >= 0.0, tau - self.t_star, _NEG_INF))

    @classmethod
    def from_dict(cls, cfg: dict) -> "TriggerPolicy":
        keys = field_keys(cls)
        del keys["kind"]  # read from the "policy" key
        values = read_section("policy", cfg, {"policy": (str, MISSING), **keys})
        return cls(kind=values.pop("policy"), **values)


_NEG_INF = -math.inf


def _pick(cond: bool, a: float, b: float) -> float:
    """np.where of one point."""
    return a if cond else b


def _checked(q: Optional[HybridState], cert, kind: PolicyKind, **params) -> TriggerPolicy:
    """The policy of kind and params, once it, cert and q's clock pass its checks:
    each public *_event function rejects exactly what TriggerPolicy rejects."""
    policy = TriggerPolicy(kind, **params)
    policy.check_certificate(cert)
    if policy.requires_clock and q.tau is None:
        raise ConfigurationError("time_regularized policy needs the clock component")
    return policy


def naive_event(q: HybridState, cert, sigma: float) -> float:
    """Signed margin gamma1(|e|) - sigma * alpha1 * Vx(x); >= 0 on the jump set."""
    return _checked(q, cert, PolicyKind.NAIVE, sigma=sigma).margin(cert, q.x, q.e, q.tau)


def deadzone_event(q: HybridState, cert, sigma: float, rho: float) -> float:
    """Signed margin gamma1(|e|) - max{sigma * alpha1 * Vx(x), rho}."""
    policy = _checked(q, cert, PolicyKind.DEADZONE, sigma=sigma, rho=rho)
    return policy.margin(cert, q.x, q.e, q.tau)


def time_regularized_event(q: HybridState, cert, sigma: float,
                           t_star: float) -> tuple[bool, bool]:
    """(flow_ok, jump_ok) for the dwell-clock policy.

    Flow is allowed while the threshold is unmet or the clock is within
    [0, t_star]; a jump is allowed on the threshold surface once the clock
    has run past t_star, or anywhere at/beyond the surface exactly when the
    clock reads t_star.
    """
    _checked(q, cert, PolicyKind.TIME_REGULARIZED, sigma=sigma, t_star=t_star)
    margin = naive_event(q, cert, sigma)
    flow_ok = margin <= 0.0 or q.tau <= t_star
    jump_ok = (margin == 0.0 and q.tau >= t_star) or (margin >= 0.0 and q.tau == t_star)
    return flow_ok, jump_ok


def time_regularized_margin(q: HybridState, cert, sigma: float,
                            t_star: float) -> float:
    """Scalar event function used for localization: the dwell-clock margin."""
    policy = _checked(q, cert, PolicyKind.TIME_REGULARIZED, sigma=sigma, t_star=t_star)
    return policy.margin(cert, q.x, q.e, q.tau)


def periodic_event(t_since_jump: float, period: float) -> float:
    """Signed margin t_since_jump - period for the periodic baseline."""
    return _checked(None, None, PolicyKind.PERIODIC, period=period).margin(
        None, None, None, t_since_jump)
