"""Constant derivation, assumption validation, and analysis-parameter selection.

From quadratic Lyapunov data (P1, P2, decay rates, a common Lipschitz
constant) this module derives every constant required by the stability
assumptions, computes the closed-form maximum dwell time and the
closed-form solution of its comparison ODE, selects the decay/weight
parameters used by the two stability analyses, and searches for the largest
certified singular-perturbation parameter.

All operations are pure functions of their inputs; grid searches are
deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    CertificateError,
    CertificateInfeasibleError,
    ConfigurationError,
    InfeasibleDwellError,
)
from .hybrid import (
    SampleArgs,
    _dot_rows,
    _is_flat,
    _quad_rows,
    check_numbers,
    field_keys,
    read_section,
    record_dict,
)
from .plant import _SAMPLE_CHUNK, PlantSpec, _batch_map, _held_rows, _jump_rows
from .triggers import GammaForm, _pow_rows

__all__ = [
    "QuadraticLyapunovData",
    "AssumptionConstants",
    "LyapunovCertificate",
    "AnalysisParameters",
    "DwellComparison",
    "AssumptionReport",
    "FamilyResult",
    "derive_constants",
    "max_dwell_time",
    "dwell_time_ode",
    "select_analysis_parameters",
    "epsilon_star_search",
    "validate_assumptions",
    "trigger_slope_bound",
    "sample_in_ball",
]

SLACK_TOL = -1e-9
_SYM_TOL = 1e-12  # largest asymmetry of P1 and P2, relative to max(1, norm)
_N_VARTHETA = 10  # vartheta floors scanned, log-spaced in [1e-4, 0.9]
_MU_BISECT_ITERS = 28  # bisection steps for the largest mu whose transit covers t_star
_EPS_FLOOR = 1e-12  # smallest eps that the epsilon* search and its ranking certify
# The keyword arguments of epsilon_star_search that each analysis mode takes.
_MODE_TAKES = {"practical": ("rho", "xi_delta"), "dwell": ("d", "dwell_ode")}


def sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform sample from the closed ball of the given radius."""
    return _draw_in_balls(rng, 1, ((dim, radius),))[0][0]


def _draw_in_balls(rng: np.random.Generator, n_samples: int,
                   balls: tuple[tuple[int, float], ...]) -> list[np.ndarray]:
    """(n_samples, dim) uniform rows per (dim, radius) ball, drawn ball by
    ball: the standard normal directions v of all rows in one call, then
    one random() per row whose v is nonzero, in one call, which scales the
    row by radius * random() ** (1 / dim) / |v|; a zero v stays a zero row.
    One row of one ball (sample_in_ball) reads the stream as a single
    sample drawn alone. Several rows do not read it sample by sample, so
    rows drawn in chunks depend on the chunk size."""
    out = []
    for dim, radius in balls:
        v = rng.standard_normal((n_samples, dim))
        norm = np.sqrt(_dot_rows(v, v))
        moved = norm != 0.0
        if moved.all():  # the usual case: no mask to gather or scatter by
            scale = radius * _pow_rows(rng.random(n_samples), 1.0 / dim) / norm
        else:
            scale = np.zeros(n_samples)
            scale[moved] = (radius * _pow_rows(rng.random(np.count_nonzero(moved)), 1.0 / dim)
                            / norm[moved])
        out.append(np.multiply(v, scale[:, None], out=v))
    return out


def _spectral_norm(p: np.ndarray) -> float:
    return float(np.linalg.norm(p, 2))


def _check_spd(p: np.ndarray, name: str) -> None:
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise CertificateError(f"{name} must be square, got shape {p.shape}")
    asym = float(np.max(np.abs(p - p.T))) if p.size else 0.0
    scale = max(1.0, _spectral_norm(p))
    if asym > _SYM_TOL * scale:
        raise CertificateError(f"{name} is not symmetric (asymmetry {asym:.3e})")
    eigmin = float(np.min(np.linalg.eigvalsh(p)))
    if eigmin <= 0.0:
        raise CertificateError(f"{name} is not positive definite (min eig {eigmin:.3e})")


@dataclass(frozen=True)
class QuadraticLyapunovData:
    """Quadratic Lyapunov data for the slow and fast models.

    Vx(x) = x'P1 x certifies the slow loop at rate alpha1_bar (with fresh
    feedback and no error), Vy(y) = y'P2 y certifies the fast model at rate
    alpha2, and l_bar is a common Lipschitz constant of the plant maps
    f, g, k and the root h.
    """

    p1: np.ndarray
    p2: np.ndarray
    alpha1_bar: float
    alpha2: float
    l_bar: float

    _BOUNDS = {**dict.fromkeys(("p1", "p2"), "(-inf, inf)"),
               **dict.fromkeys(("alpha1_bar", "alpha2", "l_bar"), "(0, inf)")}

    def __post_init__(self):
        for name in ("p1", "p2"):
            p = np.atleast_2d(np.asarray(getattr(self, name), dtype=float)).copy()
            p.flags.writeable = False
            object.__setattr__(self, name, p)
        check_numbers("QuadraticLyapunovData", self, self._BOUNDS, CertificateError)
        _check_spd(self.p1, "P1")
        _check_spd(self.p2, "P2")
        for name in ("alpha1_bar", "alpha2", "l_bar"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def v_x(self, x: np.ndarray) -> float:
        x = x if _is_flat(x) else np.asarray(x, dtype=float).reshape(-1)
        return float(x @ self.p1 @ x)

    def v_y(self, y: np.ndarray) -> float:
        y = y if _is_flat(y) else np.asarray(y, dtype=float).reshape(-1)
        return float(y @ self.p2 @ y)

    @classmethod
    def from_dict(cls, cfg: dict) -> "QuadraticLyapunovData":
        return cls(**read_section("Lyapunov data", cfg, field_keys(cls)))

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class AssumptionConstants:
    """Every constant of the stability assumptions, as derived or supplied.

    gamma1/gamma2 are quadratic class-K-infinity gains; l_link bounds the
    composition gamma2 o gamma1^{-1}(s) <= l_link * s, which for equal
    powers reduces to gamma2.coeff / gamma1.coeff <= l_link.
    """

    alpha1: float
    gamma1: GammaForm
    alpha2: float
    beta1: float
    beta2: float
    beta3: float
    gamma2: GammaForm
    l_link: float
    lambda1: float
    lambda2: float
    m_err: float
    n_err: float

    _BOUNDS = {**dict.fromkeys(("alpha1", "alpha2"), "(0, inf)"),
               **dict.fromkeys(("beta1", "beta2", "beta3", "l_link", "lambda1",
                                "lambda2", "m_err", "n_err"), "[0, inf)")}

    def __post_init__(self):
        check_numbers("AssumptionConstants", self, self._BOUNDS, CertificateError)
        if self.gamma1.power != self.gamma2.power:
            raise CertificateError(
                "gamma1 and gamma2 must share the same power for the link condition"
            )
        if self.gamma1.coeff > 0.0:
            ratio = self.gamma2.coeff / self.gamma1.coeff
            if ratio > self.l_link * (1.0 + 1e-12):
                raise CertificateError(
                    f"link condition violated: gamma2/gamma1 = {ratio:.6g} "
                    f"> l_link = {self.l_link:.6g}"
                )

    @property
    def gamma1_bar(self) -> float:
        return self.gamma1.coeff

    @property
    def gamma2_bar(self) -> float:
        return self.gamma2.coeff

    def lambda_jump(self, sigma: float) -> float:
        """Jump-growth factor used by the dwell-clock analysis."""
        return max(self.lambda2, (self.lambda1 + self.lambda2) * sigma * self.alpha1)

    def lambda_practical(self, sigma: float) -> float:
        """Jump-growth factor used by the dead-zone analysis."""
        return (self.lambda1 + self.lambda2) * max(sigma * self.alpha1, 1.0)

    def to_dict(self) -> dict:
        """record_dict, with each gain split into <name>_bar and <name>_power."""
        out = {}
        for name, value in record_dict(self).items():
            if isinstance(value, dict):
                out[f"{name}_bar"], out[f"{name}_power"] = value["coeff"], value["power"]
            else:
                out[name] = value
        return out


def derive_constants(data: QuadraticLyapunovData) -> AssumptionConstants:
    """Derive all assumption constants from quadratic data.

    Matrix norms are spectral norms; the bounds trace the globally
    Lipschitz construction from l_bar and the two decay conditions. That
    per-map construction does not bound composed maps such as Hu K, so
    the constants hold for a given plant only where validate_assumptions
    finds no violated inequality.
    """
    p1, p2 = data.p1, data.p2
    lbar = data.l_bar
    a1b = data.alpha1_bar
    p1n = _spectral_norm(p1)
    p2n = _spectral_norm(p2)
    p1min = float(np.min(np.linalg.eigvalsh(p1)))
    p2min = float(np.min(np.linalg.eigvalsh(p2)))

    try:  # lbar**2 raises OverflowError; a product that reaches inf fails a gain
        return AssumptionConstants(
            alpha1=a1b / 2.0,
            gamma1=GammaForm(2.0 * lbar**2 * p1n**2 / (a1b * p1min)),
            alpha2=data.alpha2,
            beta1=2.0 * lbar * p1n / math.sqrt(p1min * p2min),
            beta2=2.0 * lbar**2 * p2n / math.sqrt(p1min * p2min),
            beta3=4.0 * lbar**2 * p2n / p2min,
            gamma2=GammaForm(2.0 * lbar**2 * p2n),
            l_link=a1b * p1min * p2n / p1n**2,
            lambda1=0.5 * a1b * p1min * p2n / p1n**2,
            lambda2=math.sqrt(a1b * p1min) * p2n / (p1n * math.sqrt(p2min)),
            m_err=lbar,
            n_err=lbar * max(p1min ** -0.5, p2min ** -0.5),
        )
    except (OverflowError, ConfigurationError) as exc:
        raise CertificateError(f"l_bar {lbar:g} is too large: a constant overflows") from exc


@dataclass(frozen=True)
class LyapunovCertificate:
    """Quadratic data plus its derived constants, as one handle."""

    data: QuadraticLyapunovData
    constants: AssumptionConstants

    @classmethod
    def derive(cls, data: QuadraticLyapunovData) -> "LyapunovCertificate":
        return cls(data=data, constants=derive_constants(data))

    # cached: the integrator reads both at every margin
    @functools.cached_property
    def alpha1(self) -> float:
        return self.constants.alpha1

    @functools.cached_property
    def gamma1(self) -> GammaForm:
        return self.constants.gamma1

    def v_x(self, x) -> float:
        return self.data.v_x(x)

    def v_y(self, y) -> float:
        return self.data.v_y(y)


# ---------------------------------------------------------------------------
# Dwell-time bound and the comparison ODE
# ---------------------------------------------------------------------------


def max_dwell_time(m_err: float, n_err: float, gamma1_bar: float,
                   alpha1: float) -> float:
    """Closed-form upper bound on the enforceable dwell time.

    With ratio = gamma1_bar * N^2 / (alpha1 * M^2) and
    r = sqrt(|ratio - 1|): arctan(r)/(M r) above the boundary, 1/M on it,
    artanh(r)/(M r) below. The three branches join continuously at r = 0.
    Each argument is a positive number, else a CertificateError.
    """
    args = {"m_err": m_err, "n_err": n_err, "gamma1_bar": gamma1_bar, "alpha1": alpha1}
    check_numbers("max_dwell_time", args, dict.fromkeys(args, "(0, inf)"), CertificateError)
    ratio = gamma1_bar * n_err**2 / (alpha1 * m_err**2)
    r = math.sqrt(abs(ratio - 1.0))
    if r < 1e-9:
        return 1.0 / m_err
    if ratio > 1.0:
        return math.atan(r) / (m_err * r)
    return math.atanh(r) / (m_err * r)


@dataclass(frozen=True)
class DwellComparison:
    """Closed-form solution of the comparison ODE w' = -(G w^2 + B w + C),
    from w(0) = 1/vartheta down to w = vartheta, reached at transit_time.

    With G >= 0 and B, C > 0 the ODE is a separable Riccati equation with
    constant coefficients (Hale, Ordinary Differential Equations, 1969):
    for F an antiderivative of 1/(G w^2 + B w + C) on w > 0,
    transit_time = F(1/vartheta) - F(vartheta) and
    w(tau) = F^-1(F(1/vartheta) - tau). F is an arctangent if 4GC > B^2, the
    log of a ratio if 4GC < B^2, rational if 4GC = B^2 and log(B w + C)/B if
    G = 0. evaluate is 1/vartheta for tau <= 0 and vartheta from transit_time.
    """

    g: float
    b: float
    c: float
    vartheta: float

    def _antiderivative(self, w: float) -> float:
        g, b, c = self.g, self.b, self.c
        if g == 0.0:
            return math.log(b * w + c) / b
        disc, z = 4.0 * g * c - b * b, 2.0 * g * w + b
        rt = math.sqrt(abs(disc))
        if disc > 0.0:
            return 2.0 / rt * math.atan(z / rt)
        if disc < 0.0:
            return math.log((z - rt) / (z + rt)) / rt
        return -2.0 / z

    def _antiderivative_inverse(self, s: float) -> float:
        g, b, c = self.g, self.b, self.c
        if g == 0.0:
            return (math.exp(b * s) - c) / b
        disc = 4.0 * g * c - b * b
        rt = math.sqrt(abs(disc))
        if disc > 0.0:
            z = rt * math.tan(0.5 * rt * s)
        elif disc < 0.0:
            q = math.exp(rt * s)
            z = rt * (1.0 + q) / (1.0 - q)
        else:
            z = -2.0 / s
        return (z - b) / (2.0 * g)

    # F(1/vartheta) and the transit time are computed once per instance and
    # kept outside the fields, so equality and record_dict do not see them.
    @functools.cached_property
    def _start(self) -> float:
        return self._antiderivative(1.0 / self.vartheta)

    @functools.cached_property
    def transit_time(self) -> float:
        return self._start - self._antiderivative(self.vartheta)

    def evaluate(self, tau: float) -> float:
        if tau <= 0.0:
            return 1.0 / self.vartheta
        if tau >= self.transit_time:
            return self.vartheta
        return self._antiderivative_inverse(self._start - tau)


def _comparison_coeff(mu: float, n_err: float, gamma1_bar: float, alpha1: float) -> float:
    """G = gamma1_bar N^2/(alpha1 - mu), the quadratic coefficient of the comparison ODE."""
    return gamma1_bar / (alpha1 - mu) * n_err**2


def dwell_time_ode(mu: float, vartheta: float, m_err: float, n_err: float,
                   gamma1_bar: float, alpha1: float) -> DwellComparison:
    """The decay comparison ODE, solved in closed form.

    w' = -1 - 2*M*w - mu - (mu*w + gamma1_bar/(alpha1-mu)*(N*w)^2), from
    w(0) = 1/vartheta until w = vartheta, is w' = -(G w^2 + B w + C) with
    G = gamma1_bar N^2/(alpha1 - mu), B = 2M + mu and C = 1 + mu; the
    returned DwellComparison gives its transit time and w(tau). Since
    w' <= -1 the transit time is at most 1/vartheta - vartheta.
    """
    if not 0.0 < mu < alpha1:
        raise CertificateError(f"mu must lie in (0, alpha1={alpha1:.6g}), got {mu}")
    if not 0.0 < vartheta < 1.0:
        raise CertificateError(f"vartheta must lie in (0, 1), got {vartheta}")
    g, b = _comparison_coeff(mu, n_err, gamma1_bar, alpha1), 2.0 * m_err + mu
    # G >= 0, B > 0 and C > 1 make G w^2 + B w + C > 1 on w > 0: w reaches vartheta.
    if not (0.0 <= g < math.inf and 0.0 < b < math.inf):
        raise CertificateError(
            f"the comparison ODE needs G >= 0 and B > 0, finite; got G={g}, B={b}")
    return DwellComparison(g=g, b=b, c=1.0 + mu, vartheta=vartheta)


# ---------------------------------------------------------------------------
# Analysis-parameter selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisParameters:
    """Selected parameters for one of the two stability analyses.

    For the dead-zone analysis (mode "practical"): mu, theta, and the jump
    factors are set; the dwell fields are informative only. For the
    dwell-clock analysis (mode "dwell"): mu, vartheta, t_star, d_weight,
    psi are all set with t_star <= dwell_bound_ode < dwell_bound, and
    d_weight is half the minimum of its five admissibility bounds.
    """

    mode: str
    sigma: float
    mu: float
    dwell_bound: float
    lambda_jump: float
    lambda_practical: float
    epsilon_star: Optional[float] = None
    vartheta: Optional[float] = None
    t_star: Optional[float] = None
    dwell_bound_ode: Optional[float] = None
    d_weight: Optional[float] = None
    psi: Optional[float] = None
    theta: Optional[float] = None
    dwell_ode: Optional[DwellComparison] = None

    def with_epsilon_star(self, epsilon_star: float) -> "AnalysisParameters":
        return replace(self, epsilon_star=float(epsilon_star))

    def to_dict(self) -> dict:
        return record_dict(self, skip=("dwell_ode",))


def _d_weight_bounds(consts: AssumptionConstants, sigma: float, mu: float,
                     vartheta: float, t_star: float) -> list[float]:
    lam = consts.lambda_jump(sigma)
    g1, g2 = consts.gamma1_bar, consts.gamma2_bar
    ratio = math.inf if g2 == 0.0 else g1 / g2
    lsum = consts.lambda1 + consts.lambda2
    return [
        ratio * mu,
        (1.0 - sigma) / sigma * ratio,
        math.inf if lsum == 0.0 else vartheta**2 / lsum**2,
        math.inf if lam == 0.0 else (math.expm1(mu * t_star) / lam) ** 2,
        1.0,
    ]


def _psi_ceiling(mu: float, lam: float, d: float, t_star: float) -> float:
    return (mu - math.log1p(lam * math.sqrt(d)) / t_star) / (1.0 / t_star + 1.0)


def _overflow_is_typed(fn):
    """fn, raising a CertificateError where an OverflowError escapes it."""
    @functools.wraps(fn)
    def typed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise CertificateError(f"a certificate constant overflows in {fn.__name__}") from exc
    return typed


@_overflow_is_typed
def select_analysis_parameters(consts: AssumptionConstants, sigma: float,
                               t_star: Optional[float] = None,
                               mode: str = "dwell") -> AnalysisParameters:
    """Select the decay margin and companion parameters for one analysis.

    mode "practical": mu = alpha1 (1 - sigma) / 2 and the offset factor theta.
    mode "dwell": requires t_star below the closed-form dwell bound; scans
    _N_VARTHETA (10) log-spaced vartheta floors in [1e-4, 0.9], bisecting
    in _MU_BISECT_ITERS (28) steps for the largest mu whose comparison-ODE
    transit still covers t_star, and keeps the candidate with the largest
    certified hybrid rate psi. The transit times and the returned
    dwell_ode are the closed form of dwell_time_ode. sigma is a number in
    (0, 1) and a dwell t_star a positive number, else a CertificateError;
    so is any t_star in practical mode, as in epsilon_star_search.
    """
    check_numbers("select_analysis_parameters", {"sigma": sigma}, {"sigma": "(0, 1)"},
                  CertificateError)
    if mode == "practical" and t_star is not None:
        raise CertificateError("practical analysis does not take t_star")
    dwell = max_dwell_time(consts.m_err, consts.n_err, consts.gamma1_bar,
                           consts.alpha1)
    lam_jump_free = consts.lambda_jump(sigma)
    lam_practical = consts.lambda_practical(sigma)

    if mode == "practical":
        mu = 0.5 * consts.alpha1 * (1.0 - sigma)
        theta = (1.0 + 2.0 * lam_practical) * max(
            2.0 * (1.0 + consts.l_link) / mu, 1.0
        )
        return AnalysisParameters(
            mode="practical", sigma=sigma, mu=mu, dwell_bound=dwell,
            lambda_jump=lam_jump_free, lambda_practical=lam_practical,
            theta=theta,
        )

    if mode != "dwell":
        raise CertificateError(f"unknown analysis mode {mode!r}")
    if t_star is None:
        raise CertificateError("dwell mode needs the requested dwell time t_star")
    check_numbers("select_analysis_parameters", {"t_star": t_star}, {"t_star": "(0, inf)"},
                  CertificateError)
    if not t_star < dwell:
        raise InfeasibleDwellError(t_star, dwell)

    def comparison(mu: float, vartheta: float) -> DwellComparison:
        return dwell_time_ode(mu, vartheta, consts.m_err, consts.n_err,
                              consts.gamma1_bar, consts.alpha1)

    best = None
    mu_floor = 1e-4 * consts.alpha1
    for vartheta in np.geomspace(1e-4, 0.9, _N_VARTHETA):
        vartheta = float(vartheta)
        if comparison(mu_floor, vartheta).transit_time < t_star:
            continue
        lo = _bisect_largest(lambda mu: comparison(mu, vartheta).transit_time >= t_star,
                             mu_floor, consts.alpha1 * (1.0 - 1e-9), _MU_BISECT_ITERS)
        mu = 0.98 * lo  # back off so the transit covers t_star with margin
        if mu <= 0.0:
            continue
        d = 0.5 * min(_d_weight_bounds(consts, sigma, mu, vartheta, t_star))
        psi_max = _psi_ceiling(mu, lam_jump_free, d, t_star)
        if psi_max <= 0.0:
            continue
        psi = 0.5 * psi_max
        # Rank candidates by certified rate times certified eps range: a
        # small vartheta inflates the comparison value's excursion and
        # collapses the eps certificate, so psi alone is a poor objective.
        eps_est = _dwell_eps_estimate(consts, sigma, mu, d, vartheta)
        score = psi * eps_est
        if best is None or score > best[0]:
            best = (score, psi, mu, vartheta, d)

    if best is None:
        raise CertificateInfeasibleError(
            f"no (mu, vartheta) pair covers the requested dwell time {t_star:.6g}"
        )
    _, psi, mu, vartheta, d = best
    ode = comparison(mu, vartheta)
    return AnalysisParameters(
        mode="dwell", sigma=sigma, mu=mu, vartheta=vartheta, t_star=t_star,
        dwell_bound=dwell, dwell_bound_ode=ode.transit_time, d_weight=d,
        lambda_jump=lam_jump_free, lambda_practical=lam_practical,
        psi=psi, dwell_ode=ode,
    )


# ---------------------------------------------------------------------------
# Certified singular-perturbation bound
# ---------------------------------------------------------------------------


def _minors_nonnegative(a11: float, d2: float, b: float, w33: Optional[float] = None,
                        c: Optional[float] = None) -> bool:
    """Whether the 1x1, 2x2 and, given w33 and c, 3x3 leading minors of
    [[a11, -b, -c], [-b, d2, -c], [-c, -c, w33]] are all >= 0, decided
    exactly on the float entries; a non-finite entry is not certified.

    Each minor is a homogeneous polynomial in the entries, so scaling every
    entry by one power of two (the largest denominator of their
    as_integer_ratio) keeps its sign and makes it an integer. What stays
    inexact is the entries themselves, rounded where they are computed.
    """
    entries = (a11, d2, b) if w33 is None else (a11, d2, b, w33, c)
    try:
        ratios = [v.as_integer_ratio() for v in entries]
    except (OverflowError, ValueError):  # an infinity or a NaN
        return False
    scale = max([q for _, q in ratios])
    a11, d2, b, *rest = [p * (scale // q) for p, q in ratios]
    minor2 = a11 * d2 - b * b
    if a11 < 0 or minor2 < 0:
        return False
    if not rest:
        return True
    w33, c = rest
    return minor2 * w33 >= c * c * (a11 + 2 * b + d2)  # the determinant, expanded


def _practical_feasible(eps: float, consts: AssumptionConstants, sigma: float,
                   mu: float, rho: Optional[float],
                   xi_delta: Optional[float]) -> bool:
    """The dead-zone flow form's 2x2 minors at eps, then the rho/xi_delta log condition."""
    if eps > 1.0:  # sqrt(eps) <= eps**0.25 needs eps <= 1
        return False
    se = math.sqrt(eps)
    slow = consts.alpha1 * (1.0 - sigma * (1.0 + se * consts.l_link))
    fast = consts.alpha2 / se - se * (consts.beta3 + mu)
    if not _minors_nonnegative(slow - mu, fast, 0.5 * (consts.beta1 + se * consts.beta2)):
        return False
    if rho is not None:  # epsilon_star_search takes rho and xi_delta together
        lam = consts.lambda_practical(sigma)
        if (4.0 / mu) * math.log1p(2.0 * eps**0.25 * lam) > rho / xi_delta:
            return False
    return True


def _a1_entries(eps: float, consts: AssumptionConstants, mu: float, d: float,
                w: float) -> tuple[float, float, float, float, float]:
    """(a11, d2, b, w33, c) of A1 - mu * diag(1, d, g1*w) = [[a11, -b, -c], [-b, d2, -c],
    [-c, -c, w33]], with A1 the flow form in (sqrt(Vx), sqrt(Vy), |e|) while w > 0."""
    g1 = consts.gamma1_bar
    b = 0.5 * (consts.beta1 + d * consts.beta2)
    c = g1 * consts.n_err * w
    d2 = d * (consts.alpha2 / eps - consts.beta3 - mu)
    a11 = consts.alpha1 - mu
    # A1's last entry is -g1 - d*g2 - g1*f_w - 2*g1*M*w with f_w the comparison
    # ODE rate, which collapses to mu*g1*(1 + w) - d*g2 + g1^2 N^2 w^2/(alpha1-mu).
    upsilon = (mu * g1 * (1.0 + w) - d * consts.gamma2_bar
               + g1 * _comparison_coeff(mu, consts.n_err, g1, consts.alpha1) * w * w)
    return a11, d2, b, upsilon - mu * g1 * w, c


def _dwell_feasible(eps: float, consts: AssumptionConstants, sigma: float,
                   mu: float, d: float, vartheta: float) -> bool:
    """The dwell certificate's flow-form conditions at eps, for the comparison
    solution that falls from 1/vartheta to vartheta.

    While w > 0 the 3x3 form is checked at the trajectory's two ends only,
    which covers every clock value: its 1x1 and 2x2 leading minors do not
    depend on w, and with w33 = p + q w^2 and c^2 = r w^2 its determinant is
    (a11 d2 - b^2) w33 - c^2 (a11 + 2b + d2), affine in w^2. w falls
    monotonically, so the determinant's minimum over the trajectory sits at
    w = 1/vartheta or at w = vartheta. Both ends are checked, since the
    entries are rounded. Once the comparison value has gone negative, the
    form is the 2x2 of (sqrt(Vx), sqrt(Vy)).
    """
    if eps > 1.0:
        return False
    if not all(_minors_nonnegative(*_a1_entries(eps, consts, mu, d, w))
               for w in (1.0 / vartheta, vartheta)):
        return False
    g1, g2 = consts.gamma1_bar, consts.gamma2_bar
    slow = consts.alpha1 * (1.0 - sigma * (1.0 + (d * g2 / g1 if g1 > 0 else 0.0)))
    fast = d * (consts.alpha2 / eps - consts.beta3) - mu * d
    return _minors_nonnegative(slow - mu, fast, 0.5 * (consts.beta1 + d * consts.beta2))


def _bisect_largest(ok: Callable[[float], bool], lo: float, hi: float,
                    iterations: int) -> float:
    """Largest x in [lo, hi] with ok(x), for ok monotone and ok(lo) true.

    Returns hi if ok(hi); otherwise bisects, always keeping ok(lo).
    """
    if ok(hi):
        return hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _log_eps_bisect(feasible: Callable[[float], bool], iterations: int) -> Optional[float]:
    """Largest feasible eps in [_EPS_FLOOR, 1] by log-eps bisection, or None."""
    if not feasible(_EPS_FLOOR):  # the floor itself: exp(log(_EPS_FLOOR)) rounds
        return 1.0 if feasible(1.0) else None
    return math.exp(_bisect_largest(lambda s: feasible(math.exp(s)),
                                    math.log(_EPS_FLOOR), 0.0, iterations))


def _dwell_eps_estimate(consts: AssumptionConstants, sigma: float, mu: float,
                       d: float, vartheta: float) -> float:
    """Cheap eps bound for candidate ranking inside parameter selection: the
    dwell search's own feasibility test, in 40 log-eps bisection steps
    instead of 80."""
    estimate = _log_eps_bisect(
        lambda eps: _dwell_feasible(eps, consts, sigma, mu, d, vartheta), 40)
    return 0.0 if estimate is None else estimate


@_overflow_is_typed
def epsilon_star_search(consts: AssumptionConstants, sigma: float, mu: float,
                        mode: str, *, d: Optional[float] = None,
                        dwell_ode: Optional[DwellComparison] = None,
                        rho: Optional[float] = None,
                        xi_delta: Optional[float] = None) -> float:
    """Largest certified singular-perturbation parameter in [1e-12, 1].

    Bisects in log-eps from _EPS_FLOOR; all certificate inequalities are
    monotone (they only get harder as eps grows), and the returned value is
    re-checked against every defining inequality. One test,
    _minors_nonnegative, decides the sign of every minor of the flow forms,
    exactly on their float entries; practical mode's rho/xi_delta log
    condition stays in float. Dwell mode checks its 3x3 form at the two
    ends, 1/vartheta and vartheta, of the comparison solution dwell_ode,
    which covers every clock value (see _dwell_feasible). Only practical
    mode takes rho with xi_delta, only dwell mode d and dwell_ode. sigma is
    a number in (0, 1) and mu a positive number, else a CertificateError.
    """
    check_numbers("epsilon_star_search", {"sigma": sigma, "mu": mu},
                  {"sigma": "(0, 1)", "mu": "(0, inf)"}, CertificateError)
    if mode not in _MODE_TAKES:
        raise CertificateError(f"unknown analysis mode {mode!r}")
    for name, value in (("d", d), ("dwell_ode", dwell_ode), ("rho", rho), ("xi_delta", xi_delta)):
        if value is not None and name not in _MODE_TAKES[mode]:
            raise CertificateError(f"{mode} analysis does not take {name}")
    if (rho is None) != (xi_delta is None):
        raise CertificateError("rho and xi_delta are given together or not at all")
    if mode == "practical":
        if not mu < consts.alpha1 * (1.0 - sigma):
            raise CertificateError(
                f"practical mode needs mu in (0, alpha1*(1-sigma)), got {mu}"
            )

        def feasible(eps: float) -> bool:
            return _practical_feasible(eps, consts, sigma, mu, rho, xi_delta)

    else:
        if not mu < consts.alpha1:
            raise CertificateError(f"dwell mode needs mu in (0, alpha1), got {mu}")
        if d is None or dwell_ode is None:
            raise CertificateError("dwell mode needs d and the stored comparison ODE")

        def feasible(eps: float) -> bool:
            return _dwell_feasible(eps, consts, sigma, mu, d, dwell_ode.vartheta)

    eps_star = _log_eps_bisect(feasible, 80)
    if eps_star is None:
        raise CertificateInfeasibleError(
            f"no eps above {_EPS_FLOOR:.1e} passes the certificate inequalities"
        )
    if not feasible(eps_star):
        raise CertificateError("postcondition failed: eps_star does not re-pass")
    return eps_star


# ---------------------------------------------------------------------------
# Sampled validation of the assumption inequalities
# ---------------------------------------------------------------------------


FAMILY_NAMES = (
    "slow_iss",
    "fast_decay",
    "coupling_slow",
    "coupling_fast",
    "jump_growth",
    "error_growth",
)


@dataclass(frozen=True)
class FamilyResult:
    name: str
    worst_slack: float
    witness: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.worst_slack >= SLACK_TOL


@dataclass(frozen=True)
class AssumptionReport:
    families: tuple[FamilyResult, ...]
    n_samples: int
    box: float

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)

    def family(self, name: str) -> FamilyResult:
        for f in self.families:
            if f.name == name:
                return f
        raise KeyError(name)


def _assumption_slacks(spec: PlantSpec, data: QuadraticLyapunovData,
                       consts: AssumptionConstants, x: np.ndarray, y: np.ndarray,
                       e: np.ndarray) -> dict:
    """Slack of each inequality family per (x, y, e) row; NaN where none."""
    p1, p2 = data.p1, data.p2
    u, h_held = _held_rows(spec, x, e)
    f_x = _batch_map(spec, "f", x, y + h_held, u)
    f_s = _batch_map(spec, "f", x, h_held, u)
    g_f = _batch_map(spec, "g", x, y + h_held, u)
    jac_f_x = (_batch_map(spec, "dh_dx", x, u) @ f_x[:, :, None])[:, :, 0]

    v_x = _quad_rows(x, p1)
    v_y = _quad_rows(y, p2)
    e_norm = np.sqrt(_dot_rows(e, e))
    g1_e, g2_e = consts.gamma1.rows(e_norm), consts.gamma2.rows(e_norm)
    grad_vx = 2.0 * (p1 @ x[:, :, None])[:, :, 0]
    grad_vy = 2.0 * (p2 @ y[:, :, None])[:, :, 0]
    sqrt_vxy = np.sqrt(np.maximum(v_x * v_y, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        error_growth = (consts.m_err * e_norm
                        + consts.n_err * (np.sqrt(v_x) + np.sqrt(v_y))
                        + _dot_rows(e, f_x) / e_norm)
    return {
        "slow_iss": -consts.alpha1 * v_x + g1_e - _dot_rows(grad_vx, f_s),
        "fast_decay": -consts.alpha2 * v_y - _dot_rows(grad_vy, g_f),
        "coupling_slow": consts.beta1 * sqrt_vxy - _dot_rows(grad_vx, f_x - f_s),
        "coupling_fast": (consts.beta2 * sqrt_vxy + consts.beta3 * v_y + g2_e
                          + _dot_rows(grad_vy, jac_f_x)),
        "jump_growth": (v_y + consts.lambda1 * g1_e
                        + consts.lambda2 * np.sqrt(np.maximum(g1_e * v_y, 0.0))
                        - _quad_rows(_jump_rows(spec, x, y, h_held), p2)),
        "error_growth": np.where(e_norm > 0.0, error_growth, np.nan),
    }


def validate_assumptions(spec: PlantSpec, data: QuadraticLyapunovData,
                         consts: AssumptionConstants, n_samples: int = 10_000,
                         box: float = 10.0, seed: int = 0) -> AssumptionReport:
    """Check every assumption inequality on random samples in a box.

    Samples (x, y, e) uniformly in [-box, box]^dim and evaluates the six
    inequality families with the supplied constants; each family must keep
    its worst slack above -1e-9. A violating family carries the witness
    point that achieved the worst slack. Samples are drawn and evaluated
    in chunks of _SAMPLE_CHUNK rows, in the order one draw would give.
    n_samples is a nonnegative integer and box a positive number, else a
    CertificateError.
    """
    check_numbers("validate_assumptions", SampleArgs(n_samples, box),
                  {"n_samples": "[0, inf)", "box": "(0, inf)"}, CertificateError)
    n_x, n_y = spec.n_x, spec.n_y
    rng = np.random.default_rng(seed)
    # (worst slack, its sample) per family; inf stands when no sample counts
    worst = {name: (math.inf, None) for name in FAMILY_NAMES}
    for start in range(0, n_samples, _SAMPLE_CHUNK):
        rows = min(_SAMPLE_CHUNK, n_samples - start)
        draws = rng.uniform(-box, box, (rows, 2 * n_x + n_y))
        x, y, e = np.split(draws, [n_x, n_x + n_y], axis=1)
        for name, slack in _assumption_slacks(spec, data, consts, x, y, e).items():
            # the first smallest slack, a NaN skipped as `slack < worst` skips it
            slack = np.where(np.isnan(slack), math.inf, slack)
            i = int(np.argmin(slack))
            if slack[i] < worst[name][0]:
                worst[name] = (float(slack[i]), (x[i].copy(), y[i].copy(), e[i].copy()))
    families = tuple(FamilyResult(name, slack, point if slack < SLACK_TOL else None)
                     for name, (slack, point) in worst.items())
    return AssumptionReport(families=families, n_samples=n_samples, box=box)


def trigger_slope_bound(spec: PlantSpec, data: QuadraticLyapunovData,
                        consts: AssumptionConstants, theta: float, rho: float,
                        delta: float, n_samples: int = 100_000, seed: int = 1,
                        inflation: float = 1.1) -> float:
    """Sampled supremum of d/dt gamma1(|e|) over the reachable compact set.

    The set is the sublevel region that trajectories from a ball of radius
    delta stay in: Vx and Vy at most max(alpha_upper(delta), theta * rho),
    with |e| at most twice the largest |x| in that region. The sampled
    supremum of gamma1'(|e|) * |f_x| is inflated by 10% to compensate the
    sampling gap; rho divided by this bound lower-bounds inter-event times.
    The samples are drawn in chunks of _SAMPLE_CHUNK rows, each chunk ball
    by ball (_draw_in_balls), so the value at a seed depends on the chunk
    size. n_samples is a nonnegative integer, theta and rho are positive
    numbers, delta a nonnegative number and inflation a number of at least
    1, else a CertificateError; so is a level whose ball radii are not finite.
    """
    check_numbers("trigger_slope_bound", SampleArgs(n_samples),
                  {"n_samples": "[0, inf)"}, CertificateError)
    check_numbers("trigger_slope_bound",
                  {"theta": theta, "rho": rho, "delta": delta, "inflation": inflation},
                  {"theta": "(0, inf)", "rho": "(0, inf)", "delta": "[0, inf)",
                   "inflation": "[1, inf)"}, CertificateError)
    rng = np.random.default_rng(seed)
    p1, p2 = data.p1, data.p2
    eig1, eig2 = np.linalg.eigvalsh(p1), np.linalg.eigvalsh(p2)
    level = max(float(eig1.max() + eig2.max()) * delta * delta, theta * rho)
    x_max = math.sqrt(level / float(eig1.min()))
    y_max = math.sqrt(level / float(eig2.min()))
    e_max = 2.0 * x_max
    if not math.isfinite(e_max + y_max):
        raise CertificateError(
            f"trigger slope level {level:.3e} (from delta or theta * rho) gives "
            f"ball radii that are not finite: x {x_max:.3e}, y {y_max:.3e}, e {e_max:.3e}")

    balls = ((spec.n_x, x_max), (spec.n_y, y_max), (spec.n_x, e_max))
    sup = 0.0
    for start in range(0, n_samples, _SAMPLE_CHUNK):
        x, y, e = _draw_in_balls(rng, min(_SAMPLE_CHUNK, n_samples - start), balls)
        inside = ~((_quad_rows(x, p1) > level) | (_quad_rows(y, p2) > level))
        x, y, e = x[inside], y[inside], e[inside]
        u, h_held = _held_rows(spec, x, e)
        f_x = _batch_map(spec, "f", x, y + h_held, u)
        val = (consts.gamma1.slope_rows(np.sqrt(_dot_rows(e, e)))
               * np.sqrt(_dot_rows(f_x, f_x)))
        sup = float(np.fmax.reduce(val, initial=sup))  # a NaN never raises sup
    if sup <= 0.0:
        raise CertificateError("trigger slope supremum came out nonpositive")
    return inflation * sup
