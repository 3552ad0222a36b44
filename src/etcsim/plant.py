"""Closed-loop vector fields and jump maps for two-time-scale plants.

The plant is dx/dt = f(x, z, u), eps * dz/dt = g(x, z, u) with a selected
quasi-steady-state root z = h(x, u) of g = 0. Shifting y = z - h(x, u) and
holding u = k(x + e) between transmissions yields the closed-loop flow

    x' = f_x(x, y, e)
    y' = (1/eps) * [g(x, y + h, k(x+e)) - eps * dh/dx(x, k(x+e)) @ f_x]
    e' = -f_x

and, at each transmission, y jumps by h(x, k(x+e)) - h(x, k(x)) while the
physical state z stays continuous and e resets to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError
from .hybrid import (
    _FLOAT,
    HybridState,
    SampleArgs,
    _all_finite,
    _is_flat,
    check_numbers,
    field_keys,
    read_section,
    record_dict,
)

__all__ = [
    "PlantSpec",
    "LinearPlantSpec",
    "finite_difference_dh_dx",
    "shift_coordinates",
    "closed_loop_flow",
    "closed_loop_flow_vector",
    "jump_map_hy",
    "apply_jump",
    "reduced_slow_flow",
    "reduced_fast_flow",
    "check_root_consistency",
]

ROOT_CONSISTENCY_TOL = 1e-9
# Rows drawn and evaluated at once by the sampled checks (check_root_consistency
# here, validate_assumptions and trigger_slope_bound in certificates): bounds
# their memory. check_root_consistency and validate_assumptions equal their
# one-draw results bitwise; trigger_slope_bound draws each chunk ball by
# ball, so its value at a seed depends on this size.
_SAMPLE_CHUNK = 2048
_FD_STEP_SCALE = 1e-6  # finite-difference step per unit of 1 + |x|
# LinearPlantSpec.decoupling's fixed points stop on a relative step, not on a
# repeated float, which may never come: rounding can cycle near the solution.
_DECOUPLE_RTOL = 1e-14
_DECOUPLE_ITERS = 1000


def finite_difference_dh_dx(h: Callable) -> Callable:
    """Central-difference Jacobian of h in x; fallback when none is supplied.

    Step is _FD_STEP_SCALE (1e-6) times 1 + |x| per coordinate. Prefer an
    analytic Jacobian: this term multiplies the fast dynamics and silent FD
    error would corrupt the eps-scaled correction.
    """

    def dh_dx(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n_x = x.size
        step = _FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
        cols = []
        for i in range(n_x):
            dx = np.zeros(n_x)
            dx[i] = step
            hi = np.asarray(h(x + dx, u), dtype=float).reshape(-1)
            lo = np.asarray(h(x - dx, u), dtype=float).reshape(-1)
            cols.append((hi - lo) / (2.0 * step))
        return np.column_stack(cols)

    return dh_dx


@dataclass(frozen=True)
class PlantSpec:
    """User-supplied plant data assembled into the closed loop.

    f, g map (x, z, u) to the slow derivative and the scaled fast
    derivative; h(x, u) is the selected quasi-steady-state root of g = 0
    (one root, chosen once; the toolkit never switches roots mid-run);
    k maps the held sample x + e to the input. dh_dx is the Jacobian of h
    in x and defaults to central finite differences. epsilon is finite and
    > 0; n_x, n_z and n_u are integers >= 1, else a DimensionError. Each
    map returns its declared size (f n_x, g and h n_z, k n_u, dh_dx
    n_z * n_x entries), else a DimensionError that names the map.

    batched declares that the maps take column stacks (dim, N) as well:
    f, g, h and k then return (rows, N), and dh_dx (n_z, n_x) for every
    column or (N, n_z, n_x). The sampled checks call such maps once per batch.
    """

    n_x: int
    n_z: int
    n_u: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    k: Callable[[np.ndarray], np.ndarray]
    epsilon: float
    dh_dx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    batched: bool = False

    def __post_init__(self):
        check_numbers("PlantSpec", self, {"epsilon": "(0, inf)"})
        check_numbers("PlantSpec", self, dict.fromkeys(("n_x", "n_z", "n_u"), "[1, inf)"),
                      DimensionError)
        if self.dh_dx is None:
            if self.batched:
                raise ConfigurationError("a batched plant needs its own dh_dx: the "
                                         "finite-difference default takes one sample")
            object.__setattr__(self, "dh_dx", finite_difference_dh_dx(self.h))

    @property
    def n_y(self) -> int:
        return self.n_z

    def with_epsilon(self, epsilon: float) -> "PlantSpec":
        return replace(self, epsilon=float(epsilon))


def _vec(a, n: int, name: str) -> np.ndarray:
    """a flattened to a float vector of size n, else a DimensionError naming
    it; a 1-D float64 array of that size is returned as it is."""
    arr = a if _is_flat(a) else np.asarray(a, dtype=float).reshape(-1)
    if arr.size != n:
        raise DimensionError(f"{name} has size {arr.size}, expected {n}")
    return arr


def _point(spec: PlantSpec | LinearPlantSpec, **parts) -> list[np.ndarray]:
    """Each part (x, y, e, z or u) of one point, size-checked, as a (1, dim) row."""
    sizes = {"x": spec.n_x, "y": spec.n_z, "e": spec.n_x, "z": spec.n_z, "u": spec.n_u}
    return [_vec(a, sizes[name], name)[None, :] for name, a in parts.items()]


def _batch_map(spec: PlantSpec, name: str, *rows: np.ndarray) -> np.ndarray:
    """Map `name` of spec on N samples given and returned as (N, dim) rows:
    one call on the column stacks if the plant is batched, else one call per
    sample. dh_dx may come back as (n_z, n_x), one Jacobian for every sample."""
    fn, n = getattr(spec, name), rows[0].shape[0]
    shape = {"f": (spec.n_x,), "g": (spec.n_z,), "h": (spec.n_z,), "k": (spec.n_u,),
             "dh_dx": (spec.n_z, spec.n_x)}[name]
    if not spec.batched:
        size = math.prod(shape)
        return np.array([_vec(fn(*sample), size, f"map {name}")
                         for sample in zip(*rows)]).reshape(n, *shape)
    out = np.asarray(fn(*(np.ascontiguousarray(r.T) for r in rows)), dtype=float)
    if name == "dh_dx" and out.shape in (shape, (n, *shape)):
        return out
    if name != "dh_dx" and out.shape == (*shape, n):
        return np.ascontiguousarray(out.T)
    raise DimensionError(f"batched plant map {name} gave shape {out.shape} for {n} samples")


def _held_rows(spec: PlantSpec, x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Held input u = k(x + e) and its root h(x, u) on (N, dim) rows."""
    u = _batch_map(spec, "k", x + e)
    return u, _batch_map(spec, "h", x, u)


def _jump_rows(spec: PlantSpec, x: np.ndarray, y: np.ndarray, h_held: np.ndarray) -> np.ndarray:
    """Fast-state jump y + h(x, k(x+e)) - h(x, k(x)) on rows, h_held from _held_rows."""
    return y + h_held - _batch_map(spec, "h", x, _batch_map(spec, "k", x))


def shift_coordinates(z, x, u, spec: PlantSpec) -> np.ndarray:
    """Shift the quasi-steady-state to the origin: y = z - h(x, u)."""
    z, x, u = _point(spec, z=z, x=x, u=u)
    return (z - _batch_map(spec, "h", x, u))[0]


def _views(row: np.ndarray, n_x: int, n_y: int) -> tuple:
    """(row, x part, y part, e part) of a stacked (x, y, e) row: the out of _Flow.into."""
    return row, row[:n_x], row[n_x:n_x + n_y], row[n_x + n_y:]


class _Flow:
    """The closed-loop flow of one PlantSpec, its maps, sizes and epsilon
    bound once: closed_loop_flow_vector and the generic Runge-Kutta stages
    both evaluate it. A map value passes on one type/shape/dtype test, a
    1-D float64 array of its size (the Jacobian a C-ordered float64
    (n_z, n_x) matrix); any other form is read by _vec, flattened to the
    declared size, else a DimensionError that names the map."""

    def __init__(self, spec: PlantSpec):
        self.f, self.g, self.h, self.k, self.dh_dx = spec.f, spec.g, spec.h, spec.k, spec.dh_dx
        self.epsilon = spec.epsilon
        self.n_x, self.n_z, self.n_u = spec.n_x, spec.n_z, spec.n_u
        self.x_shape, self.z_shape, self.u_shape = (spec.n_x,), (spec.n_z,), (spec.n_u,)
        self.jac_shape = (spec.n_z, spec.n_x)

    def into(self, x: np.ndarray, y: np.ndarray, e: np.ndarray, out: tuple) -> None:
        """Write the derivative at (x, y, e), 1-D float64 arrays of the
        plant's sizes, into out = _views(row): x' = f, y' = g/eps - dh_dx @ f
        and e' = -f. A DivergenceError if the row is not finite."""
        u = self.k(x + e)
        if not (type(u) is np.ndarray and u.shape == self.u_shape and u.dtype is _FLOAT):
            u = _vec(u, self.n_u, "map k")
        h_val = self.h(x, u)
        if not (type(h_val) is np.ndarray and h_val.shape == self.z_shape
                and h_val.dtype is _FLOAT):
            h_val = _vec(h_val, self.n_z, "map h")
        z = y + h_val
        fx = self.f(x, z, u)
        if not (type(fx) is np.ndarray and fx.shape == self.x_shape and fx.dtype is _FLOAT):
            fx = _vec(fx, self.n_x, "map f")
        g_val = self.g(x, z, u)
        if not (type(g_val) is np.ndarray and g_val.shape == self.z_shape
                and g_val.dtype is _FLOAT):
            g_val = _vec(g_val, self.n_z, "map g")
        jac = self.dh_dx(x, u)
        if not (type(jac) is np.ndarray and jac.shape == self.jac_shape and jac.dtype is _FLOAT
                and jac.flags.c_contiguous):
            jac = _vec(jac, self.n_z * self.n_x, "map dh_dx").reshape(self.jac_shape)
        row, x_dot, y_dot, e_dot = out
        x_dot[...] = fx
        np.subtract(g_val / self.epsilon, jac @ fx, out=y_dot)
        np.negative(fx, out=e_dot)
        if not _all_finite(row):
            raise DivergenceError("closed-loop flow produced non-finite derivative")


def closed_loop_flow_vector(x, y, e, spec: PlantSpec) -> np.ndarray:
    """Closed-loop derivative of the stacked (x, y, e) vector."""
    x = _vec(x, spec.n_x, "x")
    y = _vec(y, spec.n_y, "y")
    e = _vec(e, spec.n_x, "e")
    out = np.empty(2 * spec.n_x + spec.n_z)
    _Flow(spec).into(x, y, e, _views(out, spec.n_x, spec.n_z))
    return out


def closed_loop_flow(q: HybridState, spec: PlantSpec) -> np.ndarray:
    """Flow map applied to a hybrid state; clock rate is 1 when present."""
    flow = closed_loop_flow_vector(q.x, q.y, q.e, spec)
    return np.append(flow, 1.0) if q.has_clock else flow


def jump_map_hy(x, y, e, spec: PlantSpec) -> np.ndarray:
    """Fast-state jump at a transmission: y+ = y + h(x, k(x+e)) - h(x, k(x)).

    The jump is an artifact of the coordinate shift: the physical state z
    is continuous across transmissions by construction.
    """
    x, y, e = _point(spec, x=x, y=y, e=e)
    return _jump_rows(spec, x, y, _held_rows(spec, x, e)[1])[0]


def apply_jump(q: HybridState, spec: PlantSpec | LinearPlantSpec) -> HybridState:
    """Full jump map: x unchanged, y -> h_y(x, y, e), e -> 0, tau -> 0.

    The one jump map, on states; the integrator jumps its stacked vectors
    by the same map, _jump_vector. q's parts must have the plant's sizes,
    else a DimensionError that names the part. A PlantSpec jumps with the
    generic map jump_map_hy. A LinearPlantSpec jumps with its closed form
    y + G e, G = Hu K: each increment (G e)_i is summed from 0.0 in state
    order in plain float arithmetic (no BLAS, which may reorder or fuse),
    so the result is bitwise fixed on every host. It equals jump_map_hy in
    exact arithmetic but may round differently.
    """
    s = np.concatenate([part[0] for part in _point(spec, x=q.x, y=q.y, e=q.e)])
    s.flags.writeable = False  # a generic map reads its parts read-only, as q's are
    return HybridState.from_vector(_jump_vector(spec, s), spec.n_x, spec.n_z,
                                   tau=0.0 if q.has_clock else None)


def _jump_vector(spec: PlantSpec | LinearPlantSpec, s: np.ndarray) -> np.ndarray:
    """apply_jump's map on a stacked (x, y, e) vector of the plant's sizes:
    a new vector (x, y+, 0)."""
    n_x, n_y = spec.n_x, spec.n_z
    out = np.zeros(s.size)
    out[:n_x] = s[:n_x]
    if isinstance(spec, LinearPlantSpec):
        e = s[n_x + n_y:].tolist()
        for i, (y_i, row) in enumerate(zip(s[n_x:n_x + n_y].tolist(),
                                           spec.jump_gain().tolist()), n_x):
            acc = 0.0
            for g_im, e_m in zip(row, e, strict=True):
                acc += g_im * e_m
            out[i] = y_i + acc
    else:
        x, y, e = s[None, :n_x], s[None, n_x:n_x + n_y], s[None, n_x + n_y:]
        out[n_x:n_x + n_y] = _jump_rows(spec, x, y, _held_rows(spec, x, e)[1])[0]
    return out


def reduced_slow_flow(x, e, spec: PlantSpec) -> np.ndarray:
    """Approximate slow model f_s(x, e) = f(x, h(x, k(x+e)), k(x+e))."""
    x, e = _point(spec, x=x, e=e)
    u, h_held = _held_rows(spec, x, e)
    return _batch_map(spec, "f", x, h_held, u)[0]


def reduced_fast_flow(x, y, e, spec: PlantSpec) -> np.ndarray:
    """Approximate fast model g_f(x, y, e) = g(x, y + h(x, k(x+e)), k(x+e))."""
    x, y, e = _point(spec, x=x, y=y, e=e)
    u, h_held = _held_rows(spec, x, e)
    return _batch_map(spec, "g", x, y + h_held, u)[0]


def check_root_consistency(spec: PlantSpec, box: float = 1.0,
                           n_samples: int = 10_000, seed: int = 0,
                           tol: float = ROOT_CONSISTENCY_TOL) -> float:
    """Verify g(x, h(x, u), u) = 0 on random (x, u) samples in a box.

    Returns the worst |g| found; raises ConfigurationError above tol, and
    when n_samples is not a nonnegative integer or box not a positive number.
    Samples are drawn and evaluated in chunks of _SAMPLE_CHUNK rows, in the
    order one draw would give.
    """
    check_numbers("check_root_consistency", SampleArgs(n_samples, box),
                  {"n_samples": "[0, inf)", "box": "(0, inf)"})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n_samples, _SAMPLE_CHUNK):
        rows = min(_SAMPLE_CHUNK, n_samples - start)
        draws = rng.uniform(-box, box, (rows, spec.n_x + spec.n_u))
        x, u = draws[:, :spec.n_x], draws[:, spec.n_x:]
        resid = _batch_map(spec, "g", x, _batch_map(spec, "h", x, u), u)
        # fmax skips a sample whose residual has a NaN, as max(worst, nan) does
        worst = float(np.fmax.reduce(np.abs(resid).max(axis=1), initial=worst))
    if worst > tol:
        raise ConfigurationError(
            f"selected root is inconsistent: max |g(x, h(x,u), u)| = {worst:.3e} > {tol}"
        )
    return worst


def _matrix(a, shape: tuple[int, int], name: str) -> np.ndarray:
    """Read-only float matrix of the given shape; a 1-D input of its size is reshaped."""
    arr = np.array(a, dtype=float)
    if arr.size != shape[0] * shape[1] or (arr.ndim == 2 and arr.shape != shape):
        raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
    arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LinearPlantSpec:
    """LTI two-time-scale plant with a static gain.

    dx/dt = A11 x + A12 z + B1 u,  eps dz/dt = A21 x + A22 z + B2 u,
    u = K x at transmissions. A22 must be invertible so the root
    h(x, u) = -A22^{-1} (A21 x + B2 u) is unique; a Hurwitz check on A22
    is available as `a22_hurwitz`.
    """

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    k_gain: np.ndarray
    epsilon: float

    _BOUNDS = {**dict.fromkeys(("a11", "a12", "a21", "a22", "b1", "b2", "k_gain"), "(-inf, inf)"),
               "epsilon": "(0, inf)"}

    def __post_init__(self):
        a11 = np.atleast_2d(np.asarray(self.a11, dtype=float))
        n_x = a11.shape[0]
        a22 = np.atleast_2d(np.asarray(self.a22, dtype=float))
        n_z = a22.shape[0]
        k = np.atleast_2d(np.asarray(self.k_gain, dtype=float))
        n_u = k.shape[0]
        object.__setattr__(self, "a11", _matrix(a11, (n_x, n_x), "a11"))
        object.__setattr__(self, "a12", _matrix(self.a12, (n_x, n_z), "a12"))
        object.__setattr__(self, "a21", _matrix(self.a21, (n_z, n_x), "a21"))
        object.__setattr__(self, "a22", _matrix(a22, (n_z, n_z), "a22"))
        object.__setattr__(self, "b1", _matrix(self.b1, (n_x, n_u), "b1"))
        object.__setattr__(self, "b2", _matrix(self.b2, (n_z, n_u), "b2"))
        object.__setattr__(self, "k_gain", _matrix(k, (n_u, n_x), "k_gain"))
        check_numbers("LinearPlantSpec", self, self._BOUNDS)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if abs(np.linalg.det(self.a22)) < 1e-12:
            raise ConfigurationError("A22 must be invertible for a unique root")

    @property
    def n_x(self) -> int:
        return self.a11.shape[0]

    @property
    def n_z(self) -> int:
        return self.a22.shape[0]

    @property
    def n_u(self) -> int:
        return self.k_gain.shape[0]

    @property
    def a22_hurwitz(self) -> bool:
        """Diagnostic: all eigenvalues of A22 in the open left half plane."""
        return bool(np.all(np.linalg.eigvals(self.a22).real < 0.0))

    # Root h(x, u) = Hx x + Hu u, solved once per instance and read-only.
    @cached_property
    def h_x(self) -> np.ndarray:
        return _matrix(-np.linalg.solve(self.a22, self.a21), self.a21.shape, "h_x")

    @cached_property
    def h_u(self) -> np.ndarray:
        return _matrix(-np.linalg.solve(self.a22, self.b2), self.b2.shape, "h_u")

    @property
    def b_slow(self) -> np.ndarray:
        """Input matrix of the reduced slow model: B1 - A12 A22^{-1} B2."""
        return self.b1 + self.a12 @ self.h_u

    @property
    def a_slow(self) -> np.ndarray:
        """State matrix of the reduced slow model: A11 - A12 A22^{-1} A21."""
        return self.a11 + self.a12 @ self.h_x

    @property
    def a_closed(self) -> np.ndarray:
        """Slow model closed with the fresh feedback: A_slow + B_slow K."""
        return self.a_slow + self.b_slow @ self.k_gain

    def flow_matrix(self) -> np.ndarray:
        """Closed-loop flow as a single matrix acting on stacked (x, y, e).

        Assembled from the defining maps: x' = A_cl x + A12 y + B_s K e,
        y' = A22 y / eps - Hx x', e' = -x'. The clock row (rate 1, no
        state dependence) is excluded; callers append the affine rate.
        The integrator flows a LinearPlantSpec by expm(F h), built from the
        blocks of F through `decoupling`.
        """
        n_x, n_z = self.n_x, self.n_z
        n = 2 * n_x + n_z
        bsk = self.b_slow @ self.k_gain
        fx_block = np.zeros((n_x, n))
        fx_block[:, :n_x] = self.a_closed
        fx_block[:, n_x:n_x + n_z] = self.a12
        fx_block[:, n_x + n_z:] = bsk
        mat = np.zeros((n, n))
        mat[:n_x, :] = fx_block
        mat[n_x:n_x + n_z, :] = -self.h_x @ fx_block
        mat[n_x:n_x + n_z, n_x:n_x + n_z] += self.a22 / self.epsilon
        mat[n_x + n_z:, :] = -fx_block
        return mat

    @cached_property
    def decoupling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Chang decoupling (L, H, A_s, A_f) of flow_matrix(), solved once
        per instance and read-only (Kokotovic, Khalil & O'Reilly 1986, ch. 2).

        With F = [[A, B], [C, D]] in the order slow (x, e), fast y, L solves
        L = D^-1 (C + L A - L B L) and H = (A_s H + B) A_f^-1, by fixed-point
        iteration from zero, for A_s = A - B L and A_f = D + L B. Then
        expm(F h) = T^-1 diag(expm(A_s h), expm(A_f h)) T with
        T = [[I - H L, -H], [L, I]] and T^-1 = [[I, H], [-L, I - L H]]. The
        iterations contract when D^-1 ~ eps A22^-1 is small; one that does
        not converge is a ConfigurationError naming epsilon, and
        as_plant_spec() still runs the plant by the generic flow.
        """
        n_x, n_z = self.n_x, self.n_z
        slow, fast = np.r_[0:n_x, n_x + n_z:2 * n_x + n_z], np.r_[n_x:n_x + n_z]
        flow = self.flow_matrix()
        a, b = flow[np.ix_(slow, slow)], flow[np.ix_(slow, fast)]
        c, d = flow[np.ix_(fast, slow)], flow[np.ix_(fast, fast)]

        def solve(update, shape, name):
            m = np.zeros(shape)
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(_DECOUPLE_ITERS):
                    try:
                        new = update(m)
                    except np.linalg.LinAlgError:  # D or A_f is singular
                        break
                    if not np.isfinite(new).all():
                        break
                    if np.abs(new - m).max() <= _DECOUPLE_RTOL * np.abs(new).max():
                        return _matrix(new, shape, name)
                    m = new
            raise ConfigurationError(f"the linear plant's decoupling ({name}) does not converge "
                                     f"at epsilon={self.epsilon!r}; run as_plant_spec() instead")

        l_mat = solve(lambda m: np.linalg.solve(d, c + m @ a - m @ b @ m), c.shape, "L")
        a_s, a_f = _matrix(a - b @ l_mat, a.shape, "A_s"), _matrix(d + l_mat @ b, d.shape, "A_f")
        h_mat = solve(lambda m: np.linalg.solve(a_f.T, (a_s @ m + b).T).T, b.shape, "H")
        return l_mat, h_mat, a_s, a_f

    def jump_gain(self) -> np.ndarray:
        """Jump increment matrix: y+ = y + (Hu K) e."""
        return self.h_u @ self.k_gain

    def with_epsilon(self, epsilon: float) -> "LinearPlantSpec":
        return replace(self, epsilon=float(epsilon))

    def as_plant_spec(self) -> PlantSpec:
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        b1, b2, k = self.b1, self.b2, self.k_gain
        h_x, h_u = self.h_x, self.h_u

        return PlantSpec(
            n_x=self.n_x,
            n_z=self.n_z,
            n_u=self.n_u,
            f=lambda x, z, u: a11 @ x + a12 @ z + b1 @ u,
            g=lambda x, z, u: a21 @ x + a22 @ z + b2 @ u,
            h=lambda x, u: h_x @ x + h_u @ u,
            k=lambda xs: k @ xs,
            dh_dx=lambda x, u: h_x,
            epsilon=self.epsilon,
            batched=True,
        )

    # -- JSON --------------------------------------------------------------

    @classmethod
    def from_dict(cls, cfg: dict) -> "LinearPlantSpec":
        return cls(**read_section("plant", cfg, field_keys(cls)))

    @classmethod
    def from_json(cls, path) -> "LinearPlantSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return record_dict(self)
