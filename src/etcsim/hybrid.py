"""Hybrid time, hybrid states, solution arcs, and the flow/jump interface.

A solution record ("arc") lives on a hybrid time domain: samples are indexed
by pairs (t, j) of continuous time and jump count, ordered lexicographically.
Flow samples advance t at fixed j; jumps freeze t and increment j by one.
Arcs are built by one row writer and treated as immutable afterwards;
each keeps its samples as one float table with the columns of its CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields, is_dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, DivergenceError, OrderingError

__all__ = [
    "Termination",
    "HybridTime",
    "HybridState",
    "MonitorValues",
    "JumpRecord",
    "HybridArc",
    "HybridSystemInterface",
]


class Termination(str, Enum):
    """Why arc construction stopped."""

    HORIZON = "horizon-reached"
    ZENO_GUARD = "zeno-guard"
    DIVERGENCE = "divergence"


@dataclass(frozen=True, order=True)
class HybridTime:
    """A point (t, j) of a hybrid time domain.

    Ordering is lexicographic: (t, j) < (t', j') iff t < t' or
    (t == t' and j < j'), which dataclass field order provides.
    """

    t: float
    j: int

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0.0:
            raise OrderingError(f"continuous time must be finite and >= 0, got {self.t}")
        if self.j < 0:
            raise OrderingError(f"jump counter must be >= 0, got {self.j}")

    @property
    def total(self) -> float:
        """The hybrid-time abscissa t + j used by decay envelopes."""
        return self.t + self.j


def record_dict(record, skip: tuple[str, ...] = ()) -> dict:
    """The package's JSON convention: a frozen record's fields as a dict.

    Fields keep their declaration order; arrays become nested lists, tuples
    lists, and nested records their own dicts. A non-finite float, also
    inside a dict, list or tuple field, becomes None (JSON null) with its
    key kept. A field that is None or named in skip is left out.
    """
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)
            if getattr(record, f.name) is not None and f.name not in skip}


def write_json(path, obj) -> None:
    """Write obj as every JSON file of the package: indent 2, final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _json_value(value):
    if is_dataclass(value):
        return record_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _as_readonly_vector(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float, copy=True).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite entries in {name}: {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HybridState:
    """Composite state (x, y, e, tau) of the sampled-data closed loop.

    x is the slow state, y the shifted fast state, e the sampling-induced
    error (same dimension as x), and tau an optional dwell clock that is
    present only under the time-regularized policy.
    """

    x: np.ndarray
    y: np.ndarray
    e: np.ndarray
    tau: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "x", _as_readonly_vector(self.x, "x"))
        object.__setattr__(self, "y", _as_readonly_vector(self.y, "y"))
        object.__setattr__(self, "e", _as_readonly_vector(self.e, "e"))
        if self.e.shape != self.x.shape:
            raise DimensionError(
                f"e has dimension {self.e.size}, expected n_x = {self.x.size}"
            )
        if self.tau is not None:
            tau = float(self.tau)
            if not math.isfinite(tau) or tau < 0.0:
                raise DivergenceError(f"clock must be finite and >= 0, got {tau}")
            object.__setattr__(self, "tau", tau)

    @property
    def n_x(self) -> int:
        return self.x.size

    @property
    def n_y(self) -> int:
        return self.y.size

    @property
    def has_clock(self) -> bool:
        return self.tau is not None

    def as_vector(self) -> np.ndarray:
        """Stacked (x, y, e) without the clock."""
        return np.concatenate([self.x, self.y, self.e])

    @classmethod
    def from_vector(cls, v: np.ndarray, n_x: int, n_y: int,
                    tau: Optional[float] = None) -> "HybridState":
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != 2 * n_x + n_y:
            raise DimensionError(f"vector of size {v.size} != 2*{n_x} + {n_y}")
        return cls(x=v[:n_x], y=v[n_x:n_x + n_y], e=v[n_x + n_y:], tau=tau)

    def xy_norm(self) -> float:
        return float(np.sqrt(np.sum(self.x**2) + np.sum(self.y**2)))


@dataclass(frozen=True)
class MonitorValues:
    """Scalar diagnostics stored with every sample.

    v is the practical-stability composite Lyapunov value, r the
    dwell-clock composite value (NaN when its prerequisites are absent),
    and trigger_margin the signed event-function value.
    """

    v: float = math.nan
    r: float = math.nan
    trigger_margin: float = math.nan


@dataclass(frozen=True)
class JumpRecord:
    """One transmission event: (t, j) -> (t, j+1) with its pre/post states."""

    t: float
    j_pre: int
    j_post: int
    reason: str
    pre_state: HybridState
    post_state: HybridState

    @property
    def error_norm(self) -> float:
        """|e| immediately before the transmission."""
        return float(np.linalg.norm(self.pre_state.e))

    def to_dict(self) -> dict:
        return {
            "time": self.t,
            "j": self.j_post,
            "reason": self.reason,
            "error_norm": self.error_norm,
        }


@dataclass(frozen=True)
class HybridSystemInterface:
    """Flow/jump data of a hybrid system with a scalar event function.

    Sign convention: event_function < 0 strictly inside the flow set minus
    the jump set, and >= 0 on the jump set, so standard root bracketing
    localizes the boundary crossing.
    """

    flow_map: Callable[[HybridState], np.ndarray]
    jump_map: Callable[[HybridState], HybridState]
    in_flow_set: Callable[[HybridState], bool]
    in_jump_set: Callable[[HybridState], bool]
    event_function: Callable[[HybridState], float]


class HybridArc:
    """Sampled solution over a hybrid time domain, with monitors and events.

    Samples are appended per accepted integrator step plus both sides of
    every jump; (t, j) ordering is asserted on every public append, and once
    per arc on the integrator's direct flow rows. The samples are one float
    table whose columns are csv_header(): the table doubles when full, and
    the first len(arc) rows are in use. Views return copies of their columns.
    Clockless arcs store tau as NaN, so a periodic arc's margin can be
    recomputed only at its start and on both sides of each jump.
    """

    def __init__(self, n_x: int, n_y: int, has_clock: bool = False):
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.has_clock = bool(has_clock)
        self._n_state = 2 * self.n_x + self.n_y
        self._table = np.empty((16, len(self.csv_header())))  # tau NaN if no clock
        self._n = 0
        self.events: list[JumpRecord] = []
        self.termination: Optional[Termination] = None

    # -- construction -----------------------------------------------------

    def _check_state(self, q: HybridState) -> None:
        if q.n_x != self.n_x or q.n_y != self.n_y:
            raise DimensionError(
                f"state dims ({q.n_x}, {q.n_y}) do not match arc ({self.n_x}, {self.n_y})"
            )
        if q.has_clock != self.has_clock:
            raise DimensionError("clock presence does not match the arc")

    def _append_row(self, t: float, j: int, s: np.ndarray, tau: Optional[float],
                    monitors: tuple[float, float, float], is_jump: bool) -> None:
        """The one row writer; it checks nothing. tau None is stored as NaN."""
        if self._n == len(self._table):
            self._table = np.concatenate([self._table, np.empty_like(self._table)])
        self._table[self._n] = [t, j, *s.tolist(), math.nan if tau is None else tau,
                                *monitors, is_jump]
        self._n += 1

    def append_flow_sample(self, t: float, q: HybridState,
                           monitors: Optional[MonitorValues] = None) -> "HybridArc":
        """Append a flow sample at time t with the current jump count.

        t must be later than the last sample's time, also right after a
        jump: (t, j) pairs strictly increase, as check_ordering asserts.
        """
        self._check_state(q)
        if not math.isfinite(t):
            raise OrderingError(f"sample time must be finite, got {t}")
        if self._n and t <= self._table[self._n - 1, 0]:
            raise OrderingError(f"flow sample at t={t} does not advance past "
                                f"arc time {self._table[self._n - 1, 0]}")
        self._append_row(t, self.jump_count, q.as_vector(), q.tau,
                         astuple(monitors or MonitorValues()), is_jump=False)
        return self

    def append_jump(self, q_pre: HybridState, q_post: HybridState, reason: str,
                    monitors: Optional[MonitorValues] = None) -> "HybridArc":
        """Record a jump: last sample must equal (t, j, q_pre); appends (t, j+1, q_post)."""
        self._check_state(q_pre)
        self._check_state(q_post)
        if not self._n:
            raise OrderingError("cannot jump on an empty arc; append the pre-state first")
        last = self._table[self._n - 1]
        if not np.array_equal(last[2:2 + self._n_state], q_pre.as_vector()):
            raise OrderingError("jump pre-state does not equal the last arc sample")
        t, j = float(last[0]), int(last[1])
        self.events.append(
            JumpRecord(t=t, j_pre=j, j_post=j + 1, reason=reason,
                       pre_state=q_pre, post_state=q_post)
        )
        self._append_row(t, j + 1, q_post.as_vector(), q_post.tau,
                         astuple(monitors or MonitorValues()), is_jump=True)
        return self

    def set_termination(self, termination: Termination) -> None:
        self.termination = Termination(termination)

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def _t(self) -> np.ndarray:
        """Writable view of the in-use time column, read by the checks below."""
        return self._table[: self._n, 0]

    @property
    def t(self) -> np.ndarray:
        return self._t.copy()

    @property
    def j(self) -> np.ndarray:
        return self._table[: self._n, 1].astype(int)

    @property
    def hybrid_total_time(self) -> np.ndarray:
        """t + j per sample (the envelope abscissa)."""
        return self._t + self._table[: self._n, 1]

    @property
    def states(self) -> np.ndarray:
        """Sample matrix with rows (x, y, e)."""
        return self._table[: self._n, 2:2 + self._n_state].copy()

    @property
    def tau(self) -> np.ndarray:
        return self._table[: self._n, -5].copy()

    @property
    def v(self) -> np.ndarray:
        return self._table[: self._n, -4].copy()

    @property
    def r(self) -> np.ndarray:
        return self._table[: self._n, -3].copy()

    @property
    def trigger_margin(self) -> np.ndarray:
        return self._table[: self._n, -2].copy()

    @property
    def is_jump(self) -> np.ndarray:
        return self._table[: self._n, -1].astype(int)

    @property
    def x(self) -> np.ndarray:
        return self.states[:, : self.n_x]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, self.n_x : self.n_x + self.n_y]

    @property
    def e(self) -> np.ndarray:
        return self.states[:, self.n_x + self.n_y :]

    def state_at(self, i: int) -> HybridState:
        row = self._table[: self._n][i]
        tau = float(row[2 + self._n_state])
        return HybridState.from_vector(
            row[2:2 + self._n_state], self.n_x, self.n_y,
            tau=None if math.isnan(tau) else tau,
        )

    def final_state(self) -> HybridState:
        if not self._n:
            raise OrderingError("empty arc")
        return self.state_at(self._n - 1)

    @property
    def jump_count(self) -> int:
        return len(self.events)

    def jump_times(self) -> np.ndarray:
        return np.asarray([ev.t for ev in self.events], dtype=float)

    def elapsed_time(self) -> float:
        if not self._n:
            return 0.0
        return float(self._t[-1] - self._t[0])

    def check_ordering(self) -> None:
        """Assert lexicographic (t, j) ordering over the whole arc."""
        pairs = list(zip(self._t.tolist(), self.j.tolist()))
        for a, b in zip(pairs, pairs[1:]):
            if not (a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])):
                raise OrderingError(f"samples out of order: {a} then {b}")

    # -- serialization -----------------------------------------------------

    def csv_header(self) -> list[str]:
        cols = ["t", "j"]
        cols += [f"x_{i+1}" for i in range(self.n_x)]
        cols += [f"y_{i+1}" for i in range(self.n_y)]
        cols += [f"e_{i+1}" for i in range(self.n_x)]
        cols += ["tau", "V", "R", "trigger_margin", "is_jump"]
        return cols

    def to_csv(self, path) -> None:
        """Write the sample table; floats use %.17g so values round-trip."""
        fmt = ["%.17g"] * self._table.shape[1]
        fmt[1] = fmt[-1] = "%d"
        np.savetxt(path, self._table[: self._n], fmt=fmt, delimiter=",",
                   header=",".join(self.csv_header()), comments="")

    def events_to_json(self, path) -> None:
        write_json(path, [ev.to_dict() for ev in self.events])

