import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcsim.certificates import AssumptionConstants, QuadraticLyapunovData
from etcsim.demo import demo_plant
from etcsim.errors import (
    CertificateError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    OrderingError,
)
from etcsim import hybrid
from etcsim.hybrid import (
    HybridArc,
    HybridState,
    HybridTime,
    MonitorValues,
    Termination,
)
from etcsim.plant import PlantSpec
from etcsim.scenario import build_initial_state
from etcsim.simulate import SolverConfig
from etcsim.triggers import GammaForm, PolicyKind, TriggerPolicy


def state(x=(1.0, 2.0), y=(3.0,), e=(0.0, 0.0), tau=None):
    return HybridState(x=np.array(x), y=np.array(y), e=np.array(e), tau=tau)


class TestHybridTime:
    def test_lexicographic_ordering(self):
        assert HybridTime(1.0, 0) < HybridTime(2.0, 0)
        assert HybridTime(1.0, 0) < HybridTime(1.0, 1)
        assert HybridTime(1.0, 5) < HybridTime(2.0, 0)
        assert not HybridTime(2.0, 0) < HybridTime(1.0, 9)

    def test_rejects_negative(self):
        with pytest.raises(OrderingError):
            HybridTime(-1.0, 0)
        with pytest.raises(OrderingError):
            HybridTime(0.0, -1)

    def test_total(self):
        assert HybridTime(1.5, 3).total == 4.5


class TestHybridState:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(DivergenceError):
            HybridState(x=np.array([1.0, math.nan]), y=np.zeros(1), e=np.zeros(2))
        with pytest.raises(DivergenceError):
            state(tau=math.inf)

    def test_vector_round_trip(self):
        q = state(tau=0.5)
        v = q.as_vector()
        q2 = HybridState.from_vector(v, 2, 1, tau=0.5)
        assert np.array_equal(q2.as_vector(), v)
        assert q2.tau == 0.5

    def test_immutable_arrays(self):
        q = state()
        with pytest.raises(ValueError):
            q.x[0] = 99.0


class TestHybridArc:
    def test_empty_then_base_case(self):
        arc = HybridArc(2, 1)
        arc.append_flow_sample(0.0, state())
        assert len(arc) == 1
        assert arc.j[0] == 0

    def test_out_of_order_time_rejected(self):
        arc = HybridArc(2, 1)
        arc.append_flow_sample(1.0, state())
        with pytest.raises(OrderingError):
            arc.append_flow_sample(0.5, state())

    def test_flow_keeps_j(self):
        arc = HybridArc(2, 1)
        arc.append_flow_sample(1.0, state())
        q = state()
        arc.append_jump(q_pre=arc.state_at(0), q_post=state(x=(1.0, 2.0)),
                        reason="threshold")
        arc.append_jump(q_pre=arc.state_at(1), q_post=state(x=(1.0, 2.0)),
                        reason="threshold")
        arc.append_flow_sample(1.1, state())
        assert list(arc.j) == [0, 1, 2, 2]
        assert list(arc.t) == [1.0, 1.0, 1.0, 1.1]

    def test_jump_freezes_t_increments_j(self):
        arc = HybridArc(2, 1)
        q = state()
        arc.append_flow_sample(2.0, q)
        arc.append_jump(q, state(x=(0.0, 0.0)), reason="threshold")
        assert arc.t[-1] == 2.0
        assert arc.j[-1] == 1
        assert arc.jump_count == 1
        assert arc.events[0].error_norm == 0.0

    def test_jump_requires_matching_pre_state(self):
        arc = HybridArc(2, 1)
        arc.append_flow_sample(2.0, state())
        with pytest.raises(OrderingError):
            arc.append_jump(state(x=(9.0, 9.0)), state(), reason="threshold")

    def test_jump_dimension_mismatch(self):
        arc = HybridArc(2, 1)
        q = state()
        arc.append_flow_sample(2.0, q)
        bad = HybridState(x=np.zeros(2), y=np.zeros(2), e=np.zeros(2))
        with pytest.raises(DimensionError):
            arc.append_jump(q, bad, reason="threshold")

    def test_flow_cannot_repeat_time_within_same_j(self):
        arc = HybridArc(2, 1)
        arc.append_flow_sample(1.0, state())
        with pytest.raises(OrderingError):
            arc.append_flow_sample(1.0, state())

    def test_flow_cannot_repeat_time_after_jump(self):
        # (1.0, 1) is the post-jump row's pair already
        arc = HybridArc(2, 1)
        q = state()
        arc.append_flow_sample(1.0, q)
        arc.append_jump(q, q, reason="threshold")
        with pytest.raises(OrderingError):
            arc.append_flow_sample(1.0, q)
        arc.check_ordering()

    def test_ordering_check_passes(self):
        arc = HybridArc(2, 1)
        q = state()
        arc.append_flow_sample(0.0, q)
        arc.append_flow_sample(1.0, q)
        arc.append_jump(q, q, reason="threshold")
        arc.append_flow_sample(1.5, q)
        arc.check_ordering()

    def test_termination_is_single_enum(self):
        arc = HybridArc(2, 1)
        arc.set_termination(Termination.HORIZON)
        assert arc.termination is Termination.HORIZON
        arc.set_termination("zeno-guard")
        assert arc.termination is Termination.ZENO_GUARD

    def test_csv_layout(self, tmp_path):
        arc = HybridArc(2, 1, has_clock=True)
        q = state(tau=0.25)
        arc.append_flow_sample(0.0, q, MonitorValues(v=1.0, r=2.0,
                                                     trigger_margin=-0.5))
        arc.set_termination(Termination.HORIZON)
        path = tmp_path / "arc.csv"
        arc.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,j,x_1,x_2,y_1,e_1,e_2,tau,V,R,"
                            "trigger_margin,is_jump")
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.0
        assert cells[-1] == "0"
        assert float(cells[7]) == 0.25

    def test_csv_round_trips_full_precision(self, tmp_path):
        import numpy as np

        arc = HybridArc(2, 1)
        q = state(x=(1.0 / 3.0, math.pi), y=(math.sqrt(2.0),),
                  e=(1e-17, -2.5e300))
        arc.append_flow_sample(0.1, q, MonitorValues(v=1.0 / 7.0))
        arc.to_csv(tmp_path / "arc.csv")
        table = np.genfromtxt(tmp_path / "arc.csv", delimiter=",",
                              skip_header=1)
        assert table[2] == 1.0 / 3.0
        assert table[3] == math.pi
        assert table[4] == math.sqrt(2.0)
        assert table[5] == 1e-17
        assert table[6] == -2.5e300
        assert table[8] == 1.0 / 7.0

    def test_events_json(self, tmp_path):
        arc = HybridArc(2, 1)
        q = state(e=(0.3, 0.4))
        arc.append_flow_sample(1.0, q)
        arc.append_jump(q, state(), reason="threshold")
        path = tmp_path / "events.json"
        arc.events_to_json(path)
        import json

        payload = json.loads(path.read_text())
        assert payload == [{"time": 1.0, "j": 1, "reason": "threshold",
                            "error_norm": 0.5}]


# Cell values that stress the CSV formatting: a non-terminating binary
# fraction, negative zero, the smallest subnormal and near-overflow values;
# monitors add NaN and both infinities, which states may not hold.
AWKWARD = (1.0 / 3.0, -0.0, 5e-324, 1e300, -1e300, 0.1)
AWKWARD_MONITORS = (math.nan, math.inf, -math.inf, 1.0 / 3.0, -0.0, 5e-324)


def awkward_arc(has_clock):
    """42 rows (beyond two doublings of the table), two jumps so j reaches 2."""
    def q(k):
        a = [AWKWARD[(k + i) % len(AWKWARD)] for i in range(5)]
        return state(x=a[:2], y=a[2:3], e=a[3:],
                     tau=abs(a[1]) if has_clock else None)

    def mon(k):
        a = [AWKWARD_MONITORS[(k + i) % len(AWKWARD_MONITORS)] for i in range(3)]
        return MonitorValues(v=a[0], r=a[1], trigger_margin=a[2])

    arc = HybridArc(2, 1, has_clock=has_clock)
    for k in range(40):
        arc.append_flow_sample(k / 3.0, q(k), mon(k))
        if k in (10, 25):
            arc.append_jump(q(k), q(k + 100), "threshold", mon(k + 1))
    return arc


def reference_csv(arc):
    """The CSV text formatted cell by cell from the public views."""
    assert arc.j.dtype.kind == "i" and arc.is_jump.dtype.kind == "i"
    cols = [arc.t, arc.j, *arc.states.T, arc.tau, arc.v, arc.r,
            arc.trigger_margin, arc.is_jump]
    lines = [",".join(arc.csv_header())]
    for row in zip(*(c.tolist() for c in cols)):
        lines.append(",".join(str(c) if isinstance(c, int) else f"{c:.17g}"
                              for c in row))
    return "\n".join(lines) + "\n"


class TestSampleTable:
    @pytest.mark.parametrize("has_clock", [True, False])
    def test_csv_bytes_equal_cell_by_cell_writer(self, tmp_path, has_clock):
        arc = awkward_arc(has_clock)
        assert len(arc) == 42 and arc.j.max() == 2
        path = tmp_path / "arc.csv"
        arc.to_csv(path)
        reference = reference_csv(arc)
        assert path.read_bytes() == reference.encode()
        for cell in ("0.33333333333333331", "-0", "4.9406564584124654e-324",
                     "1.0000000000000001e+300", "nan", "inf", "-inf"):
            assert f",{cell}," in reference
        assert bool(np.isnan(arc.tau).all()) is not has_clock

    @pytest.mark.parametrize("rows", [0, 1, 42])
    @pytest.mark.parametrize("block", [64, 5])
    def test_csv_bytes_equal_savetxt(self, tmp_path, monkeypatch, rows, block):
        # to_csv formats the table a block of rows at a time (at 5, 42 rows
        # take eight whole blocks and a partial one); np.savetxt, which it
        # replaced, writes the same bytes row by row
        monkeypatch.setattr(hybrid, "_CSV_BLOCK", block)
        arc = awkward_arc(True)
        arc._n = rows
        arc.to_csv(tmp_path / "arc.csv")
        fmt = ["%.17g"] * 12
        fmt[1] = fmt[-1] = "%d"
        np.savetxt(tmp_path / "savetxt.csv", arc._table[:rows], fmt=fmt, delimiter=",",
                   header=",".join(arc.csv_header()), comments="")
        assert (tmp_path / "arc.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_views_are_copies(self):
        arc = awkward_arc(True)
        t, states, q_last = arc.t, arc.states, arc.final_state()
        for view in (arc.t, arc.j, arc.states, arc.x, arc.y, arc.e, arc.tau,
                     arc.v, arc.r, arc.trigger_margin, arc.is_jump,
                     arc.hybrid_total_time):
            view[...] = 7
        assert np.array_equal(arc.t, t)
        assert np.array_equal(arc.states, states)
        assert np.array_equal(arc.final_state().as_vector(), q_last.as_vector())
        assert arc.final_state().tau == q_last.tau
        arc.check_ordering()


def _pair_loop_ordering(arc):
    """check_ordering as a loop over (t, j) pairs: the error text of the
    first pair out of order, or None."""
    pairs = list(zip(arc._t.tolist(), arc.j.tolist()))
    for a, b in zip(pairs, pairs[1:]):
        if not (a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])):
            return f"samples out of order: {a} then {b}"
    return None


class TestColumnChecks:
    @pytest.mark.parametrize("corrupt", [
        lambda t, j: None,
        lambda t, j: t.__setitem__(3, t[2] - 0.25),  # decreasing t
        lambda t, j: t.__setitem__(5, t[4]),  # equal t, equal j
        lambda t, j: t.__setitem__(0, math.nan),  # NaN first
        lambda t, j: t.__setitem__(20, math.nan),  # NaN in the middle
        lambda t, j: t.__setitem__(-1, math.nan),  # NaN last
        lambda t, j: (t.__setitem__(7, math.nan), t.__setitem__(3, t[2])),  # two bad pairs
        lambda t, j: j.__setitem__(slice(10, 30), 0.0),  # j falls back at a jump's time
    ], ids=["ordered", "decreasing", "equal-pair", "nan-first", "nan-middle", "nan-last",
            "two-bad", "j-back"])
    def test_ordering_on_columns_is_the_pair_loop(self, corrupt):
        arc = awkward_arc(True)
        corrupt(arc._t, arc._table[: len(arc), 1])
        expected = _pair_loop_ordering(arc)
        if expected is None:
            arc.check_ordering()
        else:
            with pytest.raises(OrderingError) as info:
                arc.check_ordering()
            assert str(info.value) == expected

    def test_ordering_of_short_arcs(self):
        for rows in (0, 1):
            arc = HybridArc(2, 1)
            for k in range(rows):
                arc.append_flow_sample(float(k), state())
            arc.check_ordering()

    def test_write_json_is_json_dump(self, tmp_path):
        import json

        records = [{"time": 0.1, "j": 1, "reason": "threshold", "error_norm": None},
                   {"nested": [[1.0, -0.0, 5e-324], {"a": None, "b": [True, False]}],
                    "empty": [], "text": "café \"quoted\"", "big": 1e300}, None, []]
        for obj in (records, records[1], [], {}):
            hybrid.write_json(tmp_path / "one.json", obj)
            with open(tmp_path / "dump.json", "w") as fh:
                json.dump(obj, fh, indent=2)
                fh.write("\n")
            assert (tmp_path / "one.json").read_bytes() == (tmp_path / "dump.json").read_bytes()

    @pytest.mark.parametrize("e", [(0.0, 0.0), (-0.0, 0.0), (5e-324, -5e-324),
                                   (2.2250738585072014e-308, 1e-160), (3.0, 4.0),
                                   (1e200, 1e200), (-1.7976931348623157e308, 1.0)])
    def test_error_norm_is_linalg_norm(self, e):
        arc = HybridArc(2, 1)
        q = state(e=e)
        arc.append_flow_sample(1.0, q)
        arc.append_jump(q, state(), reason="threshold")

        def outcome(norm):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                value = norm()
            return type(value), np.array([value]).tobytes(), [str(w.message) for w in seen]

        # a float, and a square that overflows warns as np.linalg.norm's dot does
        assert outcome(lambda: arc.events[0].error_norm) == outcome(
            lambda: float(np.linalg.norm(np.array(e))))


# Every bounded numeric input field: (builder, field, type, low, closed, high,
# error). The intervals are spelled out here, not read from the records.
def _policy(field):
    base = {"sigma": {"kind": PolicyKind.NAIVE},
            "rho": {"kind": PolicyKind.DEADZONE, "sigma": 0.3},
            "t_star": {"kind": PolicyKind.TIME_REGULARIZED, "sigma": 0.3},
            "period": {"kind": PolicyKind.PERIODIC}}[field]
    return lambda **kw: TriggerPolicy(**base, **kw)


def _lyapunov(**kw):
    return QuadraticLyapunovData(**{"p1": np.eye(2), "p2": np.eye(1), "alpha1_bar": 1.0,
                                    "alpha2": 1.0, "l_bar": 1.0, **kw})


def _constants(**kw):
    base = dict.fromkeys(("alpha1", "alpha2", "beta1", "beta2", "beta3", "l_link",
                          "lambda1", "lambda2", "m_err", "n_err"), 1.0)
    return AssumptionConstants(**{**base, "gamma1": GammaForm(1.0), "gamma2": GammaForm(0.0),
                                  **kw})


def _plant(**kw):
    maps = {"f": lambda x, z, u: x, "g": lambda x, z, u: z, "h": lambda x, u: x,
            "k": lambda xs: xs}
    return PlantSpec(**{"n_x": 1, "n_z": 1, "n_u": 1, "epsilon": 0.1, **maps, **kw})


def _initial(**kw):
    policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.3, rho=0.02)
    return build_initial_state({"ball_radius": 1.0, **kw}, demo_plant(0.02), policy, seed=0)


POS, NONNEG = (0.0, False, math.inf), (0.0, True, math.inf)
BOUNDED_FIELDS = [
    *[(SolverConfig, name, float, *POS, ConfigurationError)
      for name in ("rel_tol", "abs_tol", "max_step_factor", "event_tol", "horizon",
                   "zeno_window")],
    (SolverConfig, "fast_floor", float, *NONNEG, ConfigurationError),
    (SolverConfig, "zeno_max_jumps", int, 2, True, math.inf, ConfigurationError),
    (SolverConfig, "store_stride", int, 1, True, math.inf, ConfigurationError),
    (SolverConfig, "seed", int, *NONNEG, ConfigurationError),
    (_policy("sigma"), "sigma", float, 0.0, False, 1.0, ConfigurationError),
    *[(_policy(name), name, float, *POS, ConfigurationError)
      for name in ("rho", "t_star", "period")],
    (GammaForm, "coeff", float, *NONNEG, ConfigurationError),
    (lambda **kw: GammaForm(1.0, **kw), "power", float, 1.0, True, math.inf,
     ConfigurationError),
    *[(_lyapunov, name, float, *POS, CertificateError)
      for name in ("alpha1_bar", "alpha2", "l_bar")],
    *[(_constants, name, float, *POS, CertificateError) for name in ("alpha1", "alpha2")],
    *[(_constants, name, float, *NONNEG, CertificateError)
      for name in ("beta1", "beta2", "beta3", "l_link", "lambda1", "lambda2", "m_err",
                   "n_err")],
    (_plant, "epsilon", float, *POS, ConfigurationError),
    *[(_plant, name, int, 1, True, math.inf, DimensionError)
      for name in ("n_x", "n_z", "n_u")],
    (lambda **kw: replace(demo_plant(0.02), **kw), "epsilon", float, *POS,
     ConfigurationError),
    (_initial, "ball_radius", float, *NONNEG, ConfigurationError),
    (_initial, "seed", int, *NONNEG, ConfigurationError),
]


@pytest.mark.parametrize("build, field, kind, low, closed, high, error", BOUNDED_FIELDS,
                         ids=[f"{i}-{row[1]}" for i, row in enumerate(BOUNDED_FIELDS)])
@settings(derandomize=True, max_examples=50, database=None, deadline=None)
@given(data=st.data())
def test_bounded_field_takes_exactly_finite_numbers_in_its_interval(
        data, build, field, kind, low, closed, high, error):
    edges = [low, math.nextafter(low, -math.inf), math.nextafter(low, math.inf), high,
             math.nextafter(high, -math.inf), 1e400, -1e400, 10**400, sys.float_info.max]
    value = data.draw(st.one_of(st.floats(), st.integers(), st.sampled_from(edges)))
    # an int is a number, but a float is no integer; a number beyond the
    # largest float is not finite, also as an int
    typed = isinstance(value, int) or kind is float
    finite = value == value and abs(value) <= sys.float_info.max  # NaN != NaN
    inside = (low <= value if closed else low < value) and value < high
    if typed and finite and inside:
        build(**{field: value})
    else:
        with pytest.raises(error, match=repr(field)):
            build(**{field: value})
