"""End-to-end run of the generic (callable-based) plant path on a
nonlinear plant: a cubic-damped slow state driven through a first-order
actuator. The quadratic certificate used for the trigger thresholds is
local, which is all the margins need."""

import math
from dataclasses import replace

import numpy as np
import pytest

from etcsim.certificates import (
    LyapunovCertificate,
    QuadraticLyapunovData,
    validate_assumptions,
)
import etcsim.simulate as simulate
from etcsim.errors import DimensionError, DivergenceError
from etcsim.hybrid import HybridState, Termination, _all_finite
from etcsim.plant import (
    PlantSpec,
    apply_jump,
    check_root_consistency,
    closed_loop_flow_vector,
    jump_map_hy,
    reduced_fast_flow,
    reduced_slow_flow,
    shift_coordinates,
)
from etcsim.simulate import SolverConfig, integrate_arc
from etcsim.triggers import PolicyKind, TriggerPolicy


@pytest.fixture(scope="module")
def plant(nonlinear_plant):
    return nonlinear_plant


@pytest.fixture(scope="module")
def cert():
    data = QuadraticLyapunovData(p1=np.eye(1), p2=np.eye(1),
                                 alpha1_bar=1.0, alpha2=1.9, l_bar=1.5)
    return LyapunovCertificate.derive(data)


def test_root_is_consistent(plant):
    assert check_root_consistency(plant, box=3.0, n_samples=2000) <= 1e-12


def test_deadzone_run_converges(plant, cert):
    policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5]), e=np.zeros(1))
    arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=20.0),
                        cert=cert)
    arc.check_ordering()
    assert arc.termination is Termination.HORIZON
    assert arc.jump_count >= 2
    assert arc.final_state().xy_norm() < 0.3
    # jump exactness and physical-state continuity on the generic path
    for ev in arc.events:
        expected = apply_jump(ev.pre_state, plant)
        assert np.array_equal(ev.post_state.y, expected.y)
        assert np.array_equal(ev.post_state.e, expected.e)
        z_pre = ev.pre_state.y + plant.h(ev.pre_state.x,
                                         plant.k(ev.pre_state.x + ev.pre_state.e))
        z_post = ev.post_state.y + plant.h(ev.post_state.x,
                                           plant.k(ev.post_state.x))
        assert np.allclose(z_pre, z_post, rtol=0, atol=1e-9)


def test_dwell_clock_run(plant, cert):
    policy = TriggerPolicy(kind=PolicyKind.TIME_REGULARIZED, sigma=0.4,
                           t_star=0.3)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5]), e=np.zeros(1),
                     tau=0.0)
    arc = integrate_arc(plant, policy, q0, SolverConfig(horizon=6.0),
                        cert=cert)
    assert arc.termination is Termination.HORIZON
    iets = np.diff(arc.jump_times())
    if iets.size:
        assert np.all(iets >= 0.3 - 2e-9)


@pytest.fixture(scope="module")
def short_root():
    """Two fast states whose root h returns one value, so y + h would
    broadcast, and a certificate of the plant's sizes."""
    plant = PlantSpec(
        n_x=1, n_z=2, n_u=1,
        f=lambda x, z, u: np.array([-x[0] + 0.1 * z[0]]),
        g=lambda x, z, u: u[0] - z,
        h=lambda x, u: np.array([u[0]]),
        dh_dx=lambda x, u: np.zeros((2, 1)),
        k=lambda xs: np.array([-0.5 * xs[0]]),
        epsilon=0.02,
    )
    data = QuadraticLyapunovData(p1=np.eye(1), p2=np.eye(2),
                                 alpha1_bar=1.0, alpha2=1.9, l_bar=1.5)
    return plant, LyapunovCertificate.derive(data)


def test_flow_of_a_map_of_wrong_size_is_a_dimension_error(short_root):
    plant, cert = short_root
    policy = TriggerPolicy(kind=PolicyKind.DEADZONE, sigma=0.4, rho=0.01)
    q0 = HybridState(x=np.array([1.5]), y=np.array([0.5, 0.0]), e=np.zeros(1))
    with pytest.raises(DimensionError, match="map h has size 1, expected 2"):
        integrate_arc(plant, policy, q0, SolverConfig(horizon=5.0), cert=cert)


def test_sampled_check_of_a_map_of_wrong_size_is_a_dimension_error(short_root):
    plant, cert = short_root
    with pytest.raises(DimensionError, match="map h has size 1, expected 2"):
        validate_assumptions(plant, cert.data, cert.constants, n_samples=100)


@pytest.mark.parametrize("call", [
    lambda p: jump_map_hy([1.0], [0.5, 0.0], [0.2], p),
    lambda p: reduced_slow_flow([1.0], [0.2], p),
    lambda p: reduced_fast_flow([1.0], [0.5, 0.0], [0.2], p),
    lambda p: shift_coordinates([0.5, 0.0], [1.0], [0.2], p),
], ids=["jump_map_hy", "reduced_slow_flow", "reduced_fast_flow", "shift_coordinates"])
def test_point_map_of_wrong_size_is_a_dimension_error(short_root, call):
    plant, _ = short_root
    with pytest.raises(DimensionError, match="map h has size 1, expected 2"):
        call(plant)


def test_flow_of_a_jacobian_of_wrong_size_is_a_dimension_error(nonlinear_plant):
    plant = replace(nonlinear_plant, dh_dx=lambda x, u: np.zeros((2, 2)))
    with pytest.raises(DimensionError, match=r"map dh_dx has size 4, expected 1"):
        closed_loop_flow_vector([1.0], [0.5], [0.2], plant)


def _two_slow_plant(out=lambda a: a, jac=lambda a: a):
    """Two slow states and one fast one, every map's output passed through
    out and the Jacobian through jac: integer-valued at integer points."""
    h_x = np.array([[1.0, -2.0]])
    return PlantSpec(
        n_x=2, n_z=1, n_u=1,
        f=lambda x, z, u: out(np.array([-x[0] + z[0], -2.0 * x[1] + u[0]])),
        g=lambda x, z, u: out(h_x @ x + u - z),
        h=lambda x, u: out(h_x @ x + u),
        dh_dx=lambda x, u: jac(h_x),
        k=lambda xs: out(np.array([-xs[0] - 2.0 * xs[1]])),
        epsilon=0.5,
    )


class _ReferenceStep:
    """The generic trial step as first written, the oracle of
    simulate._StagedStep: a fresh stage table per trial, each stage point
    s + h * (a_row @ stages[:i]) and each stage closed_loop_flow_vector. It
    counts its trials."""

    def __init__(self, plant, cfg):
        self.plant, self.cfg, self.fsal, self.trials = plant, cfg, (None, None), 0

    def first_stage(self, s):
        n_x, n_y = self.plant.n_x, self.plant.n_z
        return closed_loop_flow_vector(s[:n_x], s[n_x:n_x + n_y], s[n_x + n_y:], self.plant)

    def _stages(self, s, k1, h):
        stages = np.empty((7, s.size))
        stages[0] = k1
        for i, a_row in simulate._RK_A_ROWS:
            si = s + h * (a_row @ stages[:i])
            if not _all_finite(si):
                return None
            stages[i] = self.first_stage(si)
        s1 = s + h * (simulate.RK_B @ stages[:6])
        if not _all_finite(s1):
            return None
        stages[6] = self.first_stage(s1)
        return s1, stages

    def advance(self, s, h, t, clamp):
        end, k_end = self.fsal
        k1 = k_end if s is end else self.first_stage(s)
        while True:
            self.trials += 1
            h, clamped = clamp(h)
            staged = self._stages(s, k1, h)
            if staged is None:
                h *= simulate._MIN_FACTOR
                continue
            s1, stages = staged
            norm = simulate._error_norm(h * (simulate.RK_E @ stages), s, s1,
                                        self.cfg.rel_tol, self.cfg.abs_tol)
            if norm <= 1.0:
                factor = simulate._MAX_FACTOR if norm == 0.0 else min(
                    simulate._MAX_FACTOR,
                    max(simulate._MIN_FACTOR, simulate._SAFETY * norm ** -0.2))
                self.fsal = (s1, stages[6])
                return (h, clamped, s1, simulate._DenseSegment(t, h, s, stages.T @ simulate.RK_P),
                        h * factor)
            h *= max(simulate._MIN_FACTOR, simulate._SAFETY * norm ** -0.2)


def _unclamped(h):
    return h, False


def _step_bytes(step):
    """An advance result as bytes: h, clamped, s1, the dense output's start,
    length, start state and coefficients, and the next h."""
    h, clamped, s1, dense, h_next = step
    return (h, clamped, s1.tobytes(), dense.t0, dense.h, dense.y0.tobytes(),
            dense.q.tobytes(), h_next)


@pytest.mark.parametrize("which", ["nonlinear_mc", "two slow states"])
def test_step_equals_the_reference_step_bitwise(which, nonlinear_plant):
    # the stage table kept for the arc, the stage points summed in place and
    # the FSAL stage handed on through row 0 give the reference's bytes
    plant, s0, h_rejected = {
        "nonlinear_mc": (nonlinear_plant, np.array([1.2, -0.7, 0.0]), 0.5),
        "two slow states": (_two_slow_plant(), np.array([1.0, 2.0, 3.0, 0.0, 1.0]), 4.0),
    }[which]
    cfg = SolverConfig()
    step, ref = simulate._StagedStep(plant, cfg), _ReferenceStep(plant, cfg)

    def both(s, s_ref, h, t):
        got, want = step.advance(s, h, t, _unclamped), ref.advance(s_ref, h, t, _unclamped)
        assert _step_bytes(got) == _step_bytes(want)
        return got, want

    # from a fresh point, then on from its end, which takes the FSAL stage
    got, want = both(s0, s0.copy(), 0.01, 0.0)
    got, want = both(got[2], want[2], got[4], 0.01)
    # on from the FSAL stage again, with a first trial too long to accept
    trials = ref.trials
    got, want = both(got[2], want[2], h_rejected, 0.02)
    assert ref.trials - trials >= 2
    # from a copy of the last end: a fresh point, whose first stage is evaluated
    both(got[2].copy(), want[2].copy(), got[4], 0.02 + got[0])


@pytest.mark.parametrize("out, jac", [
    (lambda a: [int(v) for v in a], lambda a: [[int(v) for v in row] for row in a]),
    (lambda a: a.reshape(-1, 1), lambda a: a.reshape(-1, 1)),
    (lambda a: a.tolist(), lambda a: a.T),
    (lambda a: a, lambda a: a.ravel()),
    (lambda a: a.astype(np.float32), lambda a: np.asfortranarray(a)),
], ids=["int lists", "columns", "float lists, transposed Jacobian", "flat Jacobian",
        "float32, Fortran-order Jacobian"])
def test_flow_reads_every_map_form_as_before(out, jac):
    # each form is flattened to the declared size, so the flow equals that of
    # 1-D float64 maps bitwise; a Jacobian of another shape with n_z * n_x
    # entries is read in C order, as a (n_z, n_x) matrix
    point = ([1.0, 2.0], [3.0], [0.0, 1.0])
    want = closed_loop_flow_vector(*point, _two_slow_plant())
    got = closed_loop_flow_vector(*point, _two_slow_plant(out, jac))
    assert got.tobytes() == want.tobytes()
    assert np.all(want == np.round(want)) and np.any(want != 0.0)
    # through the step: the first stage is the same flow, and the step is the
    # reference step's on the same maps
    s = np.concatenate([np.array(part) for part in point])
    step = simulate._StagedStep(_two_slow_plant(out, jac), SolverConfig())
    got = step.advance(s, 0.25, 0.0, _unclamped)
    assert step.stages[0].tobytes() == want.tobytes()
    want = _ReferenceStep(_two_slow_plant(out, jac), SolverConfig()).advance(
        s, 0.25, 0.0, _unclamped)
    assert _step_bytes(got) == _step_bytes(want)


@pytest.mark.parametrize("maps, named", [
    ({"f": lambda x, z, u: np.zeros(3)}, "map f has size 3, expected 2"),
    ({"k": lambda xs: [0.0, 0.0]}, "map k has size 2, expected 1"),
    ({"g": lambda x, z, u: np.zeros((2, 1))}, "map g has size 2, expected 1"),
    ({"dh_dx": lambda x, u: np.zeros((2, 2))}, "map dh_dx has size 4, expected 2"),
    ({"dh_dx": lambda x, u: [1.0]}, "map dh_dx has size 1, expected 2"),
])
def test_flow_of_maps_of_wrong_size_names_the_map(maps, named):
    plant = replace(_two_slow_plant(), **maps)
    with pytest.raises(DimensionError, match=named) as flowed:
        closed_loop_flow_vector([1.0, 2.0], [3.0], [0.0, 1.0], plant)
    step = simulate._StagedStep(plant, SolverConfig())
    with pytest.raises(DimensionError) as stepped:
        step.advance(np.array([1.0, 2.0, 3.0, 0.0, 1.0]), 0.25, 0.0, _unclamped)
    assert str(stepped.value) == str(flowed.value) == named
    with pytest.raises(DimensionError, match="x has size 3, expected 2"):
        closed_loop_flow_vector([1.0, 2.0, 0.0], [3.0], [0.0, 1.0], _two_slow_plant())


def _constant_flow_plant(fx):
    """A generic plant whose slow derivative is the constant fx; its fast
    derivative reads fx[1] alone."""
    fx = np.array(fx)
    return PlantSpec(
        n_x=2, n_z=1, n_u=1,
        f=lambda x, z, u: fx, g=lambda x, z, u: -z, h=lambda x, u: np.zeros(1),
        dh_dx=lambda x, u: np.array([[0.0, 1.0]]), k=lambda xs: np.zeros(1), epsilon=0.5)


def test_finite_components_whose_sum_overflows_are_finite():
    # the finiteness test sums first; a sum that overflows falls back to the
    # entrywise test, so neither the flow nor a step near 1e308 is rejected
    plant = _constant_flow_plant([1.5e308, 1.5e308])
    flow = closed_loop_flow_vector([0.0, 0.0], [0.0], [0.0, 0.0], plant)
    assert sum(flow.tolist()) == math.inf and np.isfinite(flow).all()
    step = simulate._StagedStep(_constant_flow_plant([0.0, 0.0]), SolverConfig())
    s = np.array([1.5e308, 1.5e308, 0.0, 0.0, 0.0])
    h, clamped, s1, _, _ = step.advance(s, 0.25, 0.0, lambda h: (h, False))
    assert (h, clamped) == (0.25, False)
    assert s1.tobytes() == s.tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_flow_is_a_divergence_error(bad):
    with pytest.raises(DivergenceError, match="non-finite derivative"):
        closed_loop_flow_vector([0.0, 0.0], [0.0], [0.0, 0.0],
                                _constant_flow_plant([1.5e308, bad]))
    step = simulate._StagedStep(_constant_flow_plant([1.5e308, bad]), SolverConfig())
    with pytest.raises(DivergenceError, match="non-finite derivative"):
        step.advance(np.zeros(5), 0.25, 0.0, _unclamped)
