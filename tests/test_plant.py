import math
from dataclasses import replace

import numpy as np
import pytest

from etcsim import plant as plant_module
from etcsim.errors import ConfigurationError, DimensionError
from etcsim.hybrid import HybridState
from etcsim.plant import (
    LinearPlantSpec,
    PlantSpec,
    apply_jump,
    check_root_consistency,
    closed_loop_flow,
    closed_loop_flow_vector,
    finite_difference_dh_dx,
    jump_map_hy,
    reduced_fast_flow,
    reduced_slow_flow,
    shift_coordinates,
)
from etcsim.demo import demo_plant


@pytest.fixture(scope="module")
def lin():
    return demo_plant(0.05)


@pytest.fixture(scope="module")
def spec(lin):
    return lin.as_plant_spec()


class TestShiftCoordinates:
    def test_root_maps_to_zero(self, spec, rng):
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-2, 2, 1)
            z = np.asarray(spec.h(x, u))
            assert np.allclose(shift_coordinates(z, x, u, spec), 0.0)

    def test_identity_actuator_case(self):
        # A22 = -I, A21 = 0, B2 = I makes the root h = u, so y = z - u.
        lin = LinearPlantSpec(
            a11=-np.eye(2), a12=np.array([[1.0], [0.0]]),
            a21=np.zeros((1, 2)), a22=-np.eye(1), b1=np.zeros((2, 1)),
            b2=np.eye(1), k_gain=np.array([[0.1, 0.1]]), epsilon=0.1,
        )
        spec = lin.as_plant_spec()
        z = np.array([2.5])
        u = np.array([1.0])
        assert np.allclose(shift_coordinates(z, np.ones(2), u, spec), z - u)

    def test_held_vs_fresh_input_differ_by_root_difference(self, spec, rng):
        # directly the defining identity of the coordinate change
        x = rng.uniform(-1, 1, 2)
        e = rng.uniform(-1, 1, 2)
        z = rng.uniform(-1, 1, 1)
        u_held = spec.k(x + e)
        u_fresh = spec.k(x)
        y_held = shift_coordinates(z, x, u_held, spec)
        y_fresh = shift_coordinates(z, x, u_fresh, spec)
        diff = np.asarray(spec.h(x, u_fresh)) - np.asarray(spec.h(x, u_held))
        assert np.allclose(y_held - y_fresh, diff)


def _sympy_closed_loop_matrix(lin):
    """Independent oracle: symbolic substitution of the root and feedback
    into the closed-loop equations, then the Jacobian."""
    import sympy as sp

    x = sp.Matrix(sp.symbols("x0 x1"))
    y = sp.Matrix([sp.Symbol("y0")])
    e = sp.Matrix(sp.symbols("e0 e1"))
    a11, a12, a21, a22 = map(sp.Matrix, (lin.a11, lin.a12, lin.a21, lin.a22))
    b1, b2, k = map(sp.Matrix, (lin.b1, lin.b2, lin.k_gain))
    u = k @ (x + e)
    h = -a22.inv() @ (a21 @ x + b2 @ u)
    z = y + h
    fx = a11 @ x + a12 @ z + b1 @ u
    g = a21 @ x + a22 @ z + b2 @ u
    # d/dt h(x, k(x+e)) along the flow, where e' = -x' cancels the
    # held-input dependence and leaves the partial x-Jacobian times x'.
    dh_dt = h.jacobian(x) @ fx + h.jacobian(e) @ (-fx)
    ydot = g / lin.epsilon - dh_dt
    full = sp.Matrix.vstack(fx, ydot, -fx)
    jac = full.jacobian(sp.Matrix.vstack(x, y, e))
    return np.array(jac, dtype=float)


class TestClosedLoopFlow:
    def test_equilibrium(self, spec):
        q = HybridState(x=np.zeros(2), y=np.zeros(1), e=np.zeros(2))
        assert np.allclose(closed_loop_flow(q, spec), 0.0)

    def test_held_sample_is_constant(self, spec, rng):
        # d/dt (x + e) = 0 along any flow
        for _ in range(10):
            q = HybridState(x=rng.uniform(-2, 2, 2), y=rng.uniform(-2, 2, 1),
                            e=rng.uniform(-2, 2, 2))
            d = closed_loop_flow(q, spec)
            assert np.allclose(d[:2] + d[3:5], 0.0, atol=1e-14)

    def test_matches_symbolic_matrix_oracle(self, lin, spec, rng):
        mat = _sympy_closed_loop_matrix(lin)
        for _ in range(25):
            s = rng.uniform(-3, 3, 5)
            lhs = closed_loop_flow_vector(s[:2], s[2:3], s[3:], spec)
            assert np.allclose(lhs, mat @ s, rtol=0, atol=1e-12)

    def test_flow_matrix_agrees_with_oracle(self, lin):
        assert np.allclose(lin.flow_matrix(), _sympy_closed_loop_matrix(lin),
                           rtol=0, atol=1e-12)

    def test_oracle_with_coupled_fast_block(self, rng):
        # nonzero A21 exercises the root-Jacobian correction term
        lin = LinearPlantSpec(
            a11=np.array([[-1.0, 0.3], [0.1, -0.8]]),
            a12=np.array([[0.2], [0.7]]),
            a21=np.array([[0.4, -0.3]]),
            a22=np.array([[-1.2]]),
            b1=np.array([[0.1], [0.0]]),
            b2=np.array([[0.9]]),
            k_gain=np.array([[-0.3, -0.5]]),
            epsilon=0.07,
        )
        spec = lin.as_plant_spec()
        mat = _sympy_closed_loop_matrix(lin)
        assert np.allclose(lin.flow_matrix(), mat, rtol=0, atol=1e-12)
        for _ in range(25):
            s = rng.uniform(-3, 3, 5)
            lhs = closed_loop_flow_vector(s[:2], s[2:3], s[3:], spec)
            assert np.allclose(lhs, mat @ s, rtol=0, atol=1e-12)

    def test_flow_matrix_equals_generic_flow_on_random_plants(self):
        # the integrator steps a LinearPlantSpec by matrices built from
        # flow_matrix() and its as_plant_spec() by closed_loop_flow_vector:
        # both must agree
        gen = np.random.default_rng(20260)
        worst = 0.0
        for _ in range(300):
            n_x, n_z, n_u = (int(v) for v in gen.integers(1, (4, 3, 3)))
            a22 = gen.standard_normal((n_z, n_z))
            a22 -= (max(np.linalg.eigvals(a22).real) + 0.5) * np.eye(n_z)
            base = LinearPlantSpec(
                a11=gen.standard_normal((n_x, n_x)), a12=gen.standard_normal((n_x, n_z)),
                a21=gen.standard_normal((n_z, n_x)), a22=a22,
                b1=gen.standard_normal((n_x, n_u)), b2=gen.standard_normal((n_z, n_u)),
                k_gain=gen.standard_normal((n_u, n_x)), epsilon=1.0)
            assert base.a22_hurwitz and np.all(base.a21 != 0.0)
            s = gen.uniform(-3, 3, 2 * n_x + n_z)
            x, y, e = s[:n_x], s[n_x:n_x + n_z], s[n_x + n_z:]
            for eps in (1.0, 1e-3, 1e-10):
                lin = base.with_epsilon(eps)
                mat = lin.flow_matrix()
                generic = closed_loop_flow_vector(x, y, e, lin.as_plant_spec())
                scale = np.abs(mat).max() * np.abs(s).max()
                worst = max(worst, np.abs(mat @ s - generic).max() / scale)
        assert worst <= 1e-12

    def test_clock_rate_is_one(self, spec):
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.zeros(2), tau=0.3)
        d = closed_loop_flow(q, spec)
        assert d.size == 6 and d[-1] == 1.0


class TestJumpMap:
    def test_zero_error_is_identity(self, spec, rng):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 1)
        assert np.array_equal(jump_map_hy(x, y, np.zeros(2), spec), y)

    def test_physical_state_continuous(self, spec, rng):
        # z reconstructed before and after the transmission must agree
        for _ in range(1000):
            x = rng.uniform(-5, 5, 2)
            y = rng.uniform(-5, 5, 1)
            e = rng.uniform(-5, 5, 2)
            y_plus = jump_map_hy(x, y, e, spec)
            z_pre = y + np.asarray(spec.h(x, spec.k(x + e)))
            z_post = y_plus + np.asarray(spec.h(x, spec.k(x)))
            assert np.allclose(z_pre, z_post, rtol=0, atol=1e-12)

    def test_linear_closed_form(self, lin, spec, rng):
        # y+ = y - A22^{-1} B2 K e
        gain = -np.linalg.solve(lin.a22, lin.b2) @ lin.k_gain
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 1)
            e = rng.uniform(-2, 2, 2)
            assert np.allclose(jump_map_hy(x, y, e, spec), y + gain @ e,
                               atol=1e-13)

    def test_apply_jump_resets_error_and_clock(self, spec):
        q = HybridState(x=np.ones(2), y=np.ones(1), e=np.array([0.5, -0.5]),
                        tau=1.2)
        q_plus = apply_jump(q, spec)
        assert np.array_equal(q_plus.x, q.x)
        assert np.array_equal(q_plus.e, np.zeros(2))
        assert q_plus.tau == 0.0

    @pytest.mark.parametrize("tau", [0.8, None])
    def test_apply_jump_linear_is_state_order_sum(self, lin, rng, tau):
        gain = lin.jump_gain()
        for _ in range(20):
            q = HybridState(x=rng.uniform(-2, 2, 2), y=rng.uniform(-2, 2, 1),
                            e=rng.uniform(-2, 2, 2), tau=tau)
            expected = []
            for i in range(gain.shape[0]):
                acc = 0.0
                for m in range(gain.shape[1]):
                    acc += float(gain[i, m]) * float(q.e[m])
                expected.append(float(q.y[i]) + acc)
            q_plus = apply_jump(q, lin)
            assert q_plus.y.tolist() == expected
            assert np.array_equal(q_plus.x, q.x)
            assert np.array_equal(q_plus.e, np.zeros(2))
            assert q_plus.tau == (None if tau is None else 0.0)


    @pytest.mark.parametrize("x, y, e, named", [
        (np.ones(2), np.ones(2), np.ones(2), "y has size 2, expected 1"),
        (np.ones(2), np.ones(0), np.ones(2), "y has size 0, expected 1"),
        (np.ones(3), np.ones(1), np.ones(3), "x has size 3, expected 2"),
    ], ids=["y_too_long", "y_empty", "x_and_e_too_long"])
    def test_apply_jump_linear_checks_state_sizes(self, lin, x, y, e, named):
        with pytest.raises(DimensionError, match=named):
            apply_jump(HybridState(x=x, y=y, e=e), lin)


class TestRootMatrices:
    def test_solved_once_read_only_and_per_instance(self, monkeypatch):
        lin = demo_plant(0.05)
        h_x, h_u = lin.h_x, lin.h_u
        assert h_x.tolist() == (-np.linalg.solve(lin.a22, lin.a21)).tolist()
        assert h_u.tolist() == (-np.linalg.solve(lin.a22, lin.b2)).tolist()
        for arr in (h_x, h_u):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert lin.h_x is h_x and lin.h_u is h_u

        def no_solve(*args):
            raise AssertionError("root matrices solved again")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", no_solve)
            gain = lin.jump_gain()
            lin.flow_matrix()
        assert np.array_equal(gain, h_u @ lin.k_gain)

        other = replace(lin, b2=2.0 * lin.b2)
        fresh = -np.linalg.solve(other.a22, other.b2)
        assert other.h_u.tolist() == fresh.tolist()
        assert not np.array_equal(other.h_u, h_u)
        assert np.array_equal(lin.h_u, h_u)


class TestReducedModels:
    def test_fast_flow_vanishes_at_root(self, spec, rng):
        # g_f(x, 0, e) = 0: root consistency
        for _ in range(50):
            x = rng.uniform(-3, 3, 2)
            e = rng.uniform(-3, 3, 2)
            assert np.allclose(reduced_fast_flow(x, np.zeros(1), e, spec), 0.0,
                               atol=1e-12)

    def test_slow_flow_equals_closed_loop_at_zero_y(self, spec, rng):
        for _ in range(50):
            x = rng.uniform(-3, 3, 2)
            e = rng.uniform(-3, 3, 2)
            full = closed_loop_flow_vector(x, np.zeros(1), e, spec)
            assert np.allclose(full[:2], reduced_slow_flow(x, e, spec),
                               atol=1e-13)

    def test_slow_reduction_closed_form(self, lin, spec, rng):
        a_s = lin.a11 - lin.a12 @ np.linalg.solve(lin.a22, lin.a21)
        b_s = lin.b1 - lin.a12 @ np.linalg.solve(lin.a22, lin.b2)
        k = lin.k_gain
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            e = rng.uniform(-2, 2, 2)
            expected = (a_s + b_s @ k) @ x + (b_s @ k) @ e
            assert np.allclose(reduced_slow_flow(x, e, spec), expected,
                               atol=1e-13)


def scalar_root_consistency(spec, box, n_samples, seed):
    """Reference for check_root_consistency: one sample at a time, one
    uniform call per vector (the same stream as one call for all)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = rng.uniform(-box, box, spec.n_x)
        u = rng.uniform(-box, box, spec.n_u)
        h_val = np.asarray(spec.h(x, u), dtype=float).reshape(-1)
        resid = np.asarray(spec.g(x, h_val, u), dtype=float).reshape(-1)
        worst = max(worst, float(np.max(np.abs(resid))) if resid.size else 0.0)
    return worst


def _two_fast_spec():
    """A two-state fast block, whose solved root leaves rounding residuals."""
    return LinearPlantSpec(
        a11=[[0.0, 1.0], [-1.0, -1.0]], a12=[[0.3, 0.1], [0.2, 0.5]],
        a21=[[1.0, 0.3], [-0.7, 0.2]], a22=[[-3.0, 0.7], [0.4, -2.0]],
        b1=[[0.0], [1.0]], b2=[[1.0], [0.3]], k_gain=[[-1.0, -0.5]],
        epsilon=0.05).as_plant_spec()


class TestInvariants:
    def test_root_consistency_sampled(self, spec):
        worst = check_root_consistency(spec, box=10.0, n_samples=10_000, seed=3)
        assert worst <= 1e-9

    @pytest.mark.parametrize("batched", [True, False])
    def test_root_consistency_equals_scalar_loop(self, spec, batched):
        for plant in (spec, _two_fast_spec()):
            plant = replace(plant, batched=batched)
            worst = check_root_consistency(plant, box=10.0, n_samples=10_000,
                                           seed=3)
            assert worst == scalar_root_consistency(plant, 10.0, 10_000, 3)
            assert check_root_consistency(plant, n_samples=0) == 0.0
        assert worst > 0.0

    def test_root_consistency_draws_in_chunks(self, monkeypatch):
        # the rows of one uniform draw, in C order, are the rows of its
        # chunks: chunks of 3 see 3, 3, 3 and 1 samples and the same worst
        # residual as one call on all ten
        two_fast = _two_fast_spec()
        whole = check_root_consistency(two_fast, box=10.0, n_samples=10, seed=3)
        assert whole > 0.0
        sizes = []

        def g(x, z, u):
            sizes.append(x.shape[1])
            return two_fast.g(x, z, u)

        monkeypatch.setattr(plant_module, "_SAMPLE_CHUNK", 3)
        chunked = replace(two_fast, g=g)
        assert check_root_consistency(chunked, box=10.0, n_samples=10, seed=3) == whole
        assert sizes == [3, 3, 3, 1]
        draws = np.random.default_rng(3).uniform(-1.0, 1.0, (5000, 3))
        gen = np.random.default_rng(3)
        assert np.array_equal(draws, np.vstack([gen.uniform(-1.0, 1.0, (rows, 3))
                                                for rows in (2048, 2048, 904)]))

    def test_root_consistency_skips_nan_samples_as_scalar_loop(self):
        # residual 0.1 on x < 0, NaN on x > 0.5: the NaN samples never count
        spec = PlantSpec(
            n_x=1, n_z=1, n_u=1,
            f=lambda x, z, u: -x + z,
            g=lambda x, z, u: -z + u + (np.nan if x[0] > 0.5 else 0.0),
            h=lambda x, u: u + (0.1 if x[0] < 0.0 else 0.0),
            k=lambda xs: -xs,
            epsilon=0.1,
        )
        assert scalar_root_consistency(spec, 1.0, 200, 0) == pytest.approx(0.1)
        with pytest.raises(ConfigurationError, match="= 1.000e-01 > 1e-09"):
            check_root_consistency(spec, box=1.0, n_samples=200, seed=0)
        assert check_root_consistency(spec, box=1.0, n_samples=200, seed=0,
                                      tol=1.0) == scalar_root_consistency(
                                          spec, 1.0, 200, 0)

    @pytest.mark.parametrize("n_samples, box", [
        (-1, 1.0), (10, 0.0), (10, -1.0), (10, math.nan), (10, math.inf)])
    def test_root_consistency_sample_count_and_box_checked(self, spec, n_samples, box):
        with pytest.raises(ConfigurationError, match="check_root_consistency field"):
            check_root_consistency(spec, box=box, n_samples=n_samples)

    def test_batched_plant_without_jacobian_rejected(self):
        # the finite-difference dh_dx default takes one sample, not a stack
        with pytest.raises(ConfigurationError, match="batched plant needs"):
            PlantSpec(n_x=1, n_z=1, n_u=1, f=lambda x, z, u: -x + z,
                      g=lambda x, z, u: -z + u, h=lambda x, u: u,
                      k=lambda xs: -xs, epsilon=0.1, batched=True)

    def test_batched_root_map_of_wrong_shape_named(self, spec):
        broken = replace(spec, g=lambda x, z, u: spec.g(x, z, u).ravel())
        with pytest.raises(DimensionError, match="batched plant map g gave"):
            check_root_consistency(broken, n_samples=10)

    def test_two_timescale_eigenvalue_scaling(self, lin):
        def fast_rate(eps):
            mat = lin.with_epsilon(eps).flow_matrix()
            return max(abs(np.linalg.eigvals(mat).real))

        ratio = fast_rate(0.005) / fast_rate(0.01)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_a22_hurwitz_diagnostic(self, lin):
        assert lin.a22_hurwitz
        flipped = LinearPlantSpec(
            a11=lin.a11, a12=lin.a12, a21=lin.a21, a22=-lin.a22, b1=lin.b1,
            b2=lin.b2, k_gain=lin.k_gain, epsilon=0.1,
        )
        assert not flipped.a22_hurwitz

    def test_singular_a22_rejected(self, lin):
        with pytest.raises(ConfigurationError):
            LinearPlantSpec(a11=lin.a11, a12=lin.a12, a21=lin.a21,
                            a22=np.zeros((1, 1)), b1=lin.b1, b2=lin.b2,
                            k_gain=lin.k_gain, epsilon=0.1)

    def test_epsilon_positive(self, lin):
        with pytest.raises(ConfigurationError):
            lin.with_epsilon(0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected_at_construction(self, eps):
        with pytest.raises(ConfigurationError, match="epsilon"):
            demo_plant(eps)

    def test_wrong_size_block_named(self, lin):
        with pytest.raises(DimensionError, match=r"a12 has shape \(3, 3\), expected \(2, 1\)"):
            replace(lin, a12=np.ones((3, 3)))


class TestMatrixShapes:
    @staticmethod
    def plant(a12, b1=np.zeros((2, 1))):
        # n_x = 2, n_z = 3, n_u = 1
        return LinearPlantSpec(
            a11=-np.eye(2), a12=a12, a21=np.zeros((3, 2)), a22=-np.eye(3),
            b1=b1, b2=np.zeros((3, 1)), k_gain=np.zeros((1, 2)), epsilon=0.1,
        )

    def test_transposed_block_rejected(self):
        a12 = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(self.plant(a12).a12, a12)
        with pytest.raises(DimensionError, match=r"a12 has shape \(3, 2\), expected \(2, 3\)"):
            self.plant(a12.T)

    def test_flat_input_of_right_size_reshaped(self):
        lin = self.plant(np.zeros((2, 3)), b1=np.zeros(2))
        assert lin.b1.shape == (2, 1)
        with pytest.raises(DimensionError, match="b1"):
            self.plant(np.zeros((2, 3)), b1=np.zeros(3))

    @pytest.mark.parametrize("block, named", [
        ("a11", r"a11 has shape \(0, 0\), so n_x is 0"),
        ("a22", r"a22 has shape \(0, 0\), so n_z is 0"),
        ("k_gain", r"k_gain has shape \(0, 2\), so n_u is 0"),
    ])
    def test_zero_size_block_named(self, block, named):
        # as PlantSpec, every size is at least 1: a zero-size block is named
        # where it is built, not found by the decoupling or as_plant_spec()
        n_x, n_z, n_u = {"a11": (0, 3, 1), "a22": (2, 0, 1), "k_gain": (2, 3, 0)}[block]
        with pytest.raises(DimensionError, match=named):
            LinearPlantSpec(
                a11=-np.eye(n_x), a12=np.zeros((n_x, n_z)), a21=np.zeros((n_z, n_x)),
                a22=-np.eye(n_z), b1=np.zeros((n_x, n_u)), b2=np.zeros((n_z, n_u)),
                k_gain=np.zeros((n_u, n_x)), epsilon=0.1,
            )


class TestFiniteDifferenceJacobian:
    def test_matches_analytic_on_nonlinear_root(self):
        def h(x, u):
            return np.array([np.sin(x[0]) + x[1] ** 2 + u[0]])

        dh = finite_difference_dh_dx(h)
        x = np.array([0.3, -0.7])
        u = np.array([0.2])
        expected = np.array([[np.cos(x[0]), 2 * x[1]]])
        assert np.allclose(dh(x, u), expected, atol=1e-6)


class TestJsonLoading:
    def test_round_trip(self, lin, tmp_path):
        import json

        path = tmp_path / "plant.json"
        path.write_text(json.dumps(lin.to_dict()))
        loaded = LinearPlantSpec.from_json(path)
        assert np.array_equal(loaded.a11, lin.a11)
        assert np.array_equal(loaded.k_gain, lin.k_gain)
        assert loaded.epsilon == lin.epsilon

    def test_missing_field(self):
        with pytest.raises(ConfigurationError):
            LinearPlantSpec.from_dict({"a11": [[1.0]]})


class TestNonlinearPlantSpec:
    def test_root_consistency_rejects_wrong_root(self):
        spec = PlantSpec(
            n_x=1, n_z=1, n_u=1,
            f=lambda x, z, u: -x + z,
            g=lambda x, z, u: -z + u,
            h=lambda x, u: u + 0.1,  # deliberately not a root
            k=lambda xs: -xs,
            epsilon=0.1,
        )
        with pytest.raises(ConfigurationError):
            check_root_consistency(spec, box=1.0, n_samples=100, seed=0)
