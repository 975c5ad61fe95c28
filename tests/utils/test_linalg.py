import numpy as np
import pytest

from xaidb.exceptions import ConvergenceError
from xaidb.utils.linalg import (
    batched_outer_sum,
    conjugate_gradient,
    logsumexp,
    sigmoid,
    solve_psd,
    solve_psd_batched,
)


class TestSolvePsd:
    def test_solves_well_conditioned(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5))
        m = a.T @ a + np.eye(5)
        rhs = rng.normal(size=5)
        x = solve_psd(m, rhs)
        assert np.allclose(m @ x, rhs, atol=1e-8)

    def test_ridge_regularises(self):
        m = np.zeros((3, 3))
        rhs = np.ones(3)
        x = solve_psd(m, rhs, ridge=1.0)
        assert np.allclose(x, rhs)

    def test_singular_falls_back_to_lstsq(self):
        m = np.asarray([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.asarray([2.0, 2.0])
        x = solve_psd(m, rhs)
        assert np.allclose(m @ x, rhs, atol=1e-8)


class TestSolvePsdBatched:
    @pytest.mark.parametrize("m", [1, 2, 6, 9])
    def test_rows_are_bitwise_solve_psd(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(12, 40, m))
        matrices = a.transpose(0, 2, 1) @ a + 1e-3 * np.eye(m)
        rhs = rng.normal(size=(12, m))
        got = solve_psd_batched(matrices, rhs)
        for b in range(12):
            assert got[b].tobytes() == solve_psd(matrices[b], rhs[b]).tobytes()

    def test_a_singular_system_takes_the_lstsq_fallback(self):
        matrices = np.stack([np.eye(2) * 2.0, np.ones((2, 2))])
        rhs = np.asarray([[1.0, 3.0], [2.0, 2.0]])
        got = solve_psd_batched(matrices, rhs)
        for b in range(2):
            assert got[b].tobytes() == solve_psd(matrices[b], rhs[b]).tobytes()


class TestConjugateGradient:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 8))
        m = a.T @ a + np.eye(8)
        rhs = rng.normal(size=8)
        x_cg = conjugate_gradient(lambda v: m @ v, rhs)
        assert np.allclose(x_cg, np.linalg.solve(m, rhs), atol=1e-6)

    def test_raises_on_no_convergence(self):
        m = np.diag([1.0, 1e12])
        with pytest.raises(ConvergenceError):
            conjugate_gradient(lambda v: m @ v, np.ones(2), max_iter=1, tol=1e-16)

    def test_zero_rhs(self):
        x = conjugate_gradient(lambda v: v, np.zeros(3))
        assert np.allclose(x, 0.0)


class TestBatchedOuterSum:
    def test_unweighted(self):
        v = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        expected = np.outer(v[0], v[0]) + np.outer(v[1], v[1])
        assert np.allclose(batched_outer_sum(v), expected)

    def test_weighted(self):
        v = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        out = batched_outer_sum(v, np.asarray([2.0, 3.0]))
        assert np.allclose(out, np.diag([2.0, 3.0]))


class TestScalarHelpers:
    def test_logsumexp_stability(self):
        big = np.asarray([1000.0, 1000.0])
        assert logsumexp(big) == pytest.approx(1000.0 + np.log(2.0))

    def test_logsumexp_axis(self):
        values = np.log(np.asarray([[1.0, 3.0], [2.0, 2.0]]))
        out = logsumexp(values, axis=1)
        assert np.allclose(np.exp(out), [4.0, 4.0])

    def test_sigmoid_extremes(self):
        assert sigmoid(np.asarray([-1000.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(np.asarray([1000.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.asarray([0.0]))[0] == pytest.approx(0.5)
