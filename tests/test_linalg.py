import numpy as np
import pytest

from mjls.errors import NonFinite, NonSquare, NonSymmetric
from mjls.linalg import cond, kron_sum, pinv, sym_eig

# Sign-corrected transition-rate matrices from the worked example (rows of a
# generator must sum to zero with nonnegative off-diagonals).
LAMBDA_1 = np.array([[-0.6, 0.6], [0.4, -0.4]])
MU_1 = np.array([[-0.8, 0.2, 0.6], [0.2, -0.9, 0.7], [0.5, 0.4, -0.9]])


class TestSymEig:
    def test_identity(self):
        res = sym_eig(np.eye(3))
        assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        res = sym_eig(np.diag([5.0, -2.0]))
        assert np.allclose(res.eigenvalues, [-2.0, 5.0])
        # Eigenvectors are axis vectors up to sign.
        assert np.allclose(np.abs(res.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_by_two_hand_oracle(self):
        # Characteristic polynomial by hand: trace 1.8, det 0.8 -> 0.8, 1.0.
        res = sym_eig(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.allclose(res.eigenvalues, [0.8, 1.0], atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_random_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            raw = rng.normal(size=(n, n))
            m = 0.5 * (raw + raw.T)
            res = sym_eig(m)
            v = res.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
            rec = v @ np.diag(res.eigenvalues) @ v.T
            scale = max(np.linalg.norm(m), 1e-30)
            assert np.linalg.norm(rec - m) <= 1e-9 * scale


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(2)), np.eye(2))

    def test_rank_one_oracle(self):
        # Rank-1 SVD by hand: sigma = 1, u = v = (1, 1)/sqrt(2), so the
        # pseudo-inverse equals the matrix itself.
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pinv(m), m, atol=1e-12)

    def test_invertible_two_by_two(self):
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        expected = np.array([[1.125, -0.125], [-0.125, 1.125]])
        assert np.allclose(pinv(m), expected, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            pinv(np.array([[np.inf, 0.0]]))

    def test_cutoff_relative_to_largest_singular_value(self):
        m = np.diag([2.0, 1e-13])
        assert np.array_equal(pinv(m), np.diag([0.5, 0.0]))  # 1e-13 <= 1e-12 * 2 drops
        assert np.allclose(pinv(m, tol=0.0), np.diag([0.5, 1e13]))
        with pytest.raises(ValueError):
            pinv(m, tol=-1.0)

    def test_condition_number(self):
        assert np.isclose(cond(np.diag([2.0, 0.5])), 4.0)
        assert cond(np.zeros((2, 2))) == np.inf
        with pytest.raises(NonFinite):
            cond(np.array([[np.nan]]))

    def test_moore_penrose_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.normal(size=(rows, cols))
            if rng.random() < 0.2 and min(rows, cols) > 1:
                m[:, -1] = m[:, 0]  # force rank deficiency sometimes
            p = pinv(m)
            assert np.max(np.abs(m @ p @ m - m)) <= 1e-8 * max(1.0, np.abs(m).max())
            assert np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(1.0, np.abs(p).max())
            assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
            assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8


class TestKronSum:
    def test_zeros(self):
        assert np.allclose(kron_sum(np.zeros((2, 2)), np.zeros((3, 3))), np.zeros((6, 6)))

    def test_single_state_second_chain(self):
        g1 = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(kron_sum(g1, np.array([[0.0]])), g1)

    def test_example_generators_row_sums(self):
        joint = kron_sum(LAMBDA_1, MU_1)
        assert joint.shape == (6, 6)
        # Brute-force row-sum check: generators compose to a generator.
        for i in range(6):
            assert abs(sum(joint[i])) <= 1e-12

    def test_random_generator_row_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g1 = _random_generator(rng, n1)
            g2 = _random_generator(rng, n2)
            joint = kron_sum(g1, g2)
            assert np.max(np.abs(joint.sum(axis=1))) <= 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquare):
            kron_sum(np.zeros((2, 3)), np.zeros((2, 2)))


class TestLeastSquares:
    """pinv(a) @ b is the minimum-norm least-squares solution."""

    def test_identity(self):
        b = np.array([[1.0], [2.0]])
        assert np.allclose(pinv(np.eye(2)) @ b, b)

    def test_overdetermined_hand_oracle(self):
        # Normal equations by hand: a'a = 2, a'b = 2 -> x = 1.
        x = pinv(np.array([[1.0], [1.0]])) @ np.array([[0.0], [2.0]])
        assert np.allclose(x, [[1.0]])

    def test_diagonal(self):
        x = pinv(np.diag([2.0, 3.0])) @ np.array([[4.0], [9.0]])
        assert np.allclose(x, [[2.0], [3.0]])

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.normal(size=(6, 3))
            b = rng.normal(size=(6, 2))
            x = pinv(a) @ b
            assert np.max(np.abs(a.T @ (a @ x - b))) <= 1e-8


def _random_generator(rng, n):
    g = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return g
