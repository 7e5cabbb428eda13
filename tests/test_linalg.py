"""The two linear-algebra constructions the model rests on.

Joint transition rates are Kronecker sums of the subsystem generators
(``compose_integrated``); the estimator's beta is the pseudo-inverse of a
row-stochastic emission matrix (``build_beta``).
"""

import numpy as np

from mjls.fixtures import example_model
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    build_beta,
    compose_integrated,
)


def _scalar_system(mode_count):
    return JumpLinearSystem(1, 1, 1, (ModeDynamics([[-1.0]], [[0.0]], [[0.0]]),) * mode_count)


def _joint_rates(g1, g2):
    """Joint generator of two single-region systems whose chains have rates g1 and g2."""
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    model = InterdependentModel(
        sys1=_scalar_system(len(g1)),
        sys2=_scalar_system(len(g2)),
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((g1,)),
        rates2=RateFamily((g2,)),
        obs1=ObservationModel((np.eye(len(g1)),)),
        obs2=ObservationModel((np.eye(len(g2)),)),
    )
    return compose_integrated(model).rates.matrix(1)


def _random_generator(rng, n):
    g = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


class TestKronSum:
    def test_zeros(self):
        assert np.array_equal(_joint_rates(np.zeros((2, 2)), np.zeros((3, 3))), np.zeros((6, 6)))

    def test_single_state_second_chain(self):
        g1 = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(_joint_rates(g1, [[0.0]]), g1)

    def test_example_generators_row_sums(self):
        m = example_model()
        g1, g2 = m.rates1.matrix(1), m.rates2.matrix(1)
        n1, n2 = len(g1), len(g2)
        joint = compose_integrated(m).rates.matrix(1)  # regions (1, 1)
        assert joint.shape == (n1 * n2, n1 * n2)
        # Brute force from the definition: one chain jumps while the other holds.
        for i1 in range(n1):
            for i2 in range(n2):
                for j1 in range(n1):
                    for j2 in range(n2):
                        expected = g1[i1, j1] * (i2 == j2) + g2[i2, j2] * (i1 == j1)
                        assert abs(joint[i1 * n2 + i2, j1 * n2 + j2] - expected) <= 1e-15
        for i in range(n1 * n2):
            assert abs(sum(joint[i])) <= 1e-12

    def test_random_generator_row_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            joint = _joint_rates(_random_generator(rng, n1), _random_generator(rng, n2))
            assert joint.shape == (n1 * n2, n1 * n2)
            assert np.max(np.abs(joint.sum(axis=1))) <= 1e-12
            assert np.min(joint - np.diag(np.diag(joint))) >= 0.0


class TestPinv:
    def test_identity(self):
        for n in range(1, 6):
            assert np.allclose(build_beta(np.eye(n)), np.eye(n))

    def test_rank_one_oracle(self):
        # Rank-1 SVD by hand: sigma = 1, u = v = (1, ..., 1)/sqrt(n), so the
        # pseudo-inverse equals the matrix itself.
        for n in range(2, 6):
            m = np.full((n, n), 1.0 / n)
            assert np.allclose(build_beta(m), m, atol=1e-12)

    def test_invertible_two_by_two(self):
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        # Inverse by hand: adjugate over det 0.8.
        expected = np.array([[1.125, -0.125], [-0.125, 1.125]])
        beta = build_beta(m)
        assert np.allclose(beta, expected, atol=1e-12)
        assert np.allclose(beta @ m, np.eye(2), atol=1e-12)
        assert np.allclose(m @ beta, np.eye(2), atol=1e-12)

    def test_moore_penrose_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = rng.uniform(size=(n, n))
            if rng.random() < 0.2 and n > 1:
                m[:, -1] = m[:, 0]  # force rank deficiency sometimes
            m /= m.sum(axis=1, keepdims=True)
            p = build_beta(m)
            assert np.max(np.abs(m @ p @ m - m)) <= 1e-8 * max(1.0, np.abs(m).max())
            assert np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(1.0, np.abs(p).max())
            assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
            assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8
