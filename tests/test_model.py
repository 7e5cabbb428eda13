import dataclasses

import numpy as np
import pytest

from mjls.errors import DimensionMismatch, NotStochastic
from mjls.fixtures import example_model
from mjls.model import (
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    build_beta,
    check_generator,
    compose_integrated,
    mode_pairs,
    region_index,
    region_pairs,
    validate,
)


def scalar_system(a=-1.0, b=0.0):
    return JumpLinearSystem(
        state_dim=1,
        input_dim=1,
        disturbance_dim=1,
        modes=(ModeDynamics([[a]], [[b]], [[0.0]]),),
    )


def single_mode_model(a1=-1.0, a2=-1.0, b1=0.0, b2=0.0):
    return InterdependentModel(
        sys1=scalar_system(a1, b1),
        sys2=scalar_system(a2, b2),
        part1=RegionPartition(()),
        part2=RegionPartition(()),
        rates1=RateFamily((np.array([[0.0]]),)),
        rates2=RateFamily((np.array([[0.0]]),)),
        obs1=ObservationModel((np.array([[1.0]]),)),
        obs2=ObservationModel((np.array([[1.0]]),)),
    )


class TestValidate:
    def test_example_model_is_clean(self):
        assert validate(example_model()) == []

    def test_printed_lambda_rows_are_rejected(self):
        m = example_model()
        bad = InterdependentModel(
            sys1=m.sys1,
            sys2=m.sys2,
            part1=m.part1,
            part2=m.part2,
            rates1=RateFamily((np.array([[-0.6, 0.6], [-0.4, 0.4]]),) + m.rates1.matrices[1:]),
            rates2=m.rates2,
            obs1=m.obs1,
            obs2=m.obs2,
        )
        messages = [str(v) for v in validate(bad)]
        assert any("negative off-diagonal rate" in msg for msg in messages)

    def test_single_mode_trivial_model(self):
        assert validate(single_mode_model()) == []

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    def test_ill_conditioned_emission_is_valid(self, demo, eps):
        # validate asks only that an emission be row-stochastic; whether it
        # inverts is asked by the synthesis that recovers gains through it.
        alphas = (np.array([[0.5 + eps, 0.5 - eps], [0.5, 0.5]]), *demo.obs1.alphas[1:])
        assert validate(dataclasses.replace(demo, obs1=ObservationModel(alphas))) == []

    @pytest.mark.parametrize(
        "edit, violation",
        [
            (lambda m: dataclasses.replace(m, sys1=dataclasses.replace(m.sys1, modes=())),
             "system1: system must declare at least one mode"),
            (lambda m: _with_mode(m, "sys1", b=np.zeros((2, 2))), "system1.modes[1].B: expected shape (2, 1), got (2, 2)"),
            (lambda m: _with_mode(m, "sys2", d=np.zeros((2, 3))), "system2.modes[1].D: expected shape (3, 1), got (2, 3)"),
            (lambda m: _with_mode(m, "sys2", a=np.diag([-1.0, np.nan, -1.0])), "system2.modes[1].A: non-finite entries"),
            (lambda m: dataclasses.replace(m, part1=RegionPartition((np.nan,))),
             "partition1.thresholds[1]: non-finite threshold"),
            (lambda m: dataclasses.replace(m, part2=RegionPartition((-1.0, 10.0))),
             "partition2.thresholds[1]: threshold -1.0 is negative"),
        ],
        ids=["no-modes", "B-shape", "D-shape", "nan-in-A", "nan-threshold", "negative-threshold"],
    )
    def test_bad_field_named(self, edit, violation):
        assert violation in [str(v) for v in validate(edit(example_model()))]

    def test_matrix_that_is_not_2d_reported(self):
        bad = dataclasses.replace(
            single_mode_model(),
            sys1=JumpLinearSystem(1, 1, 1, (ModeDynamics([-1.0], [[0.0]], [[0.0]]),)),
            rates1=RateFamily(([0.0],)),
            obs1=ObservationModel((1.0,)),
        )
        assert [str(v) for v in validate(bad)] == [
            "system1.modes[1].A: expected shape (1, 1), got (1,)",
            "rates1[1]: expected shape (1, 1), got (1,)",
            "obs1[1]: expected shape (1, 1), got ()",
        ]

    def test_nonsquare_rate_matrix_reported(self):
        m = example_model()
        bad = dataclasses.replace(m, rates1=RateFamily((np.zeros((2, 3)),) + m.rates1.matrices[1:]))
        assert "rates1[1]: expected shape (2, 2), got (2, 3)" in [str(v) for v in validate(bad)]

    def test_region_count_mismatch_reported(self):
        m = example_model()
        bad = InterdependentModel(
            sys1=m.sys1,
            sys2=m.sys2,
            part1=m.part1,
            part2=m.part2,
            rates1=RateFamily(m.rates1.matrices[:2]),  # needs 3 (one per x2 region)
            rates2=m.rates2,
            obs1=m.obs1,
            obs2=m.obs2,
        )
        assert any(v.path == "rates1" for v in validate(bad))


def _with_mode(model, sys_name, **matrices):
    """``model`` with the given matrices of mode 1 of ``sys_name`` replaced."""
    sys = getattr(model, sys_name)
    modes = (dataclasses.replace(sys.modes[0], **matrices), *sys.modes[1:])
    return dataclasses.replace(model, **{sys_name: dataclasses.replace(sys, modes=modes)})


class TestCheckGenerator:
    def test_row_sum_tolerance_scales_with_the_rates(self):
        # With each diagonal set to minus its row's off-diagonal sum, the row
        # sums are rounding error, which grows with the rates.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            g = rng.uniform(0.0, 1e4, size=(3, 3))
            np.fill_diagonal(g, 0.0)
            np.fill_diagonal(g, -g.sum(axis=1))
            out = []
            check_generator(g, "g", out, 3)
            assert out == []

    def test_row_off_by_a_millionth_of_its_scale_rejected(self):
        g = np.array([[-1e4 - 1e-2, 4e3, 6e3], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        out = []
        check_generator(g, "g", out, 3)
        assert [str(v) for v in out] == ["g[row 1]: row sums to -0.01, must be 0 within 1e-08"]


class TestRegionIndex:
    def test_example_inner_shell(self):
        part2 = example_model().part2
        assert region_index(part2, np.array([1.0, 0.0, 0.0])) == 1

    def test_example_middle_shell(self):
        part2 = example_model().part2
        assert region_index(part2, np.array([0.0, 0.0, 3.0])) == 2

    def test_boundary_goes_to_upper_shell(self):
        # |x|^2 exactly 10 belongs to the outer shell (lower shell half-open).
        part2 = example_model().part2
        assert region_index(part2, np.array([0.0, np.sqrt(10.0), 0.0])) == 3

    def test_single_region(self):
        assert region_index(RegionPartition(()), np.array([42.0])) == 1

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            region_index(RegionPartition((1.0,)), np.eye(2))

    def test_total_and_single_valued(self):
        part = RegionPartition((0.5, 2.0, 7.5))
        rng = np.random.default_rng(2)
        for _ in range(100_000):
            x = rng.normal(size=3) * rng.uniform(0.0, 3.0)
            sq = float(x @ x)
            m = region_index(part, x)
            lo = (0.0, 0.5, 2.0, 7.5)[m - 1]
            hi = (0.5, 2.0, 7.5, np.inf)[m - 1]
            assert lo <= sq < hi


class TestBuildBeta:
    def test_identity(self):
        assert np.allclose(build_beta(np.eye(3)), np.eye(3))

    def test_invertible_example_matrix(self):
        beta = build_beta(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.allclose(beta, [[1.125, -0.125], [-0.125, 1.125]], atol=1e-12)

    def test_singular_falls_back_to_pseudo_inverse(self):
        alpha = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(build_beta(alpha), alpha, atol=1e-12)

    def test_rejects_nonstochastic(self):
        with pytest.raises(NotStochastic):
            build_beta(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NotStochastic, match="non-finite entries"):
            build_beta(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_rejects_matrix_that_is_not_2d(self):
        with pytest.raises(NotStochastic, match=r"expected shape \(2, 2\), got \(2,\)"):
            build_beta([0.5, 0.5])

    def test_cutoff_relative_to_largest_singular_value(self):
        # Singular values about 1 and 1e-14: the second drops, so beta is the
        # pseudo-inverse of the rank-one part, not an inverse of size 1e14.
        alpha = np.array([[0.5, 0.5], [0.5 + 1e-14, 0.5 - 1e-14]])
        assert np.allclose(build_beta(alpha), 0.5, atol=1e-10)

    def test_round_trip_random_stochastic(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            alpha = rng.uniform(size=(n, n))
            if rng.random() < 0.15:
                alpha[-1] = alpha[0]  # occasionally singular
            alpha /= alpha.sum(axis=1, keepdims=True)
            beta = build_beta(alpha)
            assert np.max(np.abs(alpha @ beta @ alpha - alpha)) <= 1e-8


class TestComposeIntegrated:
    def test_example_counts(self):
        integ = compose_integrated(example_model())
        assert integ.mode_count == 6
        assert integ.cell_count == 6
        assert integ.system.state_dim == 5
        assert integ.system.input_dim == 2
        assert len(integ.rates.matrices) == 6
        assert len(integ.obs.alphas) == 6

    def test_block_diagonal_dynamics(self):
        m = example_model()
        integ = compose_integrated(m)
        # Joint mode (2, 3) -> flat index (2-1)*3 + 3 = 6.
        dyn = integ.system.dynamics(6)
        assert np.allclose(dyn.a[:2, :2], m.sys1.dynamics(2).a)
        assert np.allclose(dyn.a[2:, 2:], m.sys2.dynamics(3).a)
        assert np.allclose(dyn.a[:2, 2:], 0.0)
        assert np.allclose(dyn.b[:2, 0:1], m.sys1.dynamics(2).b)
        assert np.allclose(dyn.b[2:, 1:2], m.sys2.dynamics(3).b)

    def test_two_single_mode_systems(self):
        integ = compose_integrated(single_mode_model())
        assert integ.mode_count == 1
        assert np.allclose(integ.rates.matrix(1), [[0.0]])

    def test_joint_generators_valid(self):
        integ = compose_integrated(example_model())
        for g in integ.rates.matrices:
            assert np.max(np.abs(g.sum(axis=1))) <= 1e-12
            off = g - np.diag(np.diag(g))
            assert np.min(off) >= 0.0

    def test_joint_emissions_row_stochastic(self):
        integ = compose_integrated(example_model())
        for a in integ.obs.alphas:
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12
            assert np.min(a) >= 0.0

    def test_mode_index_bijection(self):
        # Joint modes are row-major: (i1, i2) is joint mode (i1 - 1) * 3 + i2.
        model = example_model()
        row_major = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert mode_pairs(model) == row_major
        assert compose_integrated(model).mode_count == len(row_major)

    def test_cell_index_bijection(self):
        # Cells are row-major: (m1, m2) is cell (m1 - 1) * 3 + m2.
        part = compose_integrated(example_model()).partition
        row_major = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert [part.cell_pair(m) for m in range(1, part.cell_count + 1)] == row_major
        assert region_pairs(example_model()) == row_major
