import numpy as np
import pytest

from mjls.errors import DimensionMismatch
from mjls.lmi import (
    LmiProblem,
    MapBuilder,
    SolveStatus,
    VariableLayout,
    evaluate,
    schur_expand,
    solve_feasibility,
)
from mjls.linalg import sym_eig


def constant_map(m):
    """Variable-free map over an empty layout."""
    lay = VariableLayout()
    return MapBuilder(len(m), lay).const(m).build(), lay


class TestLayoutPacking:
    def test_sym_round_trip(self):
        lay = VariableLayout()
        lay.add_sym("X", 4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.normal(size=(4, 4))
            m = 0.5 * (raw + raw.T)
            z = lay.pack({"X": m})
            assert np.array_equal(lay.unpack(z, "X"), m)

    def test_rect_and_scalar_round_trip(self):
        lay = VariableLayout()
        lay.add_rect("Y", 2, 3)
        lay.add_scalar("s")
        y = np.arange(6.0).reshape(2, 3)
        z = lay.pack({"Y": y, "s": 4.5})
        assert np.array_equal(lay.unpack(z, "Y"), y)
        assert lay.unpack(z, "s") == 4.5

    def test_offsets_disjoint(self):
        lay = VariableLayout()
        lay.add_sym("A", 3)
        lay.add_rect("B", 2, 2)
        lay.add_scalar("c")
        assert lay.size == 6 + 4 + 1
        spans = [(s.offset, s.offset + s.size) for s in map(lay.spec, lay.keys)]
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0


class TestEvaluate:
    def test_all_zero_blocks(self):
        lay = VariableLayout()
        lay.add_scalar("x")
        amap = MapBuilder(2, lay).build()
        assert np.array_equal(evaluate(amap, [5.0]), np.zeros((2, 2)))

    def test_identity_coefficient(self):
        lay = VariableLayout()
        lay.add_scalar("x")
        amap = MapBuilder(2, lay).scalar("x", np.eye(2)).build()
        assert np.allclose(evaluate(amap, [-3.0]), -3.0 * np.eye(2))

    def test_wrong_length_rejected(self):
        lay = VariableLayout()
        lay.add_scalar("x")
        amap = MapBuilder(1, lay).scalar("x", [[1.0]]).build()
        with pytest.raises(DimensionMismatch):
            evaluate(amap, [1.0, 2.0])

    def test_output_exactly_symmetric(self):
        lay = VariableLayout()
        lay.add_sym("X", 3)
        a = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [0.7, 0.1, 2.0]])
        amap = MapBuilder(3, lay).linear("X", left=a, mirror=True).build()
        rng = np.random.default_rng(1)
        z = rng.normal(size=lay.size)
        out = evaluate(amap, z)
        assert np.array_equal(out, out.T)


class TestSchurExpand:
    def test_scalar_block(self):
        # [[e, l],[l, -x]] < 0 iff e + l^2/x < 0 for x > 0.
        e, lay = constant_map([[-2.0]])
        l = MapBuilder(1, lay).const([[1.0]]).build()
        x = MapBuilder(1, lay).const([[1.0]]).build()
        block = schur_expand(e, [l], [x])
        out = evaluate(block, np.zeros(0))
        assert np.allclose(out, [[-2.0, 1.0], [1.0, -1.0]])

    def test_empty_companions_returns_e(self):
        e, _ = constant_map([[-2.0]])
        assert schur_expand(e, [], []) is e

    def test_complement_equivalence_random(self):
        # Definiteness verdict of the block form agrees with the directly
        # evaluated complement whenever the boundary margin exceeds 1e-6.
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            n_comp = int(rng.integers(1, 3))
            e_mat = rng.normal(size=(n, n))
            e_mat = 0.5 * (e_mat + e_mat.T) - rng.uniform(0.0, 3.0) * np.eye(n)
            lams = []
            xs = []
            for _ in range(n_comp):
                raw = rng.normal(size=(n, n))
                lams.append(0.3 * (raw + raw.T))
                g = rng.normal(size=(n, n))
                xs.append(g @ g.T + 0.5 * np.eye(n))
            complement = e_mat + sum(
                lam @ np.linalg.solve(x, lam.T) for lam, x in zip(lams, xs)
            )
            lay = VariableLayout()
            e_map = MapBuilder(n, lay).const(e_mat).build()
            block = schur_expand(
                e_map,
                [MapBuilder(n, lay).const(lam).build() for lam in lams],
                [MapBuilder(n, lay).const(x).build() for x in xs],
            )
            block_eig = sym_eig(evaluate(block, np.zeros(0))).max
            comp_eig = sym_eig(complement).max
            if abs(comp_eig) < 1e-6 or abs(block_eig) < 1e-6:
                continue
            checked += 1
            assert (block_eig < 0.0) == (comp_eig < 0.0)
        assert checked >= 150

    def test_dimension_mismatch(self):
        e, lay = constant_map([[-1.0]])
        wrong = MapBuilder(2, lay).const(np.eye(2)).build()
        with pytest.raises(DimensionMismatch):
            schur_expand(e, [wrong], [wrong])


def scalar_problem(delta=0.5):
    lay = VariableLayout()
    lay.add_scalar("x")
    neg = MapBuilder(1, lay).scalar("x", [[1.0]]).build()
    return LmiProblem(lay, [neg], [], delta=delta)


class TestSolveFeasibility:
    def test_one_dimensional(self):
        sol = solve_feasibility(scalar_problem(0.5), 100)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.z[0] <= -0.5 + 1e-9
        assert sol.neg_margins[0] <= -0.5 + 1e-9

    def test_contradictory_pair_never_feasible(self):
        lay = VariableLayout()
        lay.add_sym("X", 1)
        amap = MapBuilder(1, lay).linear("X").build()
        prob = LmiProblem(lay, [amap], [amap], delta=0.1)
        sol = solve_feasibility(prob, 5000)
        assert sol.status in (SolveStatus.INFEASIBLE, SolveStatus.ITERATION_LIMIT)
        assert sol.worst_violation > 0.0

    def test_deterministic_bit_identical(self):
        lay = VariableLayout()
        lay.add_sym("X", 2)
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        neg = MapBuilder(2, lay).linear("X", left=a, mirror=True).build()
        pos = MapBuilder(2, lay).linear("X").build()

        def run():
            prob = LmiProblem(lay, [neg], [pos], delta=1e-3, z0=lay.pack({"X": np.eye(2)}))
            return solve_feasibility(prob, 2000)

        s1, s2 = run(), run()
        assert s1.status is SolveStatus.FEASIBLE
        assert np.array_equal(s1.z, s2.z)

    def test_soundness_margins_reverified(self):
        # Independently recompute every constraint's extreme eigenvalue with
        # the module-local eigensolver, not the solver's internals.
        lay = VariableLayout()
        lay.add_sym("X", 3)
        lay.add_rect("Y", 1, 3)
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, -0.2]])
        b = np.array([[1.0], [0.0], [1.0]])
        neg = (
            MapBuilder(3, lay)
            .linear("X", left=a, mirror=True)
            .linear("Y", left=b, mirror=True)
            .build()
        )
        pos = MapBuilder(3, lay).linear("X").build()
        prob = LmiProblem(lay, [neg], [pos], delta=1e-4, z0=lay.pack({"X": np.eye(3)}))
        sol = solve_feasibility(prob, 5000)
        assert sol.status is SolveStatus.FEASIBLE
        for amap, reported, kind in ((neg, sol.neg_margins[0], "neg"), (pos, sol.pos_margins[0], "pos")):
            eig = sym_eig(evaluate(amap, sol.z))
            value = eig.max if kind == "neg" else eig.min
            assert abs(value - reported) <= 1e-9
            if kind == "neg":
                assert value <= -prob.delta + 1e-9
            else:
                assert value >= prob.delta - 1e-9

    def test_random_lyapunov_problems_sound(self):
        # Random Hurwitz dynamics give always-feasible Lyapunov problems;
        # every accepted solution must satisfy its margins when the blocks
        # are re-evaluated independently.
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            raw = rng.normal(size=(n, n))
            a = raw - (np.max(np.real(np.linalg.eigvals(raw))) + 0.5) * np.eye(n)
            lay = VariableLayout()
            lay.add_sym("X", n)
            neg = MapBuilder(n, lay).linear("X", left=a, mirror=True).build()
            pos = MapBuilder(n, lay).linear("X").build()
            prob = LmiProblem(lay, [neg], [pos], delta=1e-4, z0=lay.pack({"X": np.eye(n)}))
            sol = solve_feasibility(prob, 5000)
            assert sol.status is SolveStatus.FEASIBLE
            x = sol.variable("X")
            assert sym_eig(a @ x + x @ a.T).max <= -prob.delta + 1e-9
            assert sym_eig(x).min >= prob.delta - 1e-9

    def test_infeasible_reports_best_point(self):
        lay = VariableLayout()
        lay.add_sym("X", 1)
        amap = MapBuilder(1, lay).linear("X").build()
        prob = LmiProblem(lay, [amap], [amap], delta=0.1)
        sol = solve_feasibility(prob, 5000)
        assert len(sol.margins) == 2
        assert sol.iterations <= 5000

    def test_mixed_blocks_margins_in_constraint_order(self):
        # Block dimensions interleave across the neg and pos lists, one
        # dimension holds blocks with different variable counts, a neg and a
        # pos block share a dimension, and one block has no variables.  The
        # padding repeats variable 0, which is s: a padded block uses it.
        lay = VariableLayout()
        lay.add_scalar("s")
        lay.add_sym("X", 2)
        lay.add_sym("Y", 3)
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        b = np.array([[-1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.2, 0.0, -3.0]])
        neg = [
            MapBuilder(2, lay).linear("X", left=a, mirror=True).build(),
            MapBuilder(3, lay).linear("Y", left=b, mirror=True).build(),
            MapBuilder(2, lay).scalar("s", np.eye(2)).const(-2.0 * np.eye(2)).build(),
            MapBuilder(1, lay).const([[-1.0]]).build(),
        ]
        pos = [
            MapBuilder(3, lay).linear("Y").build(),
            MapBuilder(2, lay).linear("X").build(),
            MapBuilder(1, lay).scalar("s", [[1.0]]).build(),
        ]
        assert len(neg[3].var_idx) == 0
        prob = LmiProblem(lay, neg, pos, delta=1e-3)
        sol = solve_feasibility(prob, 5000)
        assert sol.status is SolveStatus.FEASIBLE
        assert len(sol.neg_margins) == len(neg) and len(sol.pos_margins) == len(pos)
        for amap, reported in zip(neg, sol.neg_margins):
            assert abs(sym_eig(evaluate(amap, sol.z)).max - reported) <= 1e-9
        for amap, reported in zip(pos, sol.pos_margins):
            assert abs(sym_eig(evaluate(amap, sol.z)).min - reported) <= 1e-9
