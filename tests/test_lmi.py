import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from mjls import lmi
from mjls.errors import DimensionMismatch, NonFinite, NonSymmetric
from mjls.lmi import (
    AffineMatrixMap,
    LmiProblem,
    MapBuilder,
    SolveStatus,
    VariableLayout,
    _iterates,
    _max_margin,
    check_infeasibility_certificate,
    evaluate,
    solve_feasibility,
)
from mjls.fileio import load_model
from mjls.model import compose_integrated
from mjls.synthesis import build_centralized, build_distributed


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


def basis(spec):
    """Each z slot's derivative of the variable, by hand: the upper triangle of
    a symmetric variable row by row, a rectangular one row-major, a scalar."""
    rows, cols = spec.shape
    for i in range(rows):
        for j in range(i if spec.kind == "sym" else 0, cols):
            e = np.zeros(spec.shape)
            e[i, j] = 1.0
            if spec.kind == "sym":
                e[j, i] = 1.0
            yield e


class DenseReference:
    """Independent oracle for MapBuilder: F(z) as the dense sum of
    z_k * coeff * L @ E_k @ R over every term and z slot k, placed by slicing
    and mirrored.  A scalar variable's term is its matrix as the coeff."""

    def __init__(self, dim, layout):
        self.dim, self.layout, self.terms = dim, layout, []

    def linear(self, key, left=None, right=None, coeff=1.0, at=(0, 0), mirror=False):
        self.terms.append((key, left, right, coeff, at, mirror))
        return self

    def scalar(self, key, m, at=(0, 0), mirror=False):
        return self.linear(key, coeff=np.asarray(m, dtype=float), at=at, mirror=mirror)

    def value(self, z):
        out = np.zeros((self.dim, self.dim))
        for key, left, right, coeff, (r, c), mirror in self.terms:
            spec = self.layout.spec(key)
            for k, e in enumerate(basis(spec)):
                term = e if left is None else left @ e
                term = term if right is None else term @ right
                term = z[spec.offset + k] * coeff * term
                rows, cols = term.shape
                out[r : r + rows, c : c + cols] += term
                if mirror:
                    out[c : c + cols, r : r + rows] += term.T
        return out


def random_terms(rng):
    """Terms of a symmetric 6x6 map over sym, rect and scalar variables: left,
    right and both, diagonal and off-diagonal offsets, with and without
    mirror, and one variable in three terms."""
    w = rng.normal(size=(2, 2))
    sym = rng.normal(size=(2, 2))
    return [
        ("linear", "X", dict(left=rng.normal(size=(3, 3)), mirror=True)),
        ("linear", "X", dict(coeff=-0.7)),
        ("linear", "X", dict(right=rng.normal(size=(3, 2)), at=(0, 3), mirror=True)),
        ("linear", "Y", dict(left=rng.normal(size=(4, 2)), at=(1, 0), mirror=True)),
        ("linear", "W", dict(left=w, right=w.T, coeff=2.5, at=(3, 3))),
        ("scalar", "s", dict(m=sym + sym.T, at=(4, 4))),
        ("scalar", "s", dict(m=rng.normal(size=(2, 1)), at=(4, 1), mirror=True)),
    ]


def build_both(terms, dim, lay):
    built, ref = MapBuilder(dim, lay), DenseReference(dim, lay)
    for kind, key, kw in terms:
        getattr(built, kind)(key, **kw)
        getattr(ref, kind)(key, **kw)
    return built.build(), ref


def mixed_layout():
    lay = VariableLayout()
    lay.add_sym("X", 3)
    lay.add_rect("Y", 2, 3)
    lay.add_scalar("s")
    lay.add_sym("W", 2)
    return lay


class TestMapBuilder:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        lay = mixed_layout()
        for _ in range(20):
            amap, ref = build_both(random_terms(rng), 6, lay)
            key = amap.var_idx * 36 + amap.entries
            assert np.all(np.diff(key) > 0) and np.all(amap.coeffs != 0.0)
            for _ in range(3):
                z = rng.normal(size=lay.size)
                assert np.max(np.abs(evaluate(amap, z) - ref.value(z))) <= 1e-12
        # A stack of three blocks, with one key and one coefficient per block
        # in some terms and shared ones in others.
        lay = VariableLayout()
        for k in range(3):
            lay.add_sym(("X", k), 3)
            lay.add_rect(("Y", k), 2, 3)
        a, b, coeff = rng.normal(size=(3, 3)), rng.normal(size=(2, 2)), [0.5, 0.0, -2.0]
        # A list of right operands is given to the builder as one stacked
        # (3, n, c) array, and to each block's reference one at a time.
        terms = [
            ("linear", [("X", k) for k in range(3)], dict(left=a, mirror=True)),
            ("linear", [("Y", k) for k in (2, 0, 1)], dict(left=b, at=(3, 0), mirror=True)),
            ("linear", ("X", 0), dict(coeff=coeff, at=(0, 2), mirror=True)),
            ("linear", ("Y", 1), dict(right=a, coeff=-0.7, at=(3, 0), mirror=True)),
            ("linear", ("X", 2), dict(right=list(rng.normal(size=(3, 3, 2))), at=(0, 3), mirror=True)),
            ("linear", [("X", k) for k in range(3)], dict(right=list(rng.normal(size=(3, 3, 3))), coeff=coeff, mirror=True)),
        ]
        stack = MapBuilder(5, lay, 3)
        for kind, key, kw in terms:
            getattr(stack, kind)(key, **kw)
        for k, amap in enumerate(stack.build()):
            ref = DenseReference(5, lay)
            for kind, key, kw in terms:
                kw = {name: v[k] if isinstance(v, list) else v for name, v in kw.items()}
                getattr(ref, kind)(key[k] if isinstance(key, list) else key, **kw)
            z = rng.normal(size=lay.size)
            assert np.max(np.abs(evaluate(amap, z) - ref.value(z))) <= 1e-12
        # A term's operand is given once for all blocks or once per block.
        for kw in (dict(right=rng.normal(size=(2, 3, 3))), dict(coeff=[1.0, 2.0])):
            with pytest.raises(DimensionMismatch, match="or 3, got 2"):
                MapBuilder(5, lay, 3).linear(("X", 0), **kw)
        for kw in (dict(right=rng.normal(size=(3, 3, 3))), dict(coeff=[1.0, 2.0, 3.0])):
            with pytest.raises(DimensionMismatch, match="or 1, got 3"):
                MapBuilder(5, lay).linear(("X", 0), **kw)

    def test_cancelling_terms_leave_no_triples(self):
        lay = mixed_layout()
        amap = MapBuilder(3, lay).linear("X", coeff=0.5).linear("X", coeff=-0.5).build()
        assert len(amap.coeffs) == len(amap.var_idx) == len(amap.entries) == 0

    def test_unsorted_or_repeated_triples_rejected(self):
        # The symmetry check pairs each entry with its transpose by search.
        f0 = np.zeros((2, 2))
        for entries in ([2, 1], [1, 1]):
            with pytest.raises(ValueError, match="sorted"):
                AffineMatrixMap(2, 1, f0, np.array(entries), np.zeros(2, dtype=int), np.ones(2))
        # A stack is checked block by block: the same triples in its second
        # block fail, while a block may start below where the one before ended.
        block, var = np.array([0, 0, 1, 1]), np.zeros(4, dtype=int)
        for entries in ([2, 1], [1, 1]):
            with pytest.raises(ValueError, match="sorted"):
                lmi._stack_maps(2, 1, np.zeros((2, 2, 2)), np.array([0, 3, *entries]), var, np.ones(4), block)
        maps = lmi._stack_maps(2, 1, np.zeros((2, 2, 2)), np.array([0, 3, 1, 2]), var, np.ones(4), block)
        assert [m.entries.tolist() for m in maps] == [[0, 3], [1, 2]]

    def test_misshapen_triples_rejected(self):
        with pytest.raises(DimensionMismatch, match="triples"):
            AffineMatrixMap(2, 1, np.zeros((2, 2)), np.array([1, 2]), np.zeros(2, dtype=int), np.ones(3))

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("var_idx", [1, 1, 1], DimensionMismatch, r"variable outside \[0, 1\)"),
            ("var_idx", [-1, -1, -1], DimensionMismatch, r"variable outside \[0, 1\)"),
            ("entries", [1, 2, 4], DimensionMismatch, r"entry outside \[0, 4\)"),
            ("entries", [-1, 1, 2], DimensionMismatch, r"entry outside \[0, 4\)"),
            ("coeffs", [0.0, 1.0, 1.0], ValueError, "nonzero"),
        ],
        ids=["variable-past-nvars", "negative-variable", "entry-past-dim2", "negative-entry", "zero-coefficient"],
    )
    def test_out_of_range_or_zero_triples_rejected(self, field, value, error, message):
        # Each bad field alone, sorted and mirrored so that only its range
        # or its zero is wrong, fails a single map and one block of a stack.
        good = {"entries": np.array([0, 1, 2]), "var_idx": np.zeros(3, dtype=int), "coeffs": np.ones(3)}
        bad = {**good, field: np.array(value, dtype=good[field].dtype)}
        with pytest.raises(error, match=message):
            AffineMatrixMap(2, 1, np.zeros((2, 2)), bad["entries"], bad["var_idx"], bad["coeffs"])
        stacked = [np.concatenate([good[name], bad[name]]) for name in ("entries", "var_idx", "coeffs")]
        with pytest.raises(error, match=message):
            lmi._stack_maps(2, 1, np.zeros((2, 2, 2)), *stacked, np.repeat([0, 1], 3))

    @pytest.mark.parametrize("at, mirror", [((0, 2), False), ((2, 0), False), ((0, 2), True), ((3, 3), False)])
    def test_term_past_the_block_edge_rejected(self, at, mirror):
        lay = mixed_layout()
        with pytest.raises(DimensionMismatch, match="exceeds block dim 4"):
            MapBuilder(4, lay).linear("X", at=at, mirror=mirror)

    def test_unmirrored_non_symmetric_term_rejected(self):
        lay = VariableLayout()
        lay.add_sym("X", 2)
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetric):
            MapBuilder(2, lay).linear("X", left=a).build()
        # In a stack, the term in one block alone fails the whole stack.
        stack = MapBuilder(2, lay, 3).linear("X", left=a, mirror=True)
        with pytest.raises(NonSymmetric):
            stack.linear("X", left=a, coeff=[0.0, 1.0, 0.0]).build()
        # Nor does a block's missing transpose turn up in the next block.
        with pytest.raises(NonSymmetric):
            lmi._stack_maps(2, 1, np.zeros((2, 2, 2)), np.array([1, 0]), np.zeros(2, dtype=int), np.ones(2), np.array([0, 1]))


def scalar_problem(delta=0.5):
    lay = VariableLayout()
    lay.add_scalar("x")
    neg = MapBuilder(1, lay).scalar("x", [[1.0]]).build()
    return LmiProblem(lay, [neg], [], delta=delta)


def contradictory_pair():
    lay = VariableLayout()
    lay.add_sym("X", 1)
    amap = MapBuilder(1, lay).linear("X").build()
    return LmiProblem(lay, [amap], [amap], delta=0.1)


def contradictory_pair_2x2():
    lay = VariableLayout()
    lay.add_sym("X", 2)
    amap = MapBuilder(2, lay).linear("X").build()
    return LmiProblem(lay, [amap], [amap], delta=0.1)


def mixed_problem():
    """Block dimensions interleave across the neg and pos lists, one
    dimension holds blocks with different variable counts, a neg and a pos
    block share a dimension, and one block has no variables."""
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
    return LmiProblem(lay, neg, pos, delta=1e-3)


class TestSolveFeasibility:
    def test_problem_without_constraints_rejected(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            LmiProblem(VariableLayout(), [], [], delta=0.1)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_non_positive_margin_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            scalar_problem(delta)

    def test_one_dimensional(self):
        sol = solve_feasibility(scalar_problem(0.5))
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.z[0] <= -0.5 + 1e-9
        assert sol.neg_margins[0] <= -0.5 + 1e-9

    def test_contradictory_pair_never_feasible(self):
        sol = solve_feasibility(contradictory_pair())
        assert sol.status in (SolveStatus.INFEASIBLE, SolveStatus.ITERATION_LIMIT)
        assert sol.worst_violation > 0.0

    def test_deterministic_bit_identical(self):
        lay = VariableLayout()
        lay.add_sym("X", 2)
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        neg = MapBuilder(2, lay).linear("X", left=a, mirror=True).build()
        pos = MapBuilder(2, lay).linear("X").build()

        def run():
            prob = LmiProblem(lay, [neg], [pos], delta=1e-3)
            return solve_feasibility(prob)

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
        prob = LmiProblem(lay, [neg], [pos], delta=1e-4)
        sol = solve_feasibility(prob)
        assert sol.status is SolveStatus.FEASIBLE
        for amap, reported, kind in ((neg, sol.neg_margins[0], "neg"), (pos, sol.pos_margins[0], "pos")):
            eig = np.linalg.eigvalsh(evaluate(amap, sol.z))
            value = eig.max() if kind == "neg" else eig.min()
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
            prob = LmiProblem(lay, [neg], [pos], delta=1e-4)
            sol = solve_feasibility(prob)
            assert sol.status is SolveStatus.FEASIBLE
            x = sol.variable("X")
            assert np.linalg.eigvalsh(a @ x + x @ a.T).max() <= -prob.delta + 1e-9
            assert np.linalg.eigvalsh(x).min() >= prob.delta - 1e-9

    def test_infeasible_reports_best_point(self):
        sol = solve_feasibility(contradictory_pair())
        assert len(sol.margins) == 2
        assert sol.iterations <= 5000

    def test_mixed_blocks_margins_in_constraint_order(self):
        prob = mixed_problem()
        neg, pos = prob.neg, prob.pos
        sol = solve_feasibility(prob)
        assert sol.status is SolveStatus.FEASIBLE
        assert len(sol.neg_margins) == len(neg) and len(sol.pos_margins) == len(pos)
        for amap, reported in zip(neg, sol.neg_margins):
            assert abs(np.linalg.eigvalsh(evaluate(amap, sol.z)).max() - reported) <= 1e-9
        for amap, reported in zip(pos, sol.pos_margins):
            assert abs(np.linalg.eigvalsh(evaluate(amap, sol.z)).min() - reported) <= 1e-9


def split_problem():
    """Blocks that split into pieces: a neg block whose 1x1 piece (row 1)
    sits between the rows of its 2x2 piece and holds its largest eigenvalue
    at SPLIT_POINT, and a pos block whose 1x1 piece holds its smallest."""
    lay = VariableLayout()
    lay.add_sym("X", 2)
    lay.add_sym("Y", 2)
    lay.add_scalar("s")
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    p = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # onto rows 0 and 2 of a 3x3 block
    e1 = np.zeros((3, 3))
    e1[1, 1] = 1.0
    neg = [
        MapBuilder(3, lay).linear("X", left=p @ a, right=p.T, mirror=True).scalar("s", -e1).const(0.8 * e1).build(),
        MapBuilder(2, lay).linear("Y", left=a, mirror=True).build(),
    ]
    pos = [
        MapBuilder(3, lay).linear("Y", left=p, right=p.T).scalar("s", e1).build(),
        MapBuilder(2, lay).linear("X").build(),
    ]
    return LmiProblem(lay, neg, pos, delta=1e-3)


SPLIT_POINT = {"X": np.eye(2), "Y": np.eye(2), "s": 0.9}


def jump_problem(separate: bool):
    """Coupled Lyapunov blocks of a three-mode jump system with their Schur
    companions, placed as the synthesis builders place them.  Modes 1 and 3
    never jump to each other, so their blocks have an empty companion and
    split off a -X_j piece; with ``separate`` that piece is entered as a
    constraint of its own."""
    a = [np.array([[0.8, 1.0], [-1.0, -0.1]]), np.array([[-1.5, 0.5], [0.0, -0.5]]), np.array([[0.0, 2.0], [-0.3, 0.7]])]
    rates = np.array([[-3.0, 3.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
    lay = VariableLayout()
    for i in range(3):
        lay.add_sym(i, 2)
    neg = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        if separate:
            neg.extend(MapBuilder(2, lay).linear(j, coeff=-1.0).build() for j in others if rates[i, j] == 0.0)
            others = [j for j in others if rates[i, j] != 0.0]
        block = MapBuilder(2 * (1 + len(others)), lay)
        block.linear(i, left=a[i], mirror=True).linear(i, coeff=rates[i, i])
        for n, j in enumerate(others, start=1):
            if rates[i, j] > 0.0:
                block.linear(i, coeff=np.sqrt(rates[i, j]), at=(0, 2 * n), mirror=True)
            block.linear(j, coeff=-1.0, at=(2 * n, 2 * n))
        neg.append(block.build())
    pos = [MapBuilder(2, lay).linear(i).build() for i in range(3)]
    return LmiProblem(lay, neg, pos, delta=1e-3)


def edge_problem():
    """An 8x8 block that is one piece only through a chain of seven links,
    and a 3x3 block with a one-sided entry within the symmetry tolerance,
    which still ties its row and column into one piece."""
    lay = VariableLayout()
    lay.add_scalar("s")
    chain = np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1) - 3.0 * np.eye(8)
    lopsided = -np.eye(3)
    lopsided[0, 2] = 5e-13
    neg = [MapBuilder(8, lay).const(chain).scalar("s", np.eye(8)).build(), MapBuilder(3, lay).const(lopsided).build()]
    return LmiProblem(lay, neg, [], delta=1e-3)


def piece_sizes(prob):
    # The scalar cone holds the 1x1 pieces, then the max-margin problem's two 1x1 blocks.
    cones = _max_margin(prob).cones
    ones = cones.scalars.span.stop - cones.scalars.span.start - 2
    return sorted([(g.dim, len(g.var)) for g in cones.groups] + [(1, ones)] * (ones > 0))


class TestPieces:
    def test_split_block_iterates_as_its_pieces(self):
        # A block is definite exactly when each of its pieces is: the same
        # iteration as with the pieces entered as constraints.
        whole, separate = jump_problem(False), jump_problem(True)
        assert piece_sizes(whole) == piece_sizes(separate) == [(2, 5), (4, 2), (6, 1)]
        a, b = solve_feasibility(whole), solve_feasibility(separate)
        assert a.status is b.status is SolveStatus.FEASIBLE
        assert a.iterations == b.iterations == 6
        assert np.linalg.norm(a.z - b.z) <= 1e-12 * np.linalg.norm(b.z)

    def test_margins_are_extremes_over_pieces(self):
        prob = split_problem()
        assert piece_sizes(prob) == [(1, 2), (2, 4)]
        sol = solve_feasibility(prob)
        assert sol.status is SolveStatus.FEASIBLE
        blocks = [evaluate(m, sol.z) for m in (*prob.neg, *prob.pos)]
        eigs = [np.linalg.eigvalsh(block) for block in blocks]
        for reported, eig in zip(sol.neg_margins, eigs):
            assert abs(reported - eig.max()) <= 1e-9
        for reported, eig in zip(sol.pos_margins, eigs[len(prob.neg) :]):
            assert abs(reported - eig.min()) <= 1e-9
        # The extreme of each split block is the extreme over its pieces: at
        # this point neg block 0's lies in its 1x1 piece, pos block 0's in its
        # 2x2 piece.
        inner = np.ix_([0, 2], [0, 2])
        assert sol.neg_margins[0] == blocks[0][1, 1] > np.linalg.eigvalsh(blocks[0][inner]).max()
        assert abs(sol.pos_margins[0] - np.linalg.eigvalsh(blocks[2][inner]).min()) <= 1e-9
        assert sol.pos_margins[0] < blocks[2][1, 1]
        # At SPLIT_POINT both split blocks hold their extreme in the 1x1
        # piece.  Each piece's lowest eigenvalue of H is that of -F on a neg
        # block.
        point = prob.layout.pack(SPLIT_POINT)
        piece = _max_margin(prob).lowest(point)  # pieces 0, 1 of neg block 0; 3, 4 of pos block 0
        at = [evaluate(m, point) for m in (prob.neg[0], prob.pos[0])]
        assert -piece[1] == at[0][1, 1] > -piece[0] == pytest.approx(np.linalg.eigvalsh(at[0][inner]).max())
        assert piece[4] == at[1][1, 1] < piece[3] == pytest.approx(np.linalg.eigvalsh(at[1][inner]).min())


def scalar_pair(delta, neg_const=0.0, pos_const=0.0):
    """{x + neg_const < -delta, x + pos_const > delta} over one scalar x."""
    lay = VariableLayout()
    lay.add_scalar("x")
    neg = MapBuilder(1, lay).scalar("x", [[1.0]]).const([[neg_const]]).build()
    pos = MapBuilder(1, lay).scalar("x", [[1.0]]).const([[pos_const]]).build()
    return LmiProblem(lay, [neg], [pos], delta=delta)


def converged_iterate(prob):
    """The first max-margin iterate (y, x, s) whose duality gap x.s is
    below 1e-13."""
    for k, (y, x, s) in enumerate(_iterates(_max_margin(prob))):
        if x @ s <= 1e-13:
            return y, x, s
        assert k < 40


class TestInteriorPoint:
    def test_hand_computed_max_margin(self):
        # {x - 1 < -delta, x > delta}: with H = (1 - x, x) the blocks are
        # tau (1 - delta) - x >= t, x - tau delta >= t and delta tau >= t,
        # under tau (1 - delta) <= 1.  The first two give 2t <= tau (1 - 2
        # delta), so for delta <= 1/4 the third binds: t* = delta / (1 -
        # delta) at tau = 1 / (1 - delta).  At the optimum the primal
        # objective (the normalization block's multiplier) equals t*.
        delta = 0.1
        y, x, s = converged_iterate(scalar_pair(delta, neg_const=-1.0))
        assert abs(y[-1] - delta / (1 - delta)) <= 1e-9
        assert abs(y[-2] - 1 / (1 - delta)) <= 1e-6
        assert abs(x[-1] - delta / (1 - delta)) <= 1e-9
        # The homogeneous {x < -delta}: -x - tau delta >= t, delta tau >= t,
        # -x <= 1, so t* = 1/2 at x = -1, whatever delta.
        y, x, s = converged_iterate(scalar_problem(1e-3))
        assert abs(y[-1] - 0.5) <= 1e-9 and abs(y[0] + 1.0) <= 1e-8

    @pytest.mark.parametrize("make", [split_problem, lambda: jump_problem(False), mixed_problem], ids=["split", "jump", "mixed"])
    def test_cap_returns_the_iterate_it_stops_at(self, monkeypatch, make):
        # A cap below the verdict's iteration returns that iterate; any other
        # cap returns the verdict bit for bit.
        prob = make()
        ref = solve_feasibility(prob)
        assert ref.status is SolveStatus.FEASIBLE
        zs = [y[: prob.layout.size].copy() for y, _, _ in _iterates(_max_margin(prob))]
        for cap in range(1, ref.iterations + 2):
            monkeypatch.setattr(lmi, "_MAX_ITERATIONS", cap)
            sol = solve_feasibility(prob)
            if cap < ref.iterations:
                assert (sol.status, sol.iterations) == (SolveStatus.ITERATION_LIMIT, cap)
                assert sol.z.tobytes() == zs[cap].tobytes()
            else:
                assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
                for got, want in ((sol.z, ref.z), (sol.neg_margins, ref.neg_margins), (sol.pos_margins, ref.pos_margins)):
                    assert got.tobytes() == want.tobytes()

    def test_factorization_failure_ends_in_iteration_limit(self, monkeypatch):
        # A LinAlgError from the third step's first Cholesky ends the run on
        # the iterate before it, as ITERATION_LIMIT, without raising.
        prob = jump_problem(False)
        zs = [y[: prob.layout.size].copy() for y, _, _ in _iterates(_max_margin(prob))]
        groups = len(_max_margin(prob).cones.groups)
        cholesky, calls = np.linalg.cholesky, []

        def failing(a):
            calls.append(1)
            if len(calls) == 2 * groups + 1:  # X stacked over S of every group, twice
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        sol = solve_feasibility(prob)
        assert (sol.status, sol.iterations) == (SolveStatus.ITERATION_LIMIT, 2)
        assert sol.z.tobytes() == zs[2].tobytes()
        assert sol.certificate is None
        for amap, reported in zip(prob.neg, sol.neg_margins):
            assert abs(np.linalg.eigvalsh(evaluate(amap, sol.z)).max() - reported) <= 1e-9

    @pytest.mark.parametrize("side", ["x", "s"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("entry", ["piece", "normalization"])
    def test_scalar_cone_entry_not_positive_ends_in_iteration_limit(self, monkeypatch, side, value, entry):
        # A 1x1 block of X or S that is not positive when the third step
        # starts, a 1x1 piece or the normalization block, ends the run on the
        # iterate before it as ITERATION_LIMIT, as a failed Cholesky
        # factorization does.  The jump problem, with X_1's leading entry
        # as a 1x1 constraint of its own, decides at iteration 6.
        jump = jump_problem(False)
        lead = np.array([[1.0, 0.0]])
        alone = MapBuilder(1, jump.layout).linear(0, lead, lead.T).build()
        prob = LmiProblem(jump.layout, jump.neg, [*jump.pos, alone], jump.delta)
        mm = _max_margin(prob)
        at = mm.cones.scalars.span.start if entry == "piece" else len(mm.c) - 1
        zs = [y[: prob.layout.size].copy() for y, _, _ in _iterates(mm)]
        newton, calls = lmi._newton_step, []

        def corrupted(mm, y, x, s):
            calls.append(1)
            if len(calls) == 3:
                x, s = x.copy(), s.copy()
                (x if side == "x" else s)[at] = value
            return newton(mm, y, x, s)

        monkeypatch.setattr(lmi, "_newton_step", corrupted)
        sol = solve_feasibility(prob)
        assert (sol.status, sol.iterations) == (SolveStatus.ITERATION_LIMIT, 2)
        assert sol.z.tobytes() == zs[2].tobytes()
        assert sol.certificate is None

    def test_published_and_demo_systems_decide_in_tens_of_iterations(self, paper_model, demo):
        for decay in (0.0, 1.5):
            for sol in map(solve_feasibility, build_distributed(demo, decay=decay)):
                assert sol.status is SolveStatus.FEASIBLE and sol.iterations <= 12
        first, second = map(solve_feasibility, build_distributed(paper_model))
        assert second.status is SolveStatus.FEASIBLE and second.iterations <= 12
        assert first.status is SolveStatus.INFEASIBLE and first.iterations <= 25
        assert first.certificate.rho <= 1e-8 and first.certificate.bound >= 100.0
        assert check_infeasibility_certificate(build_distributed(paper_model)[0], first.certificate.blocks) is not None

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_published_system_scaled_stays_infeasible(self, paper_model, scale):
        # The residual bound scales with the maps: published system 1 with
        # every map scaled is decided as the unscaled one is, on a
        # certificate whose residual is at most 1e-9 times the largest
        # scaled coefficient (9.8 unscaled).
        problem = build_distributed(paper_model)[0]
        scaled = [dataclasses.replace(m, f0=scale * m.f0, coeffs=scale * m.coeffs) for m in (*problem.neg, *problem.pos)]
        n = len(problem.neg)
        problem = LmiProblem(problem.layout, scaled[:n], scaled[n:], problem.delta)
        sol = solve_feasibility(problem)
        assert (sol.status, sol.iterations) == (SolveStatus.INFEASIBLE, 17)
        assert sol.certificate.rho <= 1e-9 * 9.8 * scale
        assert check_infeasibility_certificate(problem, sol.certificate.blocks) is not None

    @pytest.mark.parametrize("delta", [1e-10, 1e-12])
    def test_published_system_at_small_margin_stays_infeasible(self, paper_model, delta):
        # Without constants the problem is homogeneous, so a smaller margin
        # only rescales every point: no margin makes published system 1
        # feasible, and each verdict rests on a checked certificate.
        problem = dataclasses.replace(build_distributed(paper_model)[0], delta=delta)
        sol = solve_feasibility(problem)
        assert sol.status is SolveStatus.INFEASIBLE
        assert check_infeasibility_certificate(problem, sol.certificate.blocks) is not None

    def test_overflowing_data_raises(self):
        # The normalization sums the constants' traces, which overflows; the
        # suite turns RuntimeWarning into an error, so no warning escapes.
        lay = VariableLayout()
        lay.add_scalar("s")
        neg = MapBuilder(1, lay).const([[1e308]]).scalar("s", [[1.0]]).build()
        pos = MapBuilder(1, lay).const([[-1e308]]).scalar("s", [[1.0]]).build()
        with pytest.raises(NonFinite):
            solve_feasibility(LmiProblem(lay, [neg], [pos], delta=1.0))


class TestInfeasibilityCertificate:
    def test_analytic_alternative_accepted(self):
        # {x < -delta, x > delta}: tr(H(x) Z) = -x/2 + x/2 = 0 for Z = (1/2,
        # 1/2), so rho = 0 and no point meets delta at any norm.
        prob = scalar_pair(0.1)
        cert = check_infeasibility_certificate(prob, [0.5, 0.5])
        assert (cert.rho, cert.offset, cert.bound) == (0.0, 0.0, np.inf)
        # With constants the offset enters the bound: {x < -1/2 - delta, x >
        # 1/2 + delta} gives offset -1/2 and the same exact certificate.
        cert = check_infeasibility_certificate(scalar_pair(0.1, 0.5, -0.5), [[0.5], [0.5]])
        assert (cert.rho, cert.offset) == (0.0, -0.5)

    @pytest.mark.parametrize(
        "blocks",
        [[0.5 + 1e-6, 0.5 - 1e-6], [0.6, 0.6], [0.4, 0.4], [1.5, -0.5], [np.nan, 0.5]],
        ids=["perturbed", "trace-above", "trace-below", "not-psd", "not-finite"],
    )
    def test_bad_alternative_rejected(self, blocks):
        assert check_infeasibility_certificate(scalar_pair(0.1), blocks) is None

    def test_non_psd_block_rejected_at_zero_residual(self):
        # {X < -delta, X > delta} over a symmetric 2x2 X: Z = (W/2, W/2) has
        # zero residual for every symmetric W; only a PSD W certifies.
        prob = contradictory_pair_2x2()
        assert check_infeasibility_certificate(prob, [np.eye(2) / 4, np.eye(2) / 4]).rho == 0.0
        w = np.diag([1.5, -0.5])
        assert check_infeasibility_certificate(prob, [w / 2, w / 2]) is None

    def test_offset_at_delta_rejected(self):
        # {x < 1 - delta, x > delta} is feasible: Z = (1/2, 1/2) has rho = 0
        # but offset 1/2 >= delta, so it proves nothing.
        assert check_infeasibility_certificate(scalar_pair(0.1, neg_const=-1.0), [0.5, 0.5]) is None

    def test_wrong_block_count_or_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match="2 certificate blocks"):
            check_infeasibility_certificate(scalar_pair(0.1), [1.0])
        with pytest.raises(DimensionMismatch, match="block 1"):
            check_infeasibility_certificate(contradictory_pair_2x2(), [np.eye(2) / 2, np.eye(3)])

    @pytest.mark.parametrize("make", [contradictory_pair, lambda: scalar_pair(0.1), lambda: contradictory_pair_2x2()], ids=["1x1", "scalar", "2x2"])
    def test_solver_certificate_checks_again(self, make):
        prob = make()
        sol = solve_feasibility(prob)
        assert sol.status is SolveStatus.INFEASIBLE and sol.certificate is not None
        again = check_infeasibility_certificate(prob, sol.certificate.blocks)
        assert (again.rho, again.offset, again.bound) == (sol.certificate.rho, sol.certificate.offset, sol.certificate.bound)


def test_operator_forward_and_adjoint():
    # The max-margin problem's one operator A': at y = (z, 1, 0) each
    # constraint block of S = C - A'y, reassembled from its pieces, is
    # H(z) - delta I with H = -F for a neg map and F for a pos map; A is the
    # adjoint of A', <A'y, x> = <y, A(x)>; and the pieces cover every entry
    # where F0 or a coefficient is nonzero.
    no_vars = VariableLayout()
    bare = LmiProblem(
        no_vars,
        [MapBuilder(2, no_vars).const([[-2.0, 1.0], [1.0, -3.0]]).build()],
        [MapBuilder(1, no_vars).const([[4.0]]).build()],
        delta=1e-3,
    )
    assert piece_sizes(edge_problem()) == [(1, 1), (2, 1), (8, 1)]
    rng = np.random.default_rng(7)
    for prob in (mixed_problem(), bare, split_problem(), jump_problem(False), edge_problem()):
        mm = _max_margin(prob)
        maps = [*prob.neg, *prob.pos]
        nf = len(mm.h0)
        assert sorted(mm.order) == list(range(mm.first[-1]))
        assert np.all(np.diff(mm.first) >= 1) and mm.first[0] == 0 and len(mm.first) == len(maps) + 1
        assert len(np.unique(mm.source)) == len(mm.source) == nf
        starts = np.cumsum([0] + [m.dim**2 for m in maps])
        covered = np.zeros(starts[-1], dtype=bool)
        covered[mm.source] = True
        for c, amap in enumerate(maps):
            inside = covered[starts[c] : starts[c + 1]]
            assert inside[amap.entries].all() and inside[np.flatnonzero(amap.f0)].all()
        for _ in range(5):
            z = rng.normal(size=prob.layout.size)
            slack = mm.c - mm.forward(np.concatenate([z, [1.0, 0.0]]))
            stacked = np.zeros(starts[-1])
            stacked[mm.source] = slack[:nf]
            for c, amap in enumerate(maps):
                sign = -1.0 if c < len(prob.neg) else 1.0
                block = stacked[starts[c] : starts[c + 1]].reshape(amap.dim, amap.dim)
                assert np.max(np.abs(block - (sign * evaluate(amap, z) - prob.delta * np.eye(amap.dim)))) <= 1e-12
            y, x = rng.normal(size=mm.size), rng.normal(size=len(mm.c))
            lhs, rhs = mm.forward(y) @ x, y @ mm.adjoint(x)
            assert abs(lhs - rhs) <= 1e-12 * (np.abs(mm.vals * y[mm.cols]) @ np.abs(x[mm.rows]))


PERF_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
FEASIBLE, INFEASIBLE = SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE
# The verdict and iteration count of every solve the benchmark's synthesize
# calls make: the demo at five decays and the published example, two
# systems each, distributed, and the demo centralized at decay 1.5.
PERFBENCH_SOLVES = {
    **{
        f"demo-decay{decay}-system{k}": (FEASIBLE, n)
        for decay, counts in ((0.0, (6, 5)), (0.5, (7, 5)), (1.0, (7, 5)), (1.5, (7, 6)), (2.0, (7, 7)))
        for k, n in enumerate(counts, start=1)
    },
    "published-system1": (INFEASIBLE, 17),
    "published-system2": (FEASIBLE, 8),
    "demo-centralized-decay1.5": (FEASIBLE, 10),
}


@functools.cache
def perfbench_problem(name):
    demo, example = (load_model(PERF_DATA / f"{m}_model.json") for m in ("demo", "example"))
    if name == "demo-centralized-decay1.5":
        return build_centralized(compose_integrated(demo), decay=1.5)
    system = int(name[-1]) - 1
    if name.startswith("published"):
        return build_distributed(example)[system]
    return build_distributed(demo, decay=float(name.split("-")[1][len("decay") :]))[system]


@pytest.mark.parametrize("name", list(PERFBENCH_SOLVES))
def test_perfbench_solves_keep_verdict_and_iterations(name):
    sol = solve_feasibility(perfbench_problem(name))
    assert (sol.status, sol.iterations) == PERFBENCH_SOLVES[name]


@pytest.mark.parametrize("name", [*PERFBENCH_SOLVES, "split", "edge"])
def test_schur_matches_dense_reference(name):
    # M_ij = sum over blocks of tr(A_i X A_j S^-1), from dense coefficient
    # blocks built straight from A's triples, at random positive definite
    # X and S on every block (the 1x1 ones included).
    prob = {"split": split_problem, "edge": edge_problem}.get(name, lambda: perfbench_problem(name))()
    mm = _max_margin(prob)
    rng = np.random.default_rng(11)

    def positive(like):
        q = rng.normal(size=like.shape)
        return q @ q.transpose(0, 2, 1) + like.shape[-1] * np.eye(like.shape[-1])

    positions = mm.blocks(np.arange(len(mm.c)))  # the flat entry at each place of each block
    x, s = [positive(b) for b in positions], [positive(b) for b in positions]
    lx = [np.linalg.cholesky(v) for v in x]
    us = [np.linalg.inv(np.linalg.cholesky(v)) for v in s]
    got = lmi._schur(mm.cones, mm.size, lx, us)

    ref = np.zeros((mm.size, mm.size))
    place = np.empty(len(mm.c), dtype=int)
    for blocks, xs, ss in zip(positions, x, s):
        for at, xk, sk in zip(blocks, xs, np.linalg.inv(ss)):
            d = len(at)
            place[at.ravel()] = np.arange(d * d)
            mine = np.isin(mm.rows, at)
            var, slot = np.unique(mm.cols[mine], return_inverse=True)
            coeff = np.zeros((len(var), d * d))
            coeff[slot, place[mm.rows[mine]]] = mm.vals[mine]
            coeff = coeff.reshape(-1, d, d)
            left, right = (coeff @ xk).reshape(len(var), -1), (coeff @ sk).transpose(0, 2, 1).reshape(len(var), -1)
            ref[np.ix_(var, var)] += left @ right.T
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
