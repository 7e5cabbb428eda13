import numpy as np
import pytest

from mjls.errors import DimensionMismatch, NonSymmetric
from mjls.lmi import (
    AffineMatrixMap,
    LmiProblem,
    MapBuilder,
    SolveStatus,
    VariableLayout,
    _operator,
    evaluate,
    solve_feasibility,
)


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

    def test_misshapen_triples_rejected(self):
        with pytest.raises(DimensionMismatch, match="triples"):
            AffineMatrixMap(2, 1, np.zeros((2, 2)), np.array([1, 2]), np.zeros(2, dtype=int), np.ones(3))

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


def scalar_problem(delta=0.5):
    lay = VariableLayout()
    lay.add_scalar("x")
    neg = MapBuilder(1, lay).scalar("x", [[1.0]]).build()
    return LmiProblem(lay, [neg], [], delta=delta)


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
            prob = LmiProblem(lay, [neg], [pos], delta=1e-4, z0=lay.pack({"X": np.eye(n)}))
            sol = solve_feasibility(prob, 5000)
            assert sol.status is SolveStatus.FEASIBLE
            x = sol.variable("X")
            assert np.linalg.eigvalsh(a @ x + x @ a.T).max() <= -prob.delta + 1e-9
            assert np.linalg.eigvalsh(x).min() >= prob.delta - 1e-9

    def test_infeasible_reports_best_point(self):
        lay = VariableLayout()
        lay.add_sym("X", 1)
        amap = MapBuilder(1, lay).linear("X").build()
        prob = LmiProblem(lay, [amap], [amap], delta=0.1)
        sol = solve_feasibility(prob, 5000)
        assert len(sol.margins) == 2
        assert sol.iterations <= 5000

    def test_mixed_blocks_margins_in_constraint_order(self):
        prob = mixed_problem()
        neg, pos = prob.neg, prob.pos
        sol = solve_feasibility(prob, 5000)
        assert sol.status is SolveStatus.FEASIBLE
        assert len(sol.neg_margins) == len(neg) and len(sol.pos_margins) == len(pos)
        for amap, reported in zip(neg, sol.neg_margins):
            assert abs(np.linalg.eigvalsh(evaluate(amap, sol.z)).max() - reported) <= 1e-9
        for amap, reported in zip(pos, sol.pos_margins):
            assert abs(np.linalg.eigvalsh(evaluate(amap, sol.z)).min() - reported) <= 1e-9


def split_problem():
    """Blocks that split into pieces: a neg block whose 1x1 piece (row 1)
    sits between the rows of its 2x2 piece and holds its largest eigenvalue
    at z0, and a pos block whose 1x1 piece holds its smallest."""
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
    z0 = lay.pack({"X": np.eye(2), "Y": np.eye(2), "s": 0.9})
    return LmiProblem(lay, neg, pos, delta=1e-3, z0=z0)


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
    return LmiProblem(lay, neg, pos, delta=1e-3, z0=lay.pack({i: np.eye(2) for i in range(3)}))


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
    return sorted((dim, len(pieces)) for dim, _, pieces, _, _, _ in _operator(prob).dims)


class TestPieces:
    def test_split_block_iterates_as_its_pieces(self):
        # Clipping each piece's eigenvalues is clipping the block's: the
        # same iteration as with the pieces entered as constraints.
        whole, separate = jump_problem(False), jump_problem(True)
        assert piece_sizes(whole) == piece_sizes(separate) == [(2, 5), (4, 2), (6, 1)]
        a, b = solve_feasibility(whole, 5000), solve_feasibility(separate, 5000)
        assert a.status is b.status is SolveStatus.FEASIBLE
        assert a.iterations == b.iterations == 129
        assert np.linalg.norm(a.z - b.z) <= 1e-12 * np.linalg.norm(b.z)

    def test_margins_are_extremes_over_pieces(self):
        prob = split_problem()
        assert piece_sizes(prob) == [(1, 2), (2, 4)]
        sol = solve_feasibility(prob, 100)
        assert sol.status is SolveStatus.FEASIBLE
        blocks = [evaluate(m, sol.z) for m in (*prob.neg, *prob.pos)]
        eigs = [np.linalg.eigvalsh(block) for block in blocks]
        for reported, eig in zip(sol.neg_margins, eigs):
            assert abs(reported - eig.max()) <= 1e-9
        for reported, eig in zip(sol.pos_margins, eigs[len(prob.neg) :]):
            assert abs(reported - eig.min()) <= 1e-9
        # The extreme eigenvalue of each split block lies in its 1x1 piece.
        assert sol.neg_margins[0] == blocks[0][1, 1] > np.linalg.eigvalsh(blocks[0][np.ix_([0, 2], [0, 2])]).max()
        assert sol.pos_margins[0] == blocks[2][1, 1] < np.linalg.eigvalsh(blocks[2][np.ix_([0, 2], [0, 2])]).min()


def test_operator_forward_and_adjoint():
    # The solver's flat operator: each constraint block of F(z), reassembled
    # from its pieces, is evaluate(map, z), and L' is the adjoint of the
    # linear part, <F(z) - F0, S> = <z, L'S>.
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
        op = _operator(prob)
        maps = [*prob.neg, *prob.pos]
        pieces = np.concatenate([p for _, _, p, _, _, _ in op.dims])
        assert sorted(pieces) == list(range(op.first[-1]))
        assert np.all(np.diff(op.first) >= 1) and op.first[0] == 0
        for _, _, p, neg, _, _ in op.dims:
            owner = np.searchsorted(op.first, p, side="right") - 1
            assert np.array_equal(neg, owner < len(prob.neg))
        assert len(np.unique(op.source)) == len(op.source) == len(op.f0)
        starts = np.cumsum([0] + [m.dim**2 for m in maps])
        # Every entry where F0 or a coefficient is nonzero lies in a piece.
        covered = np.zeros(starts[-1], dtype=bool)
        covered[op.source] = True
        for c, amap in enumerate(maps):
            inside = covered[starts[c] : starts[c + 1]]
            assert inside[amap.entries].all() and inside[np.flatnonzero(amap.f0)].all()
        for _ in range(5):
            z = rng.normal(size=prob.layout.size)
            f = op.forward(z)
            stacked = np.zeros(starts[-1])
            stacked[op.source] = f
            for c, amap in enumerate(maps):
                block = stacked[starts[c] : starts[c + 1]].reshape(amap.dim, amap.dim)
                assert np.max(np.abs(block - evaluate(amap, z))) <= 1e-12
            s = rng.normal(size=len(f))
            lhs, rhs = (f - op.f0) @ s, z @ op.adjoint(s)
            assert abs(lhs - rhs) <= 1e-12 * (np.abs(f - op.f0) @ np.abs(s))
